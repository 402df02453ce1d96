#include "tracer.hh"

#include <algorithm>
#include <vector>

#include "trace/link.hh"
#include "trace/validate.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"

namespace ovlsim::tracer {

namespace {

using trace::MessageOverlapInfo;
using trace::OverlapSet;
using trace::TraceSet;
using vm::Buffer;
using vm::ProvisionalId;

/** Per-buffer last-store shadow at shadowBlockBytes granularity. */
struct BufferShadow
{
    Bytes size = 0;
    std::vector<Instr> lastStore;
};

/** Marks a profile block that has not been loaded yet. */
constexpr Instr unsetInstr = ~static_cast<Instr>(0);

/** Open consumption tracker for one received message. */
struct ConsTracker
{
    ProvisionalId id = 0;
    std::uint32_t bufferId = 0;
    Bytes offset = 0;
    Bytes len = 0;
    Bytes profBlock = 0;
    Instr recvInstr = 0;
    Rank src = 0;
    Tag tag = 0;
    /** Per profile block; unsetInstr means "not yet loaded". */
    std::vector<Instr> firstLoad;
};

struct RankState
{
    Instr lastEmit = 0;
    /** Instr position of the most recent communication record. */
    Instr lastCommInstr = 0;
    /**
     * Start of the most recent computation region: the position of
     * the last communication record that was followed by actual
     * computation. Back-to-back exchange records therefore all share
     * the producing burst that precedes the group.
     */
    Instr windowAnchor = 0;
    std::vector<BufferShadow> buffers;
    std::vector<ConsTracker> open;
};

/**
 * VmObserver implementation: builds the original trace and the
 * endpoint-local halves of the overlap profiles.
 */
class Tracer : public vm::VmObserver
{
  public:
    Tracer(int ranks, const TracerConfig &config)
        : config_(config),
          traces_(config.appName, ranks, config.mips),
          states_(static_cast<std::size_t>(ranks))
    {}

    TraceSet &traces() { return traces_; }
    OverlapSet &senderInfos() { return senderInfos_; }
    OverlapSet &receiverInfos() { return receiverInfos_; }

    void
    onAllocBuffer(Rank r, Instr, Buffer buf,
                  const std::string &) override
    {
        auto &st = state(r);
        const std::size_t blocks = static_cast<std::size_t>(
            ceilDiv(buf.size, config_.shadowBlockBytes));
        if (st.buffers.size() < buf.id)
            st.buffers.resize(buf.id);
        st.buffers[buf.id - 1] =
            BufferShadow{buf.size, std::vector<Instr>(blocks, 0)};
    }

    void
    onStore(Rank r, Instr now, Buffer buf, Bytes offset,
            Bytes len) override
    {
        auto &shadow = shadowOf(r, buf.id);
        const auto first = static_cast<std::size_t>(
            offset / config_.shadowBlockBytes);
        const auto last = static_cast<std::size_t>(
            (offset + len - 1) / config_.shadowBlockBytes);
        for (std::size_t b = first; b <= last; ++b)
            shadow.lastStore[b] = now;
    }

    void
    onLoad(Rank r, Instr now, Buffer buf, Bytes offset,
           Bytes len) override
    {
        auto &st = state(r);
        for (auto &tracker : st.open) {
            if (tracker.bufferId != buf.id)
                continue;
            const Bytes lo = std::max(tracker.offset, offset);
            const Bytes hi = std::min(tracker.offset + tracker.len,
                                      offset + len);
            if (lo >= hi)
                continue;
            const auto first = static_cast<std::size_t>(
                (lo - tracker.offset) / tracker.profBlock);
            const auto last = static_cast<std::size_t>(
                (hi - 1 - tracker.offset) / tracker.profBlock);
            for (std::size_t b = first; b <= last; ++b) {
                if (tracker.firstLoad[b] == unsetInstr)
                    tracker.firstLoad[b] = now;
            }
        }
    }

    void
    onSend(Rank r, Instr now, Buffer buf, Bytes offset, Bytes len,
           Rank dst, Tag tag, ProvisionalId id) override
    {
        beginCommRecord(r, now);
        recordProduction(r, now, buf, offset, len, dst, tag, id);
        traces_.rankTrace(r).append(
            trace::SendRec{dst, tag, len, id});
    }

    void
    onRecv(Rank r, Instr now, Buffer buf, Bytes offset, Bytes len,
           Rank src, Tag tag, ProvisionalId id) override
    {
        auto &st = state(r);
        beginCommRecord(r, now);
        // Reusing a buffer region implies the previous message's
        // consumption window has closed.
        closeOverlappingTrackers(r, now, buf, offset, len);
        traces_.rankTrace(r).append(
            trace::RecvRec{src, tag, len, id});

        ConsTracker tracker;
        tracker.id = id;
        tracker.bufferId = buf.id;
        tracker.offset = offset;
        tracker.len = len;
        tracker.profBlock = profileBlockSize(len, config_);
        tracker.recvInstr = now;
        tracker.src = src;
        tracker.tag = tag;
        tracker.firstLoad.assign(
            static_cast<std::size_t>(
                ceilDiv(len, tracker.profBlock)),
            unsetInstr);
        st.open.push_back(std::move(tracker));
    }

    void
    onISend(Rank r, Instr now, Buffer, Bytes, Bytes len, Rank dst,
            Tag tag, ProvisionalId id,
            trace::RequestId req) override
    {
        beginCommRecord(r, now);
        traces_.rankTrace(r).append(
            trace::ISendRec{dst, tag, len, id, req});
        // Native non-blocking sends are replayed verbatim; no
        // production profile is recorded for them.
    }

    void
    onIRecv(Rank r, Instr now, Buffer, Bytes, Bytes len, Rank src,
            Tag tag, ProvisionalId id,
            trace::RequestId req) override
    {
        beginCommRecord(r, now);
        traces_.rankTrace(r).append(
            trace::IRecvRec{src, tag, len, id, req});
    }

    void
    onWait(Rank r, Instr now, trace::RequestId req) override
    {
        beginCommRecord(r, now);
        traces_.rankTrace(r).append(trace::WaitRec{req});
    }

    void
    onWaitAll(Rank r, Instr now) override
    {
        beginCommRecord(r, now);
        traces_.rankTrace(r).append(trace::WaitAllRec{});
    }

    void
    onCollective(Rank r, Instr now, trace::CollOp op,
                 Bytes send_bytes, Bytes recv_bytes,
                 Rank root) override
    {
        beginCommRecord(r, now);
        traces_.rankTrace(r).append(
            trace::CollectiveRec{op, send_bytes, recv_bytes, root});
    }

    void
    onFinish(Rank r, Instr now) override
    {
        emitBurst(r, now);
        closeTrackers(r, now);
    }

  private:
    RankState &
    state(Rank r)
    {
        return states_[static_cast<std::size_t>(r)];
    }

    BufferShadow &
    shadowOf(Rank r, std::uint32_t buffer_id)
    {
        auto &st = state(r);
        ovlAssert(buffer_id >= 1 &&
                      buffer_id <= st.buffers.size(),
                  "tracer: unknown buffer id");
        return st.buffers[buffer_id - 1];
    }

    void
    emitBurst(Rank r, Instr now)
    {
        auto &st = state(r);
        if (now > st.lastEmit) {
            traces_.rankTrace(r).append(
                trace::CpuBurst{now - st.lastEmit});
            st.lastEmit = now;
        }
    }

    /**
     * Common prologue of every communication record: flush the burst
     * and, if a computation region just ended, advance the window
     * anchor and finalize the consumption trackers whose consuming
     * region it was.
     */
    void
    beginCommRecord(Rank r, Instr now)
    {
        auto &st = state(r);
        emitBurst(r, now);
        if (now > st.lastCommInstr) {
            st.windowAnchor = st.lastCommInstr;
            closeTrackers(r, now);
        }
        st.lastCommInstr = now;
    }

    /** Capture the production profile of an outgoing payload. */
    void
    recordProduction(Rank r, Instr now, Buffer buf, Bytes offset,
                     Bytes len, Rank dst, Tag tag,
                     ProvisionalId id)
    {
        auto &st = state(r);
        const auto &shadow = shadowOf(r, buf.id);
        const Bytes prof_block = profileBlockSize(len, config_);
        const auto blocks =
            static_cast<std::size_t>(ceilDiv(len, prof_block));

        MessageOverlapInfo info;
        info.id = id;
        info.src = r;
        info.dst = dst;
        info.tag = tag;
        info.bytes = len;
        info.sendInstr = now;
        info.prodWindowBegin = st.windowAnchor;
        info.blockBytes = prof_block;
        info.blockLastStore.resize(blocks);

        for (std::size_t b = 0; b < blocks; ++b) {
            const Bytes lo = offset + prof_block * b;
            const Bytes hi =
                std::min(offset + len, lo + prof_block);
            const auto s_first = static_cast<std::size_t>(
                lo / config_.shadowBlockBytes);
            const auto s_last = static_cast<std::size_t>(
                (hi - 1) / config_.shadowBlockBytes);
            Instr latest = 0;
            for (std::size_t s = s_first; s <= s_last; ++s)
                latest = std::max(latest, shadow.lastStore[s]);
            // Clamp into the producing window: data stored before
            // the window opened was simply ready from its start.
            latest = std::clamp(latest, info.prodWindowBegin, now);
            info.blockLastStore[b] = latest;
        }
        senderInfos_.add(std::move(info));
    }

    void
    finalizeTracker(Rank r, Instr now, ConsTracker &tracker)
    {
        MessageOverlapInfo info;
        info.id = tracker.id;
        info.src = tracker.src;
        info.dst = r;
        info.tag = tracker.tag;
        info.bytes = tracker.len;
        info.recvInstr = tracker.recvInstr;
        info.consWindowEnd = now;
        info.blockBytes = tracker.profBlock;
        info.blockFirstLoad = std::move(tracker.firstLoad);
        for (auto &first : info.blockFirstLoad) {
            // Blocks never read inside the window can be awaited at
            // its very end.
            if (first == unsetInstr)
                first = now;
            first = std::clamp(first, tracker.recvInstr, now);
        }
        receiverInfos_.add(std::move(info));
    }

    /** Close every open tracker of the rank (sync point reached). */
    void
    closeTrackers(Rank r, Instr now)
    {
        auto &st = state(r);
        for (auto &tracker : st.open)
            finalizeTracker(r, now, tracker);
        st.open.clear();
    }

    /** Close only trackers overlapping a reused buffer region. */
    void
    closeOverlappingTrackers(Rank r, Instr now, Buffer buf,
                             Bytes offset, Bytes len)
    {
        auto &st = state(r);
        auto it = st.open.begin();
        while (it != st.open.end()) {
            const bool overlaps = it->bufferId == buf.id &&
                offset < it->offset + it->len &&
                it->offset < offset + len;
            if (overlaps) {
                finalizeTracker(r, now, *it);
                it = st.open.erase(it);
            } else {
                ++it;
            }
        }
    }

    TracerConfig config_;
    TraceSet traces_;
    OverlapSet senderInfos_;
    OverlapSet receiverInfos_;
    std::vector<RankState> states_;
};

} // namespace

Bytes
profileBlockSize(Bytes bytes, const TracerConfig &config)
{
    ovlAssert(bytes > 0, "profileBlockSize: empty message");
    ovlAssert(config.maxProfileBlocks > 0 &&
                  config.shadowBlockBytes > 0,
              "profileBlockSize: bad tracer config");
    const Bytes ideal = ceilDiv(
        bytes, static_cast<Bytes>(config.maxProfileBlocks));
    return roundUp(std::max<Bytes>(ideal, 1),
                   config.shadowBlockBytes);
}

TraceBundle
traceApplication(int ranks, const vm::RankProgram &program,
                 const TracerConfig &config)
{
    ovlAssert(ranks > 0, "traceApplication: need at least 1 rank");
    if (config.mips <= 0.0)
        fatal("traceApplication: MIPS rate must be positive");

    Tracer tracer(ranks, config);
    vm::VmHost::run(ranks, program, tracer);

    TraceBundle bundle;
    bundle.traces = std::move(tracer.traces());
    trace::linkTraceSet(bundle.traces, &tracer.senderInfos(),
                        &tracer.receiverInfos(), &bundle.overlap);

    const auto report = trace::validateTraceSet(bundle.traces);
    if (!report.valid())
        fatal("tracer produced an invalid trace:\n", report.toString());
    return bundle;
}

} // namespace ovlsim::tracer
