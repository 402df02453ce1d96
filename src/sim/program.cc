#include "program.hh"

#include <limits>

#include "util/flat_map.hh"
#include "util/logging.hh"

namespace ovlsim::sim {

namespace {

using trace::CollectiveRec;
using trace::CpuBurst;
using trace::IRecvRec;
using trace::ISendRec;
using trace::Record;
using trace::RecordKind;
using trace::RecvRec;
using trace::RequestId;
using trace::SendRec;
using trace::WaitRec;

// The compiler emits rec.index() as the op kind byte; keep the
// RecordKind values bolted to the variant alternative order.
static_assert(std::variant_size_v<Record> == 8);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::burst),
                                 Record>,
                             CpuBurst>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::send),
                                 Record>,
                             SendRec>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::isend),
                                 Record>,
                             ISendRec>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::recv),
                                 Record>,
                             RecvRec>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::irecv),
                                 Record>,
                             IRecvRec>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::wait),
                                 Record>,
                             WaitRec>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::waitAll),
                                 Record>,
                             trace::WaitAllRec>);
static_assert(std::is_same_v<std::variant_alternative_t<
                                 static_cast<std::size_t>(
                                     RecordKind::collective),
                                 Record>,
                             CollectiveRec>);

/** Trace request ids must stay below this (0 is the null request). */
constexpr RequestId externalReqLimit = 1ULL << 62;

/**
 * Per-rank request-register allocator. Registers replace the
 * engine's per-replay RequestId hash map: every non-blocking op is
 * assigned a small dense index at compile time, and the matching
 * Wait references the same index directly. Register identity has no
 * semantic effect on replay (only completion times do), but the
 * allocation must be deterministic so that compiling the same trace
 * twice yields byte-identical programs.
 */
class RegisterAllocator
{
  public:
    void
    reset()
    {
        liveOf_.clear();
        free_.clear();
        high_ = 0;
    }

    std::uint32_t
    allocate(Rank rank, std::size_t record, RequestId id)
    {
        if (liveOf_.contains(id)) {
            fatal("rank ", rank, " record ", record, ": request ",
                  id, " reposted while still live");
        }
        std::uint32_t reg;
        if (!free_.empty()) {
            reg = free_.back();
            free_.pop_back();
        } else {
            reg = high_++;
        }
        liveOf_.insertOrAssign(id, reg);
        return reg;
    }

    std::uint32_t
    resolveWait(Rank rank, RequestId id)
    {
        const std::uint32_t *reg = liveOf_.find(id);
        if (reg == nullptr) {
            // The engine raised PanicError for this from inside the
            // replay loop; keep the taxonomy (and the message) now
            // that the check runs at compile time.
            panic("rank ", rank, ": wait on unknown request ", id);
        }
        const std::uint32_t result = *reg;
        liveOf_.erase(id);
        free_.push_back(result);
        return result;
    }

    /**
     * WaitAll retires every live request. All registers are free
     * afterwards; refill the free list lowest-first so the next
     * allocations reuse [0, high) instead of growing the table.
     */
    void
    releaseAll()
    {
        liveOf_.clear();
        free_.clear();
        for (std::uint32_t reg = high_; reg > 0; --reg)
            free_.push_back(reg - 1);
    }

    std::uint32_t tableSize() const { return high_; }

  private:
    FlatMap<RequestId, std::uint32_t> liveOf_;
    std::vector<std::uint32_t> free_;
    std::uint32_t high_ = 0;
};

void
checkPeer(Rank rank, std::size_t record, const char *what,
          Rank peer, Tag tag, int nranks)
{
    if (peer == anyRank || tag == anyTag) {
        fatal("rank ", rank, " record ", record, ": ", what,
              " with the ", peer == anyRank ? "anyRank" : "anyTag",
              " wildcard sentinel; wildcard matching is "
              "unsupported by the replay engine (run "
              "trace::validateTraceSet to locate the records)");
    }
    if (peer < 0 || peer >= nranks) {
        fatal("rank ", rank, " record ", record, ": ", what,
              " peer rank ", peer, " outside [0, ", nranks, ")");
    }
    constexpr Tag tagLimit = Tag(1) << trace::channelTagBits;
    if (tag < 0 || tag >= tagLimit) {
        fatal("rank ", rank, " record ", record, ": ", what, " tag ",
              tag, " outside [0, ", tagLimit, ")");
    }
}

void
checkRequest(Rank rank, std::size_t record, const char *what,
             RequestId id)
{
    if (id == 0 || id >= externalReqLimit) {
        fatal("rank ", rank, " record ", record, ": ", what,
              " request id ", id, " out of range");
    }
}

bool
isPointToPoint(std::uint8_t kind)
{
    const auto k = static_cast<RecordKind>(kind);
    return k == RecordKind::send || k == RecordKind::isend ||
        k == RecordKind::recv || k == RecordKind::irecv;
}

bool
isSendKind(std::uint8_t kind)
{
    const auto k = static_cast<RecordKind>(kind);
    return k == RecordKind::send || k == RecordKind::isend;
}

/**
 * One-pass send/receive pairing. The endpoints of a channel still
 * waiting for a partner are all of one side (sends or receives) and
 * form a circular FIFO threaded through the `d` operands of the
 * waiting ops: each points to the next newer one, and the newest
 * back to the oldest. An endpoint that finds the other side waiting
 * pairs with the oldest — the k-th send with the k-th receive,
 * exactly the engine's historical run-time FIFO matching, since
 * every rank posts in program order — and both get the next dense
 * message slot. Only channels with endpoints waiting are mapped (to
 * their newest one), so the table holds the unpaired frontier, not
 * every channel. Endpoints still waiting when the program ends have
 * no partner and get noSlot.
 */
class MessagePairer
{
  public:
    /** Pairs endpoints of the streams compileTrace is emitting. */
    MessagePairer(const std::vector<std::uint8_t> &kinds,
                  std::vector<PackedOp> &ops,
                  const std::vector<std::uint32_t> &rank_begin)
        : kinds_(kinds), ops_(ops), rankBegin_(rank_begin)
    {}

    /** Pair the point-to-point op at stream position `at`. */
    void
    add(std::uint32_t at)
    {
        PackedOp &op = ops_[at];
        std::uint32_t *newest = waiting_.find(op.a);
        if (newest == nullptr) {
            op.d = at;
            waiting_.insertOrAssign(op.a, at);
            return;
        }
        const std::uint32_t oldest = ops_[*newest].d;
        if (isSendKind(kinds_[oldest]) == isSendKind(kinds_[at])) {
            op.d = oldest;
            ops_[*newest].d = at;
            *newest = at;
            return;
        }
        checkBytes(oldest, at);
        if (oldest == *newest)
            waiting_.erase(op.a);
        else
            ops_[*newest].d = ops_[oldest].d;
        ops_[oldest].d = slots_;
        op.d = slots_++;
    }

    /** Clear the links of every endpoint left without a partner;
     * returns the number of message slots handed out. */
    std::uint32_t
    finish()
    {
        waiting_.forEach([&](trace::ChannelKey, std::uint32_t newest) {
            std::uint32_t at = newest;
            do {
                const std::uint32_t next = ops_[at].d;
                ops_[at].d = noSlot;
                at = next;
            } while (at != newest);
        });
        return slots_;
    }

  private:
    /** Both ends of a message must carry the same byte count. */
    void
    checkBytes(std::uint32_t first, std::uint32_t second) const
    {
        const std::uint32_t send =
            isSendKind(kinds_[first]) ? first : second;
        const std::uint32_t recv = send == first ? second : first;
        if (ops_[send].b == ops_[recv].b)
            return;
        const trace::ChannelKey key = ops_[send].a;
        const Rank src = trace::channelSrcOf(key);
        const Rank dst = trace::channelDstOf(key);
        fatal("channel ", src, "->", dst, " tag ",
              trace::channelTagOf(key), ": rank ", src, " record ",
              send - rankBegin_[static_cast<std::size_t>(src)],
              " sends ", ops_[send].b, " bytes but rank ", dst,
              " record ",
              recv - rankBegin_[static_cast<std::size_t>(dst)],
              " receives ", ops_[recv].b, " bytes");
    }

    const std::vector<std::uint8_t> &kinds_;
    std::vector<PackedOp> &ops_;
    const std::vector<std::uint32_t> &rankBegin_;
    /** Channel -> stream position of its newest waiting endpoint. */
    FlatMap<trace::ChannelKey, std::uint32_t> waiting_;
    std::uint32_t slots_ = 0;
};

} // namespace

ReplayProgram
compileTrace(const trace::TraceSet &traces)
{
    const int nranks = traces.ranks();
    const std::size_t total = traces.totalRecords();
    ovlAssert(total <
                  std::numeric_limits<std::uint32_t>::max(),
              "trace too large to compile: ", total, " records");

    // Prescan the record kinds (index() only, no payload access)
    // so every array reserves its exact final size: compiled
    // programs of big chunked variants are held for whole
    // campaigns, and vector doubling would overshoot their
    // footprint by up to 2x.
    std::size_t p2p_ops = 0;
    std::size_t wait_ops = 0;
    for (const auto &rt : traces.all()) {
        for (const auto &rec : rt.records()) {
            const RecordKind kind = trace::recordKind(rec);
            if (kind == RecordKind::wait) {
                ++wait_ops;
            } else if (kind != RecordKind::burst &&
                       kind != RecordKind::waitAll &&
                       kind != RecordKind::collective) {
                ++p2p_ops;
            }
        }
    }

    ReplayProgram p;
    p.name_ = traces.name();
    p.mips_ = traces.mips();
    p.kinds_.reserve(total);
    p.ops_.reserve(total);
    p.p2p_.reserve(p2p_ops);
    p.waitReqs_.reserve(wait_ops);
    p.rankBegin_.reserve(static_cast<std::size_t>(nranks) + 1);
    p.rankRegs_.reserve(static_cast<std::size_t>(nranks));
    p.rankP2p_.reserve(static_cast<std::size_t>(nranks));

    RegisterAllocator regs;
    MessagePairer pairer(p.kinds_, p.ops_, p.rankBegin_);
    for (Rank rank = 0; rank < nranks; ++rank) {
        p.rankBegin_.push_back(
            static_cast<std::uint32_t>(p.kinds_.size()));
        p.rankP2p_.push_back(static_cast<std::uint32_t>(p.p2p_.size()));
        regs.reset();
        std::size_t coll_index = 0;

        const auto &records = traces.rankTrace(rank).records();
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &rec = records[i];
            PackedOp op;
            switch (trace::recordKind(rec)) {
              case RecordKind::burst:
                op.a = std::get_if<CpuBurst>(&rec)->instructions;
                break;

              case RecordKind::send: {
                const auto *s = std::get_if<SendRec>(&rec);
                checkPeer(rank, i, "send", s->dst, s->tag, nranks);
                op.a = trace::channelKey(rank, s->dst, s->tag);
                op.b = s->bytes;
                op.c = noRegister;
                p.p2p_.push_back(P2pMeta{s->message, 0});
                ++p.totalSends_;
                break;
              }

              case RecordKind::isend: {
                const auto *s = std::get_if<ISendRec>(&rec);
                checkPeer(rank, i, "isend", s->dst, s->tag,
                          nranks);
                checkRequest(rank, i, "isend", s->request);
                op.a = trace::channelKey(rank, s->dst, s->tag);
                op.b = s->bytes;
                op.c = regs.allocate(rank, i, s->request);
                p.p2p_.push_back(P2pMeta{s->message, s->request});
                ++p.totalSends_;
                break;
              }

              case RecordKind::recv: {
                const auto *r = std::get_if<RecvRec>(&rec);
                checkPeer(rank, i, "recv", r->src, r->tag, nranks);
                op.a = trace::channelKey(r->src, rank, r->tag);
                op.b = r->bytes;
                op.c = noRegister;
                p.p2p_.push_back(P2pMeta{r->message, 0});
                break;
              }

              case RecordKind::irecv: {
                const auto *r = std::get_if<IRecvRec>(&rec);
                checkPeer(rank, i, "irecv", r->src, r->tag,
                          nranks);
                checkRequest(rank, i, "irecv", r->request);
                op.a = trace::channelKey(r->src, rank, r->tag);
                op.b = r->bytes;
                op.c = regs.allocate(rank, i, r->request);
                p.p2p_.push_back(P2pMeta{r->message, r->request});
                break;
              }

              case RecordKind::wait: {
                const auto *w = std::get_if<WaitRec>(&rec);
                op.c = regs.resolveWait(rank, w->request);
                op.d =
                    static_cast<std::uint32_t>(p.waitReqs_.size());
                p.waitReqs_.push_back(w->request);
                break;
              }

              case RecordKind::waitAll:
                regs.releaseAll();
                break;

              case RecordKind::collective: {
                const auto *g = std::get_if<CollectiveRec>(&rec);
                if (coll_index == p.collectives_.size()) {
                    p.collectives_.push_back(CollectiveSpec{
                        g->op, g->sendBytes, g->recvBytes,
                        g->root});
                } else {
                    CollectiveSpec &spec =
                        p.collectives_[coll_index];
                    if (spec.op != g->op) {
                        fatal("rank ", rank, ": collective #",
                              coll_index, " is ",
                              trace::collOpName(g->op),
                              " but other ranks ran ",
                              trace::collOpName(spec.op));
                    }
                    spec.sendBytes =
                        std::max(spec.sendBytes, g->sendBytes);
                    spec.recvBytes =
                        std::max(spec.recvBytes, g->recvBytes);
                }
                op.a = g->sendBytes;
                op.b = g->recvBytes;
                op.c = static_cast<std::uint32_t>(coll_index);
                op.d = static_cast<std::uint32_t>(g->root);
                ++coll_index;
                break;
              }
            }
            const auto at = static_cast<std::uint32_t>(p.ops_.size());
            p.kinds_.push_back(
                static_cast<std::uint8_t>(rec.index()));
            p.ops_.push_back(op);
            if (isPointToPoint(p.kinds_.back()))
                pairer.add(at);
        }
        p.rankRegs_.push_back(regs.tableSize());
    }
    p.rankBegin_.push_back(
        static_cast<std::uint32_t>(p.kinds_.size()));
    p.messageSlots_ = pairer.finish();
    return p;
}

std::shared_ptr<const ReplayProgram>
compileShared(const trace::TraceSet &traces)
{
    return std::make_shared<const ReplayProgram>(
        compileTrace(traces));
}

trace::Record
ReplayProgram::decodeAt(std::size_t at, std::uint32_t p2p) const
{
    const PackedOp &op = ops_[at];
    switch (static_cast<RecordKind>(kinds_[at])) {
      case RecordKind::burst:
        return CpuBurst{op.a};
      case RecordKind::send:
        return SendRec{trace::channelDstOf(op.a),
                       trace::channelTagOf(op.a), op.b,
                       p2p_[p2p].message};
      case RecordKind::isend:
        return ISendRec{trace::channelDstOf(op.a),
                        trace::channelTagOf(op.a), op.b,
                        p2p_[p2p].message, p2p_[p2p].request};
      case RecordKind::recv:
        return RecvRec{trace::channelSrcOf(op.a),
                       trace::channelTagOf(op.a), op.b,
                       p2p_[p2p].message};
      case RecordKind::irecv:
        return IRecvRec{trace::channelSrcOf(op.a),
                        trace::channelTagOf(op.a), op.b,
                        p2p_[p2p].message, p2p_[p2p].request};
      case RecordKind::wait:
        return WaitRec{waitReqs_[op.d]};
      case RecordKind::waitAll:
        return trace::WaitAllRec{};
      case RecordKind::collective:
        return CollectiveRec{collectives_[op.c].op, op.a, op.b,
                             static_cast<Rank>(op.d)};
    }
    panic("decode: corrupt op kind");
}

trace::TraceSet
ReplayProgram::decode() const
{
    trace::TraceSet traces(name_, ranks(), mips_);
    // The p2p side table follows the op stream, so one cursor walks
    // both.
    std::uint32_t p2p = 0;
    for (Rank r = 0; r < ranks(); ++r) {
        auto &rank_trace = traces.rankTrace(r);
        const std::size_t begin = rankBegin_[static_cast<std::size_t>(r)];
        for (std::size_t at = begin; at < begin + opCount(r); ++at) {
            rank_trace.append(decodeAt(at, p2p));
            if (isPointToPoint(kinds_[at]))
                ++p2p;
        }
    }
    return traces;
}

} // namespace ovlsim::sim
