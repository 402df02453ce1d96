/**
 * @file
 * Compiled replay programs: traces lowered to a flat instruction
 * stream.
 *
 * The study methodology replays the same Dimemas-style trace hundreds
 * of times across platform and overlap variants. Interpreting the
 * user-facing trace model on that hot path is wasteful: every replay
 * re-walks fat std::variant records, re-hashes request ids, re-packs
 * channel keys and re-checks structural properties that can never
 * change between replays of the same trace.
 *
 * compileTrace() lowers a trace::TraceSet once into an immutable
 * ReplayProgram: one shared flat stream of 1-byte op kinds plus
 * 24-byte packed operand slots (structure-of-arrays, per-rank
 * [begin, end) windows into the shared arrays), with side tables for
 * everything the replay loop does not touch per event:
 *
 *  - point-to-point ops carry their pre-packed trace::ChannelKey,
 *    payload bytes, a pre-linked request register and a pre-paired
 *    message slot inline; message and request ids (capture/decode
 *    only) live in a side table,
 *  - sends are paired with receives here, once: under MPI's
 *    non-overtaking rule the k-th send on a (src, dst, tag) channel
 *    matches the k-th receive on it whichever is posted first, so
 *    both endpoints get one dense message slot and the engine meets
 *    them through a per-replay slot table instead of matching
 *    channels at run time,
 *  - Wait ops are pre-linked to the register their request was
 *    assigned, replacing the engine's per-replay request hash map
 *    with a direct array index,
 *  - collectives reference a per-program table holding the operation
 *    and the byte counts already maxed across ranks — the inputs of
 *    the platform cost model, pre-resolved so the engine no longer
 *    tracks the running max or re-checks op agreement per replay.
 *
 * Compilation also front-loads validation the engine previously
 * repeated every replay (wildcard sentinels, peer-rank ranges,
 * request discipline, collective-sequence agreement, equal byte
 * counts on both ends of every message), so the replay loop runs a
 * dense kind-switch with no variant access and no string or hash
 * work. Structural *completeness* (every send matched, every
 * collective reached by all ranks) is deliberately not enforced here:
 * an endpoint without a partner gets no message slot, so an
 * incomplete trace compiles fine and the replay engine still reports
 * the deadlock with its usual per-rank diagnosis.
 *
 * Programs are immutable after compilation and freely shared: study
 * campaigns hold one std::shared_ptr<const ReplayProgram> per trace
 * variant (variants that compare equal share one) and replay it from
 * many sweep lanes concurrently.
 */

#ifndef OVLSIM_SIM_PROGRAM_HH
#define OVLSIM_SIM_PROGRAM_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "trace/record.hh"
#include "trace/trace.hh"
#include "util/types.hh"

namespace ovlsim::sim {

/** "No request register" marker in packed ops. */
inline constexpr std::uint32_t noRegister = 0xFFFFFFFFu;

/** "No message slot" marker: a point-to-point op without a partner. */
inline constexpr std::uint32_t noSlot = 0xFFFFFFFFu;

/**
 * One packed operand slot, 24 bytes. Interpretation by op kind
 * (kinds reuse trace::RecordKind, one byte in the parallel kind
 * stream):
 *
 *   burst       a = instruction count
 *   send/isend  a = channel key (this rank -> dst), b = bytes,
 *               c = request register (noRegister for send),
 *               d = message slot shared with the paired receive
 *               (noSlot if none)
 *   recv/irecv  a = channel key (src -> this rank), b = bytes,
 *               c = request register (noRegister for recv),
 *               d = message slot shared with the paired send
 *               (noSlot if none)
 *   wait        c = request register, d = wait side-table index
 *               (original request id, decode only)
 *   waitAll     (no operands)
 *   collective  a = send bytes (this rank), b = recv bytes (this
 *               rank), c = collective table index, d = root rank
 *
 * The per-rank byte counts of collective ops are decode-only; the
 * engine charges costs from the cross-rank-maxed CollectiveSpec.
 * The message and request ids of point-to-point ops sit in the p2p
 * side table in program order (rank r's k-th point-to-point op at
 * p2pBegin(r) + k), so a packed op needs no index into it.
 */
struct PackedOp
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint32_t c = 0;
    std::uint32_t d = 0;

    bool operator==(const PackedOp &) const = default;
};

static_assert(sizeof(PackedOp) == 24);

/**
 * One collective of the program, shared by all ranks. Byte counts
 * are the maximum over every participating rank's record — exactly
 * the values the engine's running max used to converge to when the
 * last rank arrived, now resolved at compile time. `root` is the
 * first participating rank's root (per-rank roots stay in the op
 * stream for decoding; the analytic cost model ignores the root
 * entirely, and the algorithmic model rejects replays whose ranks
 * disagree on it).
 */
struct CollectiveSpec
{
    trace::CollOp op = trace::CollOp::barrier;
    Bytes sendBytes = 0;
    Bytes recvBytes = 0;
    Rank root = 0;

    bool operator==(const CollectiveSpec &) const = default;
};

/** Cold per-p2p-op identifiers (timeline capture and decoding). */
struct P2pMeta
{
    trace::MessageId message = trace::invalidMessageId;
    /** Original trace request id; 0 for blocking ops. */
    trace::RequestId request = 0;

    bool operator==(const P2pMeta &) const = default;
};

/**
 * An immutable compiled trace set. Construction goes through
 * compileTrace()/compileShared(); replay goes through
 * ReplaySession::run(const ReplayProgram &, ...) or the simulate()
 * overload. One program may be replayed from many threads at once.
 */
class ReplayProgram
{
  public:
    ReplayProgram() = default;

    const std::string &name() const { return name_; }
    double mips() const { return mips_; }

    int
    ranks() const
    {
        // A default-constructed (never-compiled) program has no
        // offset table yet; report zero ranks so replaying it
        // yields an empty result instead of underflowing.
        return rankBegin_.empty()
                   ? 0
                   : static_cast<int>(rankBegin_.size()) - 1;
    }

    /** Total ops over all ranks (== source totalRecords()). */
    std::size_t totalOps() const { return kinds_.size(); }

    /** Total point-to-point sends; sizes the transfer arena. */
    std::size_t totalSends() const { return totalSends_; }

    /** Paired messages; sizes the engine's per-replay slot table. */
    std::uint32_t messageSlots() const { return messageSlots_; }

    /** Number of ops in rank `r`'s stream. */
    std::size_t
    opCount(Rank r) const
    {
        const auto i = static_cast<std::size_t>(r);
        return rankBegin_[i + 1] - rankBegin_[i];
    }

    /** Rank `r`'s window of the shared kind stream. */
    const std::uint8_t *
    kindsOf(Rank r) const
    {
        return kinds_.data() +
            rankBegin_[static_cast<std::size_t>(r)];
    }

    /** Rank `r`'s window of the shared operand stream. */
    const PackedOp *
    opsOf(Rank r) const
    {
        return ops_.data() + rankBegin_[static_cast<std::size_t>(r)];
    }

    /** Request registers rank `r` needs (its table size). */
    std::uint32_t
    registerCount(Rank r) const
    {
        return rankRegs_[static_cast<std::size_t>(r)];
    }

    std::span<const CollectiveSpec>
    collectives() const
    {
        return collectives_;
    }

    /** Side-table index of rank `r`'s first point-to-point op. */
    std::uint32_t
    p2pBegin(Rank r) const
    {
        return rankP2p_[static_cast<std::size_t>(r)];
    }

    const P2pMeta &
    p2pMeta(std::uint32_t index) const
    {
        return p2p_[index];
    }

    /** Heap footprint of the compiled streams (cache accounting).
     * Message slots ride in the point-to-point ops' `d` operands. */
    std::size_t
    memoryBytes() const
    {
        return kinds_.size() * sizeof(std::uint8_t) +
            ops_.size() * sizeof(PackedOp) +
            (rankBegin_.size() + rankRegs_.size() + rankP2p_.size()) *
                sizeof(std::uint32_t) +
            collectives_.size() * sizeof(CollectiveSpec) +
            p2p_.size() * sizeof(P2pMeta) +
            waitReqs_.size() * sizeof(trace::RequestId);
    }

    /**
     * Reconstruct the whole source trace set (name, MIPS rate and
     * every record of every rank). compile -> decode is lossless;
     * the round-trip test pins this.
     */
    trace::TraceSet decode() const;

    /**
     * Equal in every member but the name, which only decode()
     * reads: equal programs replay to the same result on any
     * platform, so a campaign replays one for both. Two compiles of
     * the same trace set are equal, whatever they are named. A
     * member added to the class must join the tie below, or
     * programs that replay differently would share one replay.
     */
    bool
    operator==(const ReplayProgram &other) const
    {
        const auto replayed = [](const ReplayProgram &p) {
            return std::tie(p.mips_, p.kinds_, p.ops_, p.rankBegin_,
                            p.rankRegs_, p.rankP2p_, p.collectives_,
                            p.p2p_, p.waitReqs_, p.totalSends_,
                            p.messageSlots_);
        };
        return replayed(*this) == replayed(other);
    }

  private:
    friend ReplayProgram compileTrace(const trace::TraceSet &traces);

    /** Decode the op at stream position `at`; `p2p` is its side-table
     * index if it is a point-to-point op. */
    trace::Record decodeAt(std::size_t at, std::uint32_t p2p) const;

    std::string name_;
    double mips_ = 1000.0;

    /** Shared streams; rank r owns [rankBegin_[r], rankBegin_[r+1]). */
    std::vector<std::uint8_t> kinds_;
    std::vector<PackedOp> ops_;
    std::vector<std::uint32_t> rankBegin_;

    /** Request-register table size per rank. */
    std::vector<std::uint32_t> rankRegs_;
    /** First p2p side-table index per rank. */
    std::vector<std::uint32_t> rankP2p_;

    std::vector<CollectiveSpec> collectives_;
    std::vector<P2pMeta> p2p_;
    /** Original request id of each wait op, for decoding. */
    std::vector<trace::RequestId> waitReqs_;

    std::size_t totalSends_ = 0;
    std::uint32_t messageSlots_ = 0;
};

/**
 * Lower `traces` into a ReplayProgram.
 *
 * Throws FatalError on traces the engine cannot replay (wildcard
 * sentinels, peer ranks or tags out of range, collective sequences
 * whose operations disagree between ranks, a request id reposted
 * while still live, a send and its paired receive naming different
 * byte counts) and PanicError on a Wait naming an unknown request,
 * matching the engine's historical error taxonomy. Incomplete traces
 * (unmatched sends/receives, missing collective participants)
 * compile successfully and deadlock at replay with the engine's
 * diagnosis.
 */
ReplayProgram compileTrace(const trace::TraceSet &traces);

/** compileTrace, wrapped for sharing across campaign lanes. */
std::shared_ptr<const ReplayProgram>
compileShared(const trace::TraceSet &traces);

} // namespace ovlsim::sim

#endif // OVLSIM_SIM_PROGRAM_HH
