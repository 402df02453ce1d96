/**
 * @file
 * Trace record model.
 *
 * A trace is, per rank, a sequence of records of two families, exactly
 * as in the paper's Dimemas traces:
 *  - computation records giving the length of a computation burst in
 *    *instructions* (converted to time by the platform's MIPS rate
 *    only at replay), and
 *  - communication records giving the parameters of MPI operations.
 *
 * Point-to-point records carry a `messageId` that links both sides of
 * a transfer and keys the overlap metadata (production/consumption
 * profiles) recorded by the tracing tool.
 */

#ifndef OVLSIM_TRACE_RECORD_HH
#define OVLSIM_TRACE_RECORD_HH

#include <cstdint>
#include <string>
#include <variant>

#include "util/logging.hh"
#include "util/types.hh"

namespace ovlsim::trace {

/** Identifier linking the two endpoints of one application message. */
using MessageId = std::uint64_t;

/** Sentinel for "not yet linked" message ids. */
inline constexpr MessageId invalidMessageId = 0;

/** Request handle for non-blocking operations, unique per rank. */
using RequestId = std::uint64_t;

/**
 * A point-to-point channel (src, dst, tag) packed into one 64-bit
 * key: 17 bits per rank endpoint and 30 bits of tag. Packing keeps
 * channel identity a single integer compare/hash on the engine's
 * matching fast path instead of a lexicographic tuple walk. The
 * packing is exact (no hashing), so distinct channels can never
 * collide; the range limits are asserted (128K ranks, and the tag
 * limit matches the overlap transform's own 1<<30 chunk-tag ceiling).
 */
using ChannelKey = std::uint64_t;

inline constexpr int channelRankBits = 17;
inline constexpr int channelTagBits = 30;

inline ChannelKey
channelKey(Rank src, Rank dst, Tag tag)
{
    ovlAssert(src >= 0 && src < (Rank(1) << channelRankBits),
              "channel src rank out of range: ", src);
    ovlAssert(dst >= 0 && dst < (Rank(1) << channelRankBits),
              "channel dst rank out of range: ", dst);
    ovlAssert(tag >= 0 && tag < (Tag(1) << channelTagBits),
              "channel tag out of range: ", tag);
    return (static_cast<ChannelKey>(src)
            << (channelRankBits + channelTagBits)) |
        (static_cast<ChannelKey>(dst) << channelTagBits) |
        static_cast<ChannelKey>(tag);
}

/**
 * Exact inverses of channelKey's packing. The replay-program
 * compiler stores only the packed key per point-to-point op; these
 * recover the endpoints and tag for replay (node lookups, results)
 * and decoding.
 */
inline constexpr Rank
channelSrcOf(ChannelKey key)
{
    return static_cast<Rank>(key >>
                             (channelRankBits + channelTagBits));
}

inline constexpr Rank
channelDstOf(ChannelKey key)
{
    return static_cast<Rank>(
        (key >> channelTagBits) &
        ((ChannelKey(1) << channelRankBits) - 1));
}

inline constexpr Tag
channelTagOf(ChannelKey key)
{
    return static_cast<Tag>(key &
                            ((ChannelKey(1) << channelTagBits) - 1));
}

/** Collective operations supported by the replay engine. */
enum class CollOp : std::uint8_t {
    barrier,
    broadcast,
    reduce,
    allReduce,
    gather,
    allGather,
    scatter,
    allToAll,
};

/** Name of a collective op, for serialization and reports. */
const char *collOpName(CollOp op);

/** Parse a collective op name; throws FatalError on garbage. */
CollOp collOpFromName(const std::string &name);

/** A computation burst of `instructions` virtual instructions. */
struct CpuBurst
{
    Instr instructions = 0;
};

/** Blocking send of one message. */
struct SendRec
{
    Rank dst = 0;
    Tag tag = 0;
    Bytes bytes = 0;
    MessageId message = invalidMessageId;
};

/** Non-blocking send; completes at Wait/WaitAll on `request`. */
struct ISendRec
{
    Rank dst = 0;
    Tag tag = 0;
    Bytes bytes = 0;
    MessageId message = invalidMessageId;
    RequestId request = 0;
};

/** Blocking receive of one message. */
struct RecvRec
{
    Rank src = 0;
    Tag tag = 0;
    Bytes bytes = 0;
    MessageId message = invalidMessageId;
};

/** Non-blocking receive post; completes at Wait/WaitAll. */
struct IRecvRec
{
    Rank src = 0;
    Tag tag = 0;
    Bytes bytes = 0;
    MessageId message = invalidMessageId;
    RequestId request = 0;
};

/** Wait for a single outstanding request. */
struct WaitRec
{
    RequestId request = 0;
};

/** Wait for all outstanding requests of this rank. */
struct WaitAllRec
{
};

/** Collective over COMM_WORLD. */
struct CollectiveRec
{
    CollOp op = CollOp::barrier;
    Bytes sendBytes = 0;
    Bytes recvBytes = 0;
    Rank root = 0;
};

/** One trace record. */
using Record = std::variant<CpuBurst, SendRec, ISendRec, RecvRec,
                            IRecvRec, WaitRec, WaitAllRec,
                            CollectiveRec>;

/**
 * Dense record discriminator, numerically equal to the Record
 * variant index (static-asserted where both are consumed). The
 * replay-program compiler lowers each record to this one-byte kind
 * plus a packed operand slot.
 */
enum class RecordKind : std::uint8_t {
    burst = 0,
    send = 1,
    isend = 2,
    recv = 3,
    irecv = 4,
    wait = 5,
    waitAll = 6,
    collective = 7,
};

inline RecordKind
recordKind(const Record &rec)
{
    return static_cast<RecordKind>(rec.index());
}

/**
 * True if the record can block the issuing rank (used to delimit the
 * production/consumption windows of the overlap transformation).
 */
bool isBlockingRecord(const Record &rec);

/** One-line human-readable rendering, used by dumps and tests. */
std::string recordToString(const Record &rec);

} // namespace ovlsim::trace

#endif // OVLSIM_TRACE_RECORD_HH
