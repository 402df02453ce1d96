/**
 * @file
 * Overlap metadata recorded by the tracing tool.
 *
 * For every point-to-point message the tracer measures, at a fixed
 * block granularity, *when* (in absolute instructions on the owning
 * rank's timeline) each block of the payload was last stored before
 * the send (production) and first loaded after the receive
 * (consumption). The overlap transformation later aggregates blocks
 * into chunks and injects partial transfers at these instants — this
 * is precisely the information the paper's Valgrind tool extracts by
 * tracking memory loads and stores.
 */

#ifndef OVLSIM_TRACE_OVERLAP_INFO_HH
#define OVLSIM_TRACE_OVERLAP_INFO_HH

#include <cstddef>
#include <map>
#include <vector>

#include "trace/record.hh"
#include "util/types.hh"

namespace ovlsim::trace {

/**
 * Production/consumption profile of one application message.
 *
 * Instruction positions are absolute on the owning rank's
 * computation-instruction timeline (the running sum of CpuBurst
 * lengths at the point of interest).
 */
struct MessageOverlapInfo
{
    MessageId id = invalidMessageId;
    Rank src = 0;
    Rank dst = 0;
    Tag tag = 0;
    Bytes bytes = 0;

    /** Absolute instr position of the Send record on the sender. */
    Instr sendInstr = 0;
    /** Absolute instr position of the Recv record on the receiver. */
    Instr recvInstr = 0;

    /**
     * Earliest instr at which partial sends may be injected: the
     * position of the previous blocking MPI record on the sender.
     */
    Instr prodWindowBegin = 0;
    /**
     * Latest instr at which partial waits may be placed: the position
     * of the next blocking MPI record on the receiver.
     */
    Instr consWindowEnd = 0;

    /** Payload bytes covered by one profile block. */
    Bytes blockBytes = 0;

    /**
     * Per block, absolute instr of the last store before the send.
     * Blocks never stored inside the window report prodWindowBegin
     * (the data was ready when the window opened).
     */
    std::vector<Instr> blockLastStore;

    /**
     * Per block, absolute instr of the first load after the recv.
     * Blocks never loaded report consWindowEnd (their wait can be
     * deferred to the end of the window).
     */
    std::vector<Instr> blockFirstLoad;

    /** Number of profile blocks. */
    std::size_t blocks() const { return blockLastStore.size(); }
};

/**
 * All per-message overlap profiles of one traced run, keyed by
 * MessageId.
 */
class OverlapSet
{
  public:
    /** Insert a profile; the id must be fresh. */
    void add(MessageOverlapInfo info);

    /** True if a profile exists for the message. */
    bool contains(MessageId id) const { return infos_.count(id) > 0; }

    /** Profile for a message; throws PanicError if missing. */
    const MessageOverlapInfo &get(MessageId id) const;

    std::size_t size() const { return infos_.size(); }

    const std::map<MessageId, MessageOverlapInfo> &
    all() const
    {
        return infos_;
    }

  private:
    std::map<MessageId, MessageOverlapInfo> infos_;
};

} // namespace ovlsim::trace

#endif // OVLSIM_TRACE_OVERLAP_INFO_HH
