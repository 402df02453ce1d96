/**
 * @file
 * Reconstructed time-behaviour of a replayed run.
 *
 * The timeline is the simulator's equivalent of the Paraver trace in
 * the paper's environment: per-rank state intervals plus one record
 * per message transfer, sufficient to draw Gantt charts and
 * communication lines and to compare the non-overlapped and
 * overlapped executions qualitatively.
 *
 * Each rank's intervals live in one vector in append order; a
 * rollback cut erases that vector's tail. Capture is opt-in
 * (PlatformConfig::captureTimeline) and no campaign turns it on.
 */

#ifndef OVLSIM_SIM_TIMELINE_HH
#define OVLSIM_SIM_TIMELINE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.hh"
#include "util/types.hh"

namespace ovlsim::sim {

/** What a rank is doing during an interval. */
enum class RankState : std::uint8_t {
    compute,
    sendBlocked,
    recvBlocked,
    waitBlocked,
    collective,
    idle,
    /** Rolling back to a checkpoint and paying the restart cost
     * (resilience seam, src/res/); everything recorded before such
     * an interval since the checkpoint cut is wasted work. */
    restart,
};

/** Number of RankState values (sizing per-state accumulators). */
constexpr std::size_t rankStateCount = 7;

/** Short display name for a state ("comp", "sendb", ...). */
const char *rankStateName(RankState state);

/** Single-character code used by the ASCII Gantt renderer. */
char rankStateCode(RankState state);

/** One state interval on one rank. */
struct StateInterval
{
    SimTime begin;
    SimTime end;
    RankState state = RankState::idle;
};

/**
 * Machine-wide instant marker: a coordinated checkpoint committed
 * at `at` (the instant the written image is consistent). Rollbacks
 * need no marker of their own — they appear as RankState::restart
 * intervals on every surviving rank.
 */
struct CheckpointMark
{
    SimTime at;
    /** True for the global level of two-level checkpointing. */
    bool global = false;
};

/** Lifetime of one simulated message transfer. */
struct CommEvent
{
    trace::MessageId message = trace::invalidMessageId;
    Rank src = 0;
    Rank dst = 0;
    Tag tag = 0;
    Bytes bytes = 0;
    /** When the sender posted the operation. */
    SimTime sendPost;
    /** When the payload started moving (resources acquired). */
    SimTime transferStart;
    /** When the payload fully arrived at the receiver. */
    SimTime arrival;
    /** When the receiving operation completed. */
    SimTime recvComplete;
};

/** Full reconstructed behaviour of one replay. */
class Timeline
{
  public:
    Timeline() = default;
    explicit Timeline(int ranks)
        : perRank_(static_cast<std::size_t>(ranks))
    {}

    int ranks() const { return static_cast<int>(perRank_.size()); }

    /**
     * Append an interval; merges with the previous if contiguous
     * and of equal state. Intervals on one rank never overlap: a
     * begin before the recorded tail is clamped forward to it (an
     * interval whose span was already claimed — e.g. a blocked
     * window straddling a rollback cut — contributes only its
     * unclaimed remainder).
     */
    void addInterval(Rank r, SimTime begin, SimTime end,
                     RankState state);

    /**
     * Drop everything recorded at or after `cut` and clip intervals
     * straddling it (rollback splice, src/res/): intervals recorded
     * ahead of time — compute bursts — shrink to the part the
     * machine actually executed before the failure. Recorded
     * history before the cut stays; the engine then appends the
     * restart interval and records the replayed tail after it.
     */
    void truncateAt(SimTime cut);

    void addComm(CommEvent event) { comms_.push_back(event); }

    /** Record a committed coordinated checkpoint. Marks are
     * machine-wide (the freeze stops every rank) and survive
     * rollbacks: a checkpoint that was taken stays history. */
    void
    addCheckpoint(SimTime at, bool global)
    {
        checkpoints_.push_back(CheckpointMark{at, global});
    }

    /** Rank r's intervals in append order (begins never decrease).
     * Valid until the timeline is next modified. */
    std::span<const StateInterval> intervals(Rank r) const;

    const std::vector<CommEvent> &comms() const { return comms_; }

    const std::vector<CheckpointMark> &
    checkpoints() const
    {
        return checkpoints_;
    }

    /** Latest interval end across all ranks. */
    SimTime span() const;

    /** Total time rank r spent in a state. */
    SimTime timeInState(Rank r, RankState state) const;

  private:
    std::vector<std::vector<StateInterval>> perRank_;
    std::vector<CommEvent> comms_;
    std::vector<CheckpointMark> checkpoints_;
};

} // namespace ovlsim::sim

#endif // OVLSIM_SIM_TIMELINE_HH
