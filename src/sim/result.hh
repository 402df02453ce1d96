/**
 * @file
 * Replay results: application time and per-rank breakdowns.
 */

#ifndef OVLSIM_SIM_RESULT_HH
#define OVLSIM_SIM_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/stats.hh"
#include "sim/timeline.hh"
#include "util/types.hh"

namespace ovlsim::sim {

/** Where one rank's simulated time went. */
struct RankResult
{
    Rank rank = 0;
    /** Instant the rank finished its trace. */
    SimTime endTime;
    SimTime computeTime;
    SimTime sendBlockedTime;
    SimTime recvBlockedTime;
    SimTime waitBlockedTime;
    SimTime collectiveTime;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
    Bytes bytesSent = 0;

    /** Everything that is not computation. */
    SimTime
    blockedTime() const
    {
        return sendBlockedTime + recvBlockedTime + waitBlockedTime +
            collectiveTime;
    }
};

/** Outcome of replaying one trace set on one platform. */
struct SimResult
{
    /** Application completion time (max over ranks). */
    SimTime totalTime;
    std::vector<RankResult> perRank;
    std::uint64_t eventsProcessed = 0;
    std::uint64_t transfers = 0;
    /**
     * Coordinated checkpoints taken and fail-stop rollbacks
     * survived (resilience seam, src/res/); both zero unless the
     * platform enables checkpointing.
     */
    std::uint64_t checkpoints = 0;
    std::uint64_t restarts = 0;
    /** Populated only when the platform enables timeline capture. */
    Timeline timeline;
    /** Always-on engine counters for this run (src/obs/). */
    obs::EngineStats stats;

    /** Mean fraction of rank time spent computing, in [0, 1]. */
    double computeFraction() const;

    /** Mean fraction of rank time spent blocked on communication. */
    double commFraction() const;

    /** Multi-line summary for reports. */
    std::string toString() const;
};

} // namespace ovlsim::sim

#endif // OVLSIM_SIM_RESULT_HH
