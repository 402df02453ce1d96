/**
 * @file
 * Always-cheap engine and cache observability counters.
 *
 * EngineStats is a fixed slab of plain integers filled by single
 * increments on paths the replay engine already executes — no
 * atomics, no branches beyond what a compare for a high-water mark
 * costs — so counters stay on in every build, including the
 * benchmarked Release configuration. One replay fills one instance
 * (the engine is single-threaded per session); the result is copied
 * into sim::SimResult::stats at the end of run() and merged per
 * campaign row by the campaign drivers. Like eventsProcessed, the
 * counters are monotone across checkpoint rollbacks: rolled-back
 * events were still simulated work, so a restarted replay reports
 * the work it actually performed, not the work that survived.
 *
 * Cache counters cover the two compile caches (the per-session
 * net::compileTopology cache, the process-wide coll::compileSchedule
 * cache). They are shared across sweep lanes, hence atomic;
 * cacheReport() snapshots both for reports and tests.
 */

#ifndef OVLSIM_OBS_STATS_HH
#define OVLSIM_OBS_STATS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ovlsim::obs {

/** Fixed-slot per-replay counters (see file comment). */
struct EngineStats
{
    /** Events pushed onto the engine's event heap; a checkpoint
     * restore counts one push per event of the restored heap. */
    std::uint64_t heapPushes = 0;
    /** Events popped off the heap. Equal to heapPushes once a
     * replay drains; the pair pins the invariant cheaply. */
    std::uint64_t heapPops = 0;
    /** Message-slot probes, one per posted send or receive. */
    std::uint64_t channelProbes = 0;
    /** Flat-bus wait-list entries visited by admission scans: one
     * per queued transfer tried (however many of the scanned lists
     * hold it) plus one per already-started entry unlinked. */
    std::uint64_t queueScanSteps = 0;
    /** Scenario entries flat-bus pricing read: per remote transfer
     * or background flow, the live entries plus the pending events
     * visited, once for degrades and once for stalls. */
    std::uint64_t scenarioScanSteps = 0;
    /** Peak size of the transfer arena (exact-reserve check). */
    std::uint64_t arenaHighWater = 0;
    /** LinkNetwork bottleneck walks (a flow's rate re-derived over
     * its hops): one per admission, the admitted flow's own; one per
     * flow a completion or cancel collects (its rate equalled a
     * freed link's share before the leave, and it does not finish at
     * that instant); one per distinct flow on a rescaled link that
     * does not finish at that instant; every flow on a reroute. */
    std::uint64_t rateRecomputes = 0;
    /** LinkNetwork occupant-list visits that needed no walk: each
     * occupant of a link an admission burst lowered, once per burst,
     * when the burst's deferred mins are taken; a removal's or
     * rescale's visits of flows bottlenecked elsewhere or finishing
     * at that instant (bytes done, finish event due); and repeat
     * visits of a flow already collected. An admission's own hops
     * and a reroute's walks visit no list, so with rateRecomputes
     * this is the network's walks plus list visits, not its list
     * visits alone. */
    std::uint64_t recomputesSkipped = 0;
    /** Finish re-arms actually scheduled after a rate change. */
    std::uint64_t rearmsTaken = 0;
    /** Walked flows on a completion/cancel/rescale/reroute that
     * needed no earlier finish event (unchanged or later finish). */
    std::uint64_t rearmsSkipped = 0;
    /** Scenario events applied (degrades, stalls, failures, ...). */
    std::uint64_t scenarioEvents = 0;
    /** Collective schedule steps retired (algorithmic model). */
    std::uint64_t collSteps = 0;
    /** Simulated time re-executed or paid as restart cost across
     * all rollbacks (sum of restore deltas), in nanoseconds. */
    std::uint64_t rollbackReworkNs = 0;
    /** Bytes of engine state copied into checkpoint images (the
     * t = 0 image included) plus bytes copied back out on restore. */
    std::uint64_t snapshotBytes = 0;

    bool operator==(const EngineStats &) const = default;

    /**
     * Fold another replay's stats into this one (campaign-row
     * aggregation): counters add, the high-water mark takes the
     * max. Commutative and associative, so campaign aggregates are
     * independent of point order and thread count.
     */
    EngineStats &
    merge(const EngineStats &o)
    {
        heapPushes += o.heapPushes;
        heapPops += o.heapPops;
        channelProbes += o.channelProbes;
        queueScanSteps += o.queueScanSteps;
        scenarioScanSteps += o.scenarioScanSteps;
        if (o.arenaHighWater > arenaHighWater)
            arenaHighWater = o.arenaHighWater;
        rateRecomputes += o.rateRecomputes;
        recomputesSkipped += o.recomputesSkipped;
        rearmsTaken += o.rearmsTaken;
        rearmsSkipped += o.rearmsSkipped;
        scenarioEvents += o.scenarioEvents;
        collSteps += o.collSteps;
        rollbackReworkNs += o.rollbackReworkNs;
        snapshotBytes += o.snapshotBytes;
        return *this;
    }

    /** One-line "key=value ..." rendering for logs and reports. */
    std::string toString() const;
};

/**
 * Shared hit/miss/size/bytes counters of one process-wide compile
 * cache. Entries and bytes track the live cache content; hits and
 * misses are monotone totals. All atomics are relaxed: the values
 * are statistics, not synchronization.
 */
struct CacheCounters
{
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::uint64_t> bytes{0};

    void
    recordHit()
    {
        hits.fetch_add(1, std::memory_order_relaxed);
    }

    void
    recordMiss()
    {
        misses.fetch_add(1, std::memory_order_relaxed);
    }

    /** A new entry of `entry_bytes` went live in the cache. */
    void
    recordInsert(std::uint64_t entry_bytes)
    {
        entries.fetch_add(1, std::memory_order_relaxed);
        bytes.fetch_add(entry_bytes, std::memory_order_relaxed);
    }

    /** A live entry of `entry_bytes` left the cache (replaced or
     * dropped with its owner). */
    void
    recordEvict(std::uint64_t entry_bytes)
    {
        entries.fetch_sub(1, std::memory_order_relaxed);
        bytes.fetch_sub(entry_bytes, std::memory_order_relaxed);
    }

    /** The cache was emptied (clear hook); totals stay. */
    void
    recordClear()
    {
        entries.store(0, std::memory_order_relaxed);
        bytes.store(0, std::memory_order_relaxed);
    }
};

/** net::compileTopology per-session cache: every topology a live
 * session compiled (links and routing tables, O(links)), one per
 * (description, node count), evicted when the session dies. */
CacheCounters &topologyCache();

/** coll::compileSchedule process-wide schedule cache. */
CacheCounters &scheduleCache();

/** Plain snapshot of one cache's counters. */
struct CacheReportRow
{
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;

    /** Hit fraction in [0, 1]; 0 when the cache was never asked. */
    double
    hitRate() const
    {
        const std::uint64_t asked = hits + misses;
        return asked == 0
            ? 0.0
            : static_cast<double>(hits) /
                static_cast<double>(asked);
    }
};

/** Snapshot both compile caches, one row each, named "topology"
 * and "schedule"; look rows up by name. */
std::vector<CacheReportRow> cacheReport();

/** Multi-line rendering of cacheReport() for reports. */
std::string cacheReportString();

/** Zero every cache counter (tests; not thread-safe vs. sweeps). */
void resetCacheStats();

} // namespace ovlsim::obs

#endif // OVLSIM_OBS_STATS_HH
