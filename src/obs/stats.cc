#include "obs/stats.hh"

#include "util/strings.hh"

namespace ovlsim::obs {

std::string
EngineStats::toString() const
{
    return strformat(
        "heap=%llu/%llu probes=%llu queue_scan=%llu scen_scan=%llu "
        "arena_hw=%llu recompute=%llu/%llu rearm=%llu/%llu scen=%llu "
        "coll_steps=%llu rework_ns=%llu snapshot_bytes=%llu",
        static_cast<unsigned long long>(heapPushes),
        static_cast<unsigned long long>(heapPops),
        static_cast<unsigned long long>(channelProbes),
        static_cast<unsigned long long>(queueScanSteps),
        static_cast<unsigned long long>(scenarioScanSteps),
        static_cast<unsigned long long>(arenaHighWater),
        static_cast<unsigned long long>(rateRecomputes),
        static_cast<unsigned long long>(recomputesSkipped),
        static_cast<unsigned long long>(rearmsTaken),
        static_cast<unsigned long long>(rearmsSkipped),
        static_cast<unsigned long long>(scenarioEvents),
        static_cast<unsigned long long>(collSteps),
        static_cast<unsigned long long>(rollbackReworkNs),
        static_cast<unsigned long long>(snapshotBytes));
}

namespace {

CacheCounters topologyCounters;
CacheCounters scheduleCounters;

CacheReportRow
snapshotRow(const char *name, const CacheCounters &c)
{
    CacheReportRow row;
    row.name = name;
    row.hits = c.hits.load(std::memory_order_relaxed);
    row.misses = c.misses.load(std::memory_order_relaxed);
    row.entries = c.entries.load(std::memory_order_relaxed);
    row.bytes = c.bytes.load(std::memory_order_relaxed);
    return row;
}

void
zero(CacheCounters &c)
{
    c.hits.store(0, std::memory_order_relaxed);
    c.misses.store(0, std::memory_order_relaxed);
    c.entries.store(0, std::memory_order_relaxed);
    c.bytes.store(0, std::memory_order_relaxed);
}

} // namespace

CacheCounters &
topologyCache()
{
    return topologyCounters;
}

CacheCounters &
scheduleCache()
{
    return scheduleCounters;
}

std::vector<CacheReportRow>
cacheReport()
{
    return {snapshotRow("topology", topologyCounters),
            snapshotRow("schedule", scheduleCounters)};
}

std::string
cacheReportString()
{
    std::string out;
    for (const CacheReportRow &row : cacheReport()) {
        out += strformat(
            "cache %-8s hits %llu misses %llu (%.0f%% hit) "
            "entries %llu bytes %llu\n",
            row.name.c_str(),
            static_cast<unsigned long long>(row.hits),
            static_cast<unsigned long long>(row.misses),
            row.hitRate() * 100.0,
            static_cast<unsigned long long>(row.entries),
            static_cast<unsigned long long>(row.bytes));
    }
    return out;
}

void
resetCacheStats()
{
    zero(topologyCounters);
    zero(scheduleCounters);
}

} // namespace ovlsim::obs
