#include "platform.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/mathutil.hh"

namespace ovlsim::sim {

SimTime
PlatformConfig::burstDuration(Instr instructions,
                              double trace_mips) const
{
    const double mips = effectiveMips(trace_mips);
    ovlAssert(mips > 0.0, "platform MIPS rate must be positive");
    // MIPS = 1e6 instructions per second, i.e. instructions per us.
    return roundNs(static_cast<double>(instructions) * 1e3 / mips);
}

SimTime
PlatformConfig::serializationDelay(Bytes bytes, bool local) const
{
    const double mbps = local ? localBandwidthMBps : bandwidthMBps;
    ovlAssert(mbps > 0.0, "bandwidth must be positive");
    // MB/s = 1e6 bytes per second = 1e-3 bytes per ns.
    return roundNs(static_cast<double>(bytes) * 1e3 / mbps);
}

SimTime
PlatformConfig::flightLatency(bool local) const
{
    return SimTime::fromUs(local ? localLatencyUs : latencyUs);
}

void
PlatformConfig::validate() const
{
    // Written so that NaN fails too: every double must be finite.
    const auto positive = [](const char *key, double v) {
        if (!(v > 0.0) || !std::isfinite(v))
            fatal("platform: ", key, " must be positive and finite, got ", v);
    };
    const auto nonNegative = [](const char *key, double v) {
        if (!(v >= 0.0) || !std::isfinite(v)) {
            fatal("platform: ", key,
                  " must be finite and non-negative, got ", v);
        }
    };
    // A duration reaches SimTime::fromUs, so it must fit the clock.
    const auto duration = [&](const char *key, double v) {
        nonNegative(key, v);
        if (!fitsClockUs(v))
            fatal("platform: ", key, " = ", v,
                  " us does not fit the 64-bit nanosecond clock");
    };
    positive("cpu_ratio", cpuRatio);
    if (cpusPerNode <= 0)
        fatal("platform: cpus_per_node must be positive");
    positive("bandwidth_mbps", bandwidthMBps);
    positive("local_bandwidth_mbps", localBandwidthMBps);
    duration("latency_us", latencyUs);
    duration("local_latency_us", localLatencyUs);
    if (buses < 0 || outLinksPerNode < 0 || inLinksPerNode < 0) {
        fatal("platform: buses, out_links_per_node and "
              "in_links_per_node must be non-negative");
    }
    duration("rendezvous_overhead_us", rendezvousOverheadUs);
    nonNegative("collective_latency_factor", collectives.latencyFactor);
    nonNegative("collective_bandwidth_factor",
                collectives.bandwidthFactor);
    if (collectiveModel == coll::CollectiveModel::algorithmic &&
        (collectives.latencyFactor != 1.0 ||
         collectives.bandwidthFactor != 1.0)) {
        fatal("platform: the algorithmic collective model prices "
              "collectives from their point-to-point schedules; "
              "collective_latency_factor/"
              "collective_bandwidth_factor apply only to the "
              "analytic model (collective_model = analytic)");
    }
    duration("checkpoint_interval_us", checkpointIntervalUs);
    duration("checkpoint_cost_us", checkpointCostUs);
    duration("restart_cost_us", restartCostUs);
    duration("checkpoint_global_interval_us", checkpointGlobalIntervalUs);
    duration("checkpoint_global_cost_us", checkpointGlobalCostUs);
    duration("restart_global_cost_us", restartGlobalCostUs);
    if (checkpointGlobalIntervalUs > 0.0 &&
        checkpointIntervalUs <= 0.0) {
        fatal("platform: checkpoint_global_interval_us requires a "
              "positive checkpoint_interval_us (the global level "
              "rides on the local checkpoint chain)");
    }
    if (restartBudget < 1)
        fatal("platform: restart_budget must be >= 1");
    coll::validateOverrides(collectiveAlgorithms);
    topology.validate();
    scenario.validate();
}

SimTime
collectiveCost(const PlatformConfig &platform, trace::CollOp op,
               int ranks, Bytes send_bytes, Bytes recv_bytes)
{
    using trace::CollOp;

    ovlAssert(ranks > 0, "collective over zero ranks");
    const auto p = static_cast<std::uint64_t>(ranks);
    const double steps = static_cast<double>(log2Ceil(p));
    const double lat_ns =
        platform.flightLatency(false).ns() == 0
            ? 0.0
            : static_cast<double>(
                  platform.flightLatency(false).ns());
    const Bytes bytes = std::max(send_bytes, recv_bytes);
    const double ser_ns = static_cast<double>(
        platform.serializationDelay(bytes, false).ns());

    const double lf = platform.collectives.latencyFactor;
    const double bf = platform.collectives.bandwidthFactor;
    const double pm1 = static_cast<double>(ranks - 1);

    double cost_ns = 0.0;
    switch (op) {
      case CollOp::barrier:
        cost_ns = steps * lat_ns * lf;
        break;
      case CollOp::broadcast:
      case CollOp::reduce:
        cost_ns = steps * (lat_ns * lf + ser_ns * bf);
        break;
      case CollOp::allReduce:
        cost_ns = 2.0 * steps * (lat_ns * lf + ser_ns * bf);
        break;
      case CollOp::gather:
      case CollOp::scatter:
      case CollOp::allGather:
        cost_ns = steps * lat_ns * lf + pm1 * ser_ns * bf;
        break;
      case CollOp::allToAll:
        cost_ns = pm1 * (lat_ns * lf + ser_ns * bf);
        break;
    }
    return roundNs(cost_ns);
}

namespace platforms {

PlatformConfig
defaultCluster(int cpus_per_node)
{
    PlatformConfig cfg;
    cfg.name = "default-cluster";
    cfg.cpusPerNode = cpus_per_node;
    cfg.bandwidthMBps = 256.0;
    cfg.latencyUs = 8.0;
    cfg.buses = 0;
    cfg.outLinksPerNode = 1;
    cfg.inLinksPerNode = 1;
    return cfg;
}

PlatformConfig
contendedCluster(int buses, int cpus_per_node)
{
    PlatformConfig cfg = defaultCluster(cpus_per_node);
    cfg.name = "contended-cluster";
    cfg.buses = buses;
    return cfg;
}

PlatformConfig
rendezvousCluster(Bytes eager_threshold)
{
    PlatformConfig cfg = defaultCluster();
    cfg.name = "rendezvous-cluster";
    cfg.eagerThreshold = eager_threshold;
    return cfg;
}

PlatformConfig
topologyCluster(const net::TopologyConfig &topology,
                int cpus_per_node)
{
    PlatformConfig cfg = defaultCluster(cpus_per_node);
    cfg.name = std::string("cluster-") +
        net::topologyKindName(topology.kind);
    cfg.topology = topology;
    return cfg;
}

PlatformConfig
idealNetwork()
{
    PlatformConfig cfg;
    cfg.name = "ideal-network";
    cfg.bandwidthMBps = 1e9;
    cfg.latencyUs = 0.0;
    cfg.localBandwidthMBps = 1e9;
    cfg.localLatencyUs = 0.0;
    cfg.buses = 0;
    cfg.outLinksPerNode = 0;
    cfg.inLinksPerNode = 0;
    return cfg;
}

} // namespace platforms

} // namespace ovlsim::sim
