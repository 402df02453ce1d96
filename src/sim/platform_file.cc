#include "platform_file.hh"

#include <fstream>
#include <sstream>

#include "coll/coll.hh"
#include "net/topology.hh"
#include "res/fault_model.hh"
#include "scen/scenario.hh"
#include "util/line_reader.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::sim {

namespace {

/** Key prefix of the per-op collective algorithm pins. */
const std::string collAlgoPrefix = "collective_algorithm_";

/**
 * Parse one `collective_algorithm_<op> = <algorithm>` pin. Unknown
 * op names, unknown algorithm names and algorithms that cannot
 * lower the op all fail here with the valid values.
 */
void
parseCollectiveAlgorithm(PlatformConfig &config, const std::string &key,
                         const std::string &value)
{
    const trace::CollOp op =
        trace::collOpFromName(key.substr(collAlgoPrefix.size()));
    const coll::Algorithm algorithm = coll::algorithmFromName(value);
    if (!coll::algorithmSupports(op, algorithm)) {
        fatal("algorithm '", value, "' cannot lower ",
              trace::collOpName(op), " collectives");
    }
    config.collectiveAlgorithms.set(op, algorithm);
}

/** Parse torus dimensions of the form "4x4x2". */
std::vector<int>
parseTorusDims(const std::string &value)
{
    std::vector<int> dims;
    for (const auto &field : split(value, 'x'))
        dims.push_back(parseNumber<int>(trim(field), Sign::positive));
    return dims;
}

std::string
torusDimsToString(const std::vector<int> &dims)
{
    std::string text;
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i > 0)
            text += 'x';
        text += strformat("%d", dims[i]);
    }
    return text;
}

} // namespace

PlatformConfig
readPlatformConfig(std::istream &is, const std::string &source)
{
    PlatformConfig config;
    LineReader reader(is, source);
    reader.forEachLine([&] {
        const auto [key, value] = reader.keyValue();
        const auto real = [&value](Sign sign) {
            return parseNumber<double>(value, sign);
        };
        const auto count = [&value] {
            return parseNumber<int>(value, Sign::nonNegative);
        };

        if (key == "name") {
            config.name = value;
        } else if (key == "mips") {
            // Zero means "use the trace's recorded rate".
            config.mipsOverride = real(Sign::nonNegative);
        } else if (key == "cpu_ratio") {
            config.cpuRatio = real(Sign::positive);
        } else if (key == "cpus_per_node") {
            config.cpusPerNode = count();
        } else if (key == "bandwidth_mbps") {
            config.bandwidthMBps = real(Sign::positive);
        } else if (key == "latency_us") {
            config.latencyUs = real(Sign::nonNegative);
        } else if (key == "local_bandwidth_mbps") {
            config.localBandwidthMBps = real(Sign::positive);
        } else if (key == "local_latency_us") {
            config.localLatencyUs = real(Sign::nonNegative);
        } else if (key == "buses") {
            config.buses = count();
        } else if (key == "out_links_per_node") {
            config.outLinksPerNode = count();
        } else if (key == "in_links_per_node") {
            config.inLinksPerNode = count();
        } else if (key == "eager_threshold") {
            config.eagerThreshold = parseNumber<Bytes>(value);
        } else if (key == "force_eager_isend") {
            config.forceEagerIsend = parseBool(value);
        } else if (key == "rendezvous_overhead_us") {
            config.rendezvousOverheadUs = real(Sign::nonNegative);
        } else if (key == "collective_latency_factor") {
            config.collectives.latencyFactor = real(Sign::nonNegative);
        } else if (key == "collective_bandwidth_factor") {
            config.collectives.bandwidthFactor =
                real(Sign::nonNegative);
        } else if (key == "collective_model") {
            config.collectiveModel =
                coll::collectiveModelFromName(value);
        } else if (key.starts_with(collAlgoPrefix)) {
            parseCollectiveAlgorithm(config, key, value);
        } else if (key == "topology") {
            config.topology.kind = net::topologyKindFromName(value);
        } else if (key == "fat_tree_radix") {
            config.topology.fatTreeRadix = count();
        } else if (key == "fat_tree_taper") {
            config.topology.fatTreeTaper = real(Sign::nonNegative);
        } else if (key == "torus_dims") {
            config.topology.torusDims = parseTorusDims(value);
        } else if (key == "torus_wrap") {
            config.topology.torusWrap = parseBool(value);
        } else if (key == "dragonfly_groups") {
            config.topology.dragonflyGroups = parseNumber<int>(value);
        } else if (key == "dragonfly_routers_per_group") {
            config.topology.dragonflyRoutersPerGroup =
                parseNumber<int>(value);
        } else if (key == "dragonfly_nodes_per_router") {
            config.topology.dragonflyNodesPerRouter =
                parseNumber<int>(value);
        } else if (key == "link_bandwidth_mbps") {
            // Inheriting the platform bandwidth is spelled by
            // omitting the key, so an explicit zero is nonsense.
            config.topology.linkBandwidthMBps = real(Sign::positive);
        } else if (key == "hop_latency_us") {
            config.topology.hopLatencyUs = real(Sign::nonNegative);
        } else if (key == "scenario_file" ||
                   key == "fault_model_file") {
            if (reader.seenLine("scenario_file") != 0 &&
                reader.seenLine("fault_model_file") != 0) {
                fatal("scenario_file and fault_model_file are "
                      "mutually exclusive (both define the scenario)");
            }
            if (key == "scenario_file") {
                config.scenario = scen::readScenarioFile(value);
            } else {
                // Expand the stochastic model into a concrete
                // scenario right here, with the model's own seed and
                // horizon: the engine only ever sees an event list.
                config.scenario = res::generateScenario(
                    res::readFaultModelFile(value));
                config.faultModelFile = value;
            }
        } else if (key == "checkpoint_interval_us") {
            config.checkpointIntervalUs = real(Sign::nonNegative);
        } else if (key == "checkpoint_cost_us") {
            config.checkpointCostUs = real(Sign::nonNegative);
        } else if (key == "restart_cost_us") {
            config.restartCostUs = real(Sign::nonNegative);
        } else if (key == "checkpoint_global_interval_us") {
            config.checkpointGlobalIntervalUs = real(Sign::nonNegative);
        } else if (key == "checkpoint_global_cost_us") {
            config.checkpointGlobalCostUs = real(Sign::nonNegative);
        } else if (key == "restart_global_cost_us") {
            config.restartGlobalCostUs = real(Sign::nonNegative);
        } else if (key == "restart_budget") {
            config.restartBudget =
                parseNumber<std::uint64_t>(value, Sign::positive);
        } else {
            fatal("unknown key '", key, "'");
        }
    });
    reader.check([&] { config.validate(); });
    return config;
}

PlatformConfig
readPlatformConfigFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open platform config '", path, "'");
    return readPlatformConfig(is, path);
}

void
writePlatformConfig(const PlatformConfig &config,
                    std::ostream &os)
{
    os << "name = " << config.name << "\n";
    os << "mips = " << strformat("%.17g", config.mipsOverride)
       << "\n";
    os << "cpu_ratio = " << strformat("%.17g", config.cpuRatio)
       << "\n";
    os << "cpus_per_node = " << config.cpusPerNode << "\n";
    os << "bandwidth_mbps = "
       << strformat("%.17g", config.bandwidthMBps) << "\n";
    os << "latency_us = "
       << strformat("%.17g", config.latencyUs) << "\n";
    os << "local_bandwidth_mbps = "
       << strformat("%.17g", config.localBandwidthMBps) << "\n";
    os << "local_latency_us = "
       << strformat("%.17g", config.localLatencyUs) << "\n";
    os << "buses = " << config.buses << "\n";
    os << "out_links_per_node = " << config.outLinksPerNode
       << "\n";
    os << "in_links_per_node = " << config.inLinksPerNode
       << "\n";
    os << "eager_threshold = " << config.eagerThreshold << "\n";
    os << "force_eager_isend = "
       << (config.forceEagerIsend ? "true" : "false") << "\n";
    os << "rendezvous_overhead_us = "
       << strformat("%.17g", config.rendezvousOverheadUs)
       << "\n";
    os << "collective_latency_factor = "
       << strformat("%.17g", config.collectives.latencyFactor)
       << "\n";
    os << "collective_bandwidth_factor = "
       << strformat("%.17g",
                    config.collectives.bandwidthFactor)
       << "\n";
    os << "collective_model = "
       << coll::collectiveModelName(config.collectiveModel)
       << "\n";
    for (std::size_t i = 0; i < coll::collOpCount; ++i) {
        const auto algorithm = config.collectiveAlgorithms.byOp[i];
        if (algorithm == coll::Algorithm::automatic)
            continue;
        os << "collective_algorithm_"
           << trace::collOpName(static_cast<trace::CollOp>(i))
           << " = " << coll::algorithmName(algorithm) << "\n";
    }
    const auto &topo = config.topology;
    os << "topology = " << net::topologyKindName(topo.kind)
       << "\n";
    os << "fat_tree_radix = " << topo.fatTreeRadix << "\n";
    os << "fat_tree_taper = "
       << strformat("%.17g", topo.fatTreeTaper) << "\n";
    if (!topo.torusDims.empty()) {
        os << "torus_dims = " << torusDimsToString(topo.torusDims)
           << "\n";
    }
    os << "torus_wrap = " << (topo.torusWrap ? "true" : "false")
       << "\n";
    os << "dragonfly_groups = " << topo.dragonflyGroups << "\n";
    os << "dragonfly_routers_per_group = "
       << topo.dragonflyRoutersPerGroup << "\n";
    os << "dragonfly_nodes_per_router = "
       << topo.dragonflyNodesPerRouter << "\n";
    if (topo.linkBandwidthMBps > 0.0) {
        os << "link_bandwidth_mbps = "
           << strformat("%.17g", topo.linkBandwidthMBps) << "\n";
    }
    os << "hop_latency_us = "
       << strformat("%.17g", topo.hopLatencyUs) << "\n";
    os << "checkpoint_interval_us = "
       << strformat("%.17g", config.checkpointIntervalUs) << "\n";
    os << "checkpoint_cost_us = "
       << strformat("%.17g", config.checkpointCostUs) << "\n";
    os << "restart_cost_us = "
       << strformat("%.17g", config.restartCostUs) << "\n";
    os << "checkpoint_global_interval_us = "
       << strformat("%.17g", config.checkpointGlobalIntervalUs)
       << "\n";
    os << "checkpoint_global_cost_us = "
       << strformat("%.17g", config.checkpointGlobalCostUs)
       << "\n";
    os << "restart_global_cost_us = "
       << strformat("%.17g", config.restartGlobalCostUs) << "\n";
    os << "restart_budget = " << config.restartBudget << "\n";
    // A scenario only round-trips when it came from a file (or was
    // expanded from a fault model file); emit programmatic configs
    // with writeScenario() first.
    if (!config.faultModelFile.empty()) {
        os << "fault_model_file = " << config.faultModelFile
           << "\n";
    } else if (!config.scenario.sourcePath.empty()) {
        os << "scenario_file = " << config.scenario.sourcePath
           << "\n";
    }
}

void
writePlatformConfigFile(const PlatformConfig &config,
                        const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '", path, "' for writing");
    writePlatformConfig(config, os);
    if (!os)
        fatal("error writing platform config to '", path, "'");
}

} // namespace ovlsim::sim
