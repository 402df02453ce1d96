#include "platform_file.hh"

#include <fstream>
#include <sstream>

#include "coll/coll.hh"
#include "net/topology.hh"
#include "res/fault_model.hh"
#include "scen/scenario.hh"
#include "util/keyvalue.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::sim {

namespace {

/** Key prefix of the per-op collective algorithm pins. */
const std::string collAlgoPrefix = "collective_algorithm_";

/**
 * Parse one `collective_algorithm_<op> = <algorithm>` pin. Unknown
 * op names, unknown algorithm names and algorithms that cannot
 * lower the op all fail here with the full list of valid values,
 * mirroring the topology-key error style.
 */
void
parseCollectiveAlgorithm(PlatformConfig &config,
                         const KeyValueReader &reader)
{
    const std::string op_name =
        reader.key().substr(collAlgoPrefix.size());
    trace::CollOp op;
    try {
        op = trace::collOpFromName(op_name);
    } catch (const FatalError &) {
        reader.fail("unknown collective op '", op_name,
                    "' in key '", reader.key(),
                    "' (expected one of: barrier broadcast reduce "
                    "allreduce gather allgather scatter alltoall)");
    }
    const coll::Algorithm algorithm =
        coll::algorithmFromName(reader.value());
    if (!coll::algorithmSupports(op, algorithm)) {
        reader.fail("algorithm '", reader.value(),
                    "' cannot lower ", trace::collOpName(op),
                    " collectives");
    }
    config.collectiveAlgorithms.set(op, algorithm);
}

/** An integer of the current key narrowed by checkedInt; an
 * out-of-range value fails with the file, line and key. */
int
intOf(const KeyValueReader &reader, std::int64_t value)
{
    try {
        return checkedInt(value);
    } catch (const FatalError &err) {
        reader.fail("key '", reader.key(), "': ", err.what());
    }
}

/** Parse torus dimensions of the form "4x4x2". */
std::vector<int>
parseTorusDims(const KeyValueReader &reader)
{
    std::vector<int> dims;
    for (const auto &field : split(reader.value(), 'x')) {
        const int dim = intOf(reader, parseInt(trim(field)));
        if (dim < 1) {
            reader.fail("torus dimensions must be positive, got '",
                        reader.value(), "'");
        }
        dims.push_back(dim);
    }
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
    // The shared reader owns the surface robustness: comment/blank
    // skipping, malformed-line and duplicate-key rejection, and
    // domain-checked numerics, all with file + line in the error.
    KeyValueReader reader(is, source);

    while (reader.next()) {
        const std::string &key = reader.key();
        const std::string &value = reader.value();

        if (key == "name") {
            config.name = value;
        } else if (key == "mips") {
            // Zero means "use the trace's recorded rate".
            config.mipsOverride =
                reader.nonNegativeDouble();
        } else if (key == "cpu_ratio") {
            config.cpuRatio =
                reader.positiveDouble();
        } else if (key == "cpus_per_node") {
            config.cpusPerNode =
                intOf(reader, reader.nonNegativeInt());
        } else if (key == "bandwidth_mbps") {
            config.bandwidthMBps =
                reader.positiveDouble();
        } else if (key == "latency_us") {
            config.latencyUs =
                reader.nonNegativeDouble();
        } else if (key == "local_bandwidth_mbps") {
            config.localBandwidthMBps =
                reader.positiveDouble();
        } else if (key == "local_latency_us") {
            config.localLatencyUs =
                reader.nonNegativeDouble();
        } else if (key == "buses") {
            config.buses =
                intOf(reader, reader.nonNegativeInt());
        } else if (key == "out_links_per_node") {
            config.outLinksPerNode =
                intOf(reader, reader.nonNegativeInt());
        } else if (key == "in_links_per_node") {
            config.inLinksPerNode =
                intOf(reader, reader.nonNegativeInt());
        } else if (key == "eager_threshold") {
            config.eagerThreshold = static_cast<Bytes>(
                reader.nonNegativeInt());
        } else if (key == "force_eager_isend") {
            config.forceEagerIsend = parseBool(value);
        } else if (key == "rendezvous_overhead_us") {
            config.rendezvousOverheadUs =
                reader.nonNegativeDouble();
        } else if (key == "collective_latency_factor") {
            config.collectives.latencyFactor =
                reader.nonNegativeDouble();
        } else if (key == "collective_bandwidth_factor") {
            config.collectives.bandwidthFactor =
                reader.nonNegativeDouble();
        } else if (key == "collective_model") {
            // Unknown names fail here with the valid models.
            config.collectiveModel =
                coll::collectiveModelFromName(value);
        } else if (key.rfind(collAlgoPrefix, 0) == 0) {
            parseCollectiveAlgorithm(config, reader);
        } else if (key == "topology") {
            // Unknown names fail here with the full list of kinds.
            config.topology.kind =
                net::topologyKindFromName(value);
        } else if (key == "fat_tree_radix") {
            config.topology.fatTreeRadix =
                intOf(reader, reader.nonNegativeInt());
        } else if (key == "fat_tree_taper") {
            config.topology.fatTreeTaper =
                reader.nonNegativeDouble();
        } else if (key == "torus_dims") {
            config.topology.torusDims =
                parseTorusDims(reader);
        } else if (key == "torus_wrap") {
            config.topology.torusWrap = parseBool(value);
        } else if (key == "dragonfly_groups") {
            config.topology.dragonflyGroups =
                intOf(reader, reader.integer());
        } else if (key == "dragonfly_routers_per_group") {
            config.topology.dragonflyRoutersPerGroup =
                intOf(reader, reader.integer());
        } else if (key == "dragonfly_nodes_per_router") {
            config.topology.dragonflyNodesPerRouter =
                intOf(reader, reader.integer());
        } else if (key == "link_bandwidth_mbps") {
            // Inheriting the platform bandwidth is spelled by
            // omitting the key, so an explicit zero is nonsense.
            const double mbps = reader.finiteDouble();
            if (mbps <= 0.0) {
                reader.fail(
                    "link_bandwidth_mbps must be positive "
                    "(omit the key to inherit bandwidth_mbps)");
            }
            config.topology.linkBandwidthMBps = mbps;
        } else if (key == "hop_latency_us") {
            config.topology.hopLatencyUs =
                reader.nonNegativeDouble();
        } else if (key == "scenario_file") {
            if (reader.seenLine("fault_model_file") != 0) {
                reader.fail(
                    "scenario_file and fault_model_file are "
                    "mutually exclusive (both define the "
                    "scenario)");
            }
            // The scenario parser names the referenced file in its
            // own errors; point at the referencing line too so a
            // bad path is traceable from the platform side.
            try {
                config.scenario = scen::readScenarioFile(value);
            } catch (const FatalError &err) {
                reader.fail(err.what());
            }
        } else if (key == "fault_model_file") {
            if (reader.seenLine("scenario_file") != 0) {
                reader.fail(
                    "scenario_file and fault_model_file are "
                    "mutually exclusive (both define the "
                    "scenario)");
            }
            // Expand the stochastic model into a concrete scenario
            // right here, with the model's own seed and horizon:
            // the engine only ever sees an ordinary event list.
            try {
                config.scenario = res::generateScenario(
                    res::readFaultModelFile(value));
            } catch (const FatalError &err) {
                reader.fail(err.what());
            }
            config.faultModelFile = value;
        } else if (key == "checkpoint_interval_us") {
            config.checkpointIntervalUs =
                reader.nonNegativeDouble();
        } else if (key == "checkpoint_cost_us") {
            config.checkpointCostUs =
                reader.nonNegativeDouble();
        } else if (key == "restart_cost_us") {
            config.restartCostUs =
                reader.nonNegativeDouble();
        } else if (key == "checkpoint_global_interval_us") {
            config.checkpointGlobalIntervalUs =
                reader.nonNegativeDouble();
        } else if (key == "checkpoint_global_cost_us") {
            config.checkpointGlobalCostUs =
                reader.nonNegativeDouble();
        } else if (key == "restart_global_cost_us") {
            config.restartGlobalCostUs =
                reader.nonNegativeDouble();
        } else if (key == "restart_budget") {
            const std::int64_t budget =
                reader.nonNegativeInt();
            if (budget < 1) {
                reader.fail(
                    "key 'restart_budget' must be >= 1, got '",
                    value, "'");
            }
            config.restartBudget =
                static_cast<std::uint64_t>(budget);
        } else {
            reader.fail("unknown key '", key, "'");
        }
    }
    config.validate();
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
