#include "workload_file.hh"

#include <fstream>

#include "util/line_reader.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace ovlsim::gen {

WorkloadConfig
readWorkloadConfig(std::istream &is, const std::string &source)
{
    WorkloadConfig config;
    LineReader reader(is, source);
    reader.forEachLine([&] {
        const auto [key, value] = reader.keyValue();
        const auto count = [&value] {
            return parseNumber<int>(value, Sign::nonNegative);
        };
        const auto amount = [&value] {
            return parseNumber<std::uint64_t>(value);
        };
        const auto fraction = [&value] {
            return parseNumber<double>(value, Sign::nonNegative);
        };
        if (key == "kind") {
            config.kind = workloadKindFromName(value);
        } else if (key == "name") {
            config.name = value;
        } else if (key == "ranks") {
            config.ranks = count();
        } else if (key == "iterations") {
            config.iterations = count();
        } else if (key == "mips") {
            config.mips = parseNumber<double>(value, Sign::positive);
        } else if (key == "stencil_dims") {
            config.stencilDims = count();
        } else if (key == "halo_bytes") {
            config.haloBytes = amount();
        } else if (key == "compute_per_iteration") {
            config.computePerIteration = amount();
        } else if (key == "compute_jitter") {
            config.computeJitter = fraction();
        } else if (key == "gradient_bytes") {
            config.gradientBytes = amount();
        } else if (key == "gradient_buckets") {
            config.gradientBuckets = count();
        } else if (key == "step_instr") {
            config.stepInstr = amount();
        } else if (key == "servers") {
            config.servers = count();
        } else if (key == "requests_per_client") {
            config.requestsPerClient = count();
        } else if (key == "request_bytes") {
            config.requestBytes = amount();
        } else if (key == "reply_bytes") {
            config.replyBytes = amount();
        } else if (key == "client_instr") {
            config.clientInstr = amount();
        } else if (key == "server_instr") {
            config.serverInstr = amount();
        } else if (key == "churn_probability") {
            config.churnProbability = fraction();
        } else if (key == "ops_per_round") {
            config.opsPerRound = count();
        } else if (key == "store_fraction") {
            config.storeFraction = fraction();
        } else if (key == "key_bytes") {
            config.keyBytes = amount();
        } else if (key == "value_bytes") {
            config.valueBytes = amount();
        } else if (key == "hop_instr") {
            config.hopInstr = amount();
        } else {
            fatal("unknown key '", key, "'");
        }
    });
    // Cross-field domain checks, each naming the offending key.
    reader.check([&] { config.validate(); });
    return config;
}

WorkloadConfig
readWorkloadConfigFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open workload config file: ", path);
    return readWorkloadConfig(is, path);
}

void
writeWorkloadConfig(const WorkloadConfig &config, std::ostream &os)
{
    // Every family's fields are always written so any valid config
    // survives a write/read round trip bit-exactly.
    os << "kind = " << workloadKindName(config.kind) << "\n";
    os << "name = " << config.name << "\n";
    os << "ranks = " << config.ranks << "\n";
    os << "iterations = " << config.iterations << "\n";
    os << "mips = " << strformat("%.17g", config.mips) << "\n";
    os << "stencil_dims = " << config.stencilDims << "\n";
    os << "halo_bytes = " << config.haloBytes << "\n";
    os << "compute_per_iteration = " << config.computePerIteration
       << "\n";
    os << "compute_jitter = "
       << strformat("%.17g", config.computeJitter) << "\n";
    os << "gradient_bytes = " << config.gradientBytes << "\n";
    os << "gradient_buckets = " << config.gradientBuckets << "\n";
    os << "step_instr = " << config.stepInstr << "\n";
    os << "servers = " << config.servers << "\n";
    os << "requests_per_client = " << config.requestsPerClient
       << "\n";
    os << "request_bytes = " << config.requestBytes << "\n";
    os << "reply_bytes = " << config.replyBytes << "\n";
    os << "client_instr = " << config.clientInstr << "\n";
    os << "server_instr = " << config.serverInstr << "\n";
    os << "churn_probability = "
       << strformat("%.17g", config.churnProbability) << "\n";
    os << "ops_per_round = " << config.opsPerRound << "\n";
    os << "store_fraction = "
       << strformat("%.17g", config.storeFraction) << "\n";
    os << "key_bytes = " << config.keyBytes << "\n";
    os << "value_bytes = " << config.valueBytes << "\n";
    os << "hop_instr = " << config.hopInstr << "\n";
}

} // namespace ovlsim::gen
