/**
 * @file
 * Experiment A1 (paper Sec. II-B).
 *
 * "Moreover, due to its flexibility, the tool can make traces for
 *  executions that enforce only a subset of the overlapping
 *  mechanisms, so each of the mechanisms can be studied separately."
 *
 * For every application, at its intermediate bandwidth, this bench
 * compares the ideal-pattern speedup of the sender-side half (chunks
 * leave at production time), the receiver-side half (waits move to
 * consumption time) and the full mechanism.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"

using namespace ovlsim;
using namespace ovlsim::bench;

namespace {

int
toolMain(int argc, char **argv)
{
    const int threads = parseThreads(argc, argv);
    std::printf("A1: mechanism ablation at the intermediate "
                "bandwidth (ideal pattern, 16 chunks; "
                "%d threads)\n\n", threads);

    TablePrinter table({"app", "MB/s", "send-side only",
                        "recv-side only", "both"});
    CsvWriter csv("bench_mechanism_ablation.csv",
                  {"app", "intermediate_mbps",
                   "speedup_send_side_pct",
                   "speedup_recv_side_pct", "speedup_both_pct"});

    for (const auto &name : paperApps()) {
        const auto bundle = traceApp(name);
        auto platform = sim::platforms::defaultCluster();
        platform.bandwidthMBps =
            core::findIntermediateBandwidth(bundle.traces, platform);

        // Original plus the three mechanism variants, as a one-point
        // sweep.
        std::vector<core::VariantSpec> variants;
        for (const auto mechanism :
             {core::Mechanism::sendSide,
              core::Mechanism::recvSide,
              core::Mechanism::both}) {
            core::TransformConfig config;
            config.pattern = core::PatternModel::idealLinear;
            config.mechanism = mechanism;
            variants.push_back({config.label(), config});
        }
        const auto sweep = core::bandwidthSweep(
            bundle, platform, {platform.bandwidthMBps}, variants,
            threads);
        const auto &point = sweep.points[0];
        std::vector<double> speedups;
        for (const SimTime t : point.variantTimes)
            speedups.push_back(speedupPct(point.originalTime, t));
        table.addRow({name, mbps(platform.bandwidthMBps),
                      pct(speedups[0]), pct(speedups[1]),
                      pct(speedups[2])});
        csv.addRow({name,
                    strformat("%.3f", platform.bandwidthMBps),
                    strformat("%.2f", speedups[0]),
                    strformat("%.2f", speedups[1]),
                    strformat("%.2f", speedups[2])});
    }
    table.print(std::cout);
    std::printf(
        "\nCSV written to bench_mechanism_ablation.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
