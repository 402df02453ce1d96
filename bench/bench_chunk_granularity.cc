/**
 * @file
 * Experiment A2 (paper Sec. II-B): chunk-granularity sensitivity.
 *
 * The mechanism "partitions every original message into independent
 * chunks". This bench sweeps the chunk count per message for the two
 * extreme applications — NAS-BT (halo exchanges) and Sweep3D
 * (pipelined wavefronts) — at their intermediate bandwidths, showing
 * diminishing returns and the per-chunk latency penalty.
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
    std::printf("A2: ideal-pattern speedup vs chunks per "
                "message (%d threads)\n\n", threads);

    const std::vector<std::size_t> chunk_counts{1, 2, 4, 8,
                                                16, 32, 64};
    CsvWriter csv("bench_chunk_granularity.csv",
                  {"app", "chunks", "speedup_pct"});

    for (const std::string name : {"nas-bt", "sweep3d"}) {
        const auto bundle = traceApp(name);
        auto platform = sim::platforms::defaultCluster();
        platform.bandwidthMBps =
            core::findIntermediateBandwidth(bundle.traces, platform);

        // One variant per chunk granularity, as a one-point sweep.
        std::vector<core::VariantSpec> variants;
        for (const std::size_t chunks : chunk_counts) {
            core::TransformConfig config;
            config.pattern = core::PatternModel::idealLinear;
            config.chunks = chunks;
            variants.push_back({config.label(), config});
        }
        const auto sweep = core::bandwidthSweep(
            bundle, platform, {platform.bandwidthMBps}, variants,
            threads);
        const auto &point = sweep.points[0];

        TablePrinter table({"chunks", "t overlap-ideal",
                            "speedup"});
        for (std::size_t i = 0; i < chunk_counts.size(); ++i) {
            const auto t = point.variantTimes[i];
            const double speedup =
                speedupPct(point.originalTime, t);
            table.addRow({strformat("%zu", chunk_counts[i]),
                          humanTime(t), pct(speedup)});
            csv.addRow({name,
                        strformat("%zu", chunk_counts[i]),
                        strformat("%.2f", speedup)});
        }
        std::printf("--- %s @ %.2f MB/s ---\n", name.c_str(),
                    platform.bandwidthMBps);
        table.print(std::cout);
        std::printf("\n");
    }
    std::printf("CSV written to bench_chunk_granularity.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
