/**
 * @file
 * Experiment S1 (extension; paper Sec. IV future work).
 *
 * The paper plans to use the environment "to estimate the potential
 * of new to-appear features of network systems" on larger machines.
 * This bench scales the process count of two contrasting proxies —
 * NAS-BT (halo) and Sweep3D (pipeline) — and reports how the
 * ideal-pattern benefit at the intermediate bandwidth evolves: halo
 * codes keep a roughly constant benefit while pipelined wavefronts
 * gain with depth.
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
    std::printf("S1: ideal-pattern benefit vs machine size "
                "(%d threads)\n\n", threads);

    CsvWriter csv("bench_scaling.csv",
                  {"app", "ranks", "intermediate_mbps",
                   "speedup_ideal_pct"});

    for (const std::string name : {"nas-bt", "sweep3d"}) {
        TablePrinter table({"ranks", "intermediate MB/s",
                            "t original", "ideal speedup"});
        for (const int ranks : {4, 16, 36, 64}) {
            const auto &app = apps::findApp(name);
            auto params = app.defaults();
            params.ranks = ranks;
            params.iterations =
                std::min(params.iterations, 2);
            tracer::TracerConfig config;
            config.appName = name;
            const auto bundle = tracer::traceApplication(
                ranks, app.program(params), config);

            auto platform = sim::platforms::defaultCluster();
            platform.bandwidthMBps =
                core::findIntermediateBandwidth(bundle.traces,
                                                platform);

            core::TransformConfig ideal;
            ideal.pattern = core::PatternModel::idealLinear;
            const auto sweep = core::bandwidthSweep(
                bundle, platform, {platform.bandwidthMBps},
                {{"overlap-ideal", ideal}}, threads);
            const auto &point = sweep.points[0];
            const double speedup = speedupPct(
                point.originalTime, point.variantTimes[0]);

            table.addRow({strformat("%d", ranks),
                          mbps(platform.bandwidthMBps),
                          humanTime(point.originalTime),
                          pct(speedup)});
            csv.addRow({name, strformat("%d", ranks),
                        strformat("%.3f",
                                  platform.bandwidthMBps),
                        strformat("%.2f", speedup)});
        }
        std::printf("--- %s ---\n", name.c_str());
        table.print(std::cout);
        std::printf("\n");
    }
    std::printf("CSV written to bench_scaling.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
