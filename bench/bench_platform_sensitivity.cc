/**
 * @file
 * Experiment A3 (paper Sec. II): the configurable platform.
 *
 * The environment replays traces on a configurable parallel platform
 * (latency, contention, protocol). This bench shows how the overlap
 * benefit reacts to (a) network latency, (b) a finite number of
 * buses, and (c) eager vs rendezvous baseline protocols, for the
 * NAS-BT proxy at its intermediate bandwidth.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"

using namespace ovlsim;
using namespace ovlsim::bench;

namespace {

double
idealSpeedupOn(const tracer::TraceBundle &bundle,
               const sim::PlatformConfig &platform, int threads)
{
    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;
    const auto sweep = core::bandwidthSweep(
        bundle, platform, {platform.bandwidthMBps},
        {{"overlap-ideal", ideal}}, threads);
    const auto &point = sweep.points[0];
    return speedupPct(point.originalTime, point.variantTimes[0]);
}

int
toolMain(int argc, char **argv)
{
    const int threads = parseThreads(argc, argv);
    std::printf("A3: platform sensitivity of the ideal-pattern "
                "benefit (NAS-BT; %d threads)\n\n", threads);

    const auto bundle = traceApp("nas-bt");
    auto base = sim::platforms::defaultCluster();
    base.bandwidthMBps =
        core::findIntermediateBandwidth(bundle.traces, base);
    std::printf("operating point: %.2f MB/s\n\n",
                base.bandwidthMBps);

    CsvWriter csv("bench_platform_sensitivity.csv",
                  {"dimension", "value", "speedup_ideal_pct"});

    {
        TablePrinter table({"latency us", "ideal speedup"});
        for (const double latency : {0.1, 1.0, 8.0, 50.0, 200.0}) {
            auto platform = base;
            platform.latencyUs = latency;
            const double speedup =
                idealSpeedupOn(bundle, platform, threads);
            table.addRow({strformat("%.1f", latency),
                          pct(speedup)});
            csv.addRow({"latency_us",
                        strformat("%.1f", latency),
                        strformat("%.2f", speedup)});
        }
        std::printf("--- latency sweep ---\n");
        table.print(std::cout);
        std::printf("\n");
    }

    {
        TablePrinter table({"buses", "ideal speedup"});
        for (const int buses : {1, 2, 4, 8, 0}) {
            auto platform = base;
            platform.buses = buses;
            const double speedup =
                idealSpeedupOn(bundle, platform, threads);
            table.addRow({buses == 0 ? "unlimited"
                                     : strformat("%d", buses),
                          pct(speedup)});
            csv.addRow({"buses",
                        buses == 0 ? "0"
                                   : strformat("%d", buses),
                        strformat("%.2f", speedup)});
        }
        std::printf("--- bus-contention sweep ---\n");
        table.print(std::cout);
        std::printf("\n");
    }

    {
        // Faster CPUs shrink the computation that overlap hides
        // behind; slower CPUs hide the network entirely.
        TablePrinter table({"cpu ratio", "ideal speedup"});
        for (const double ratio : {0.25, 0.5, 1.0, 2.0, 4.0}) {
            auto platform = base;
            platform.cpuRatio = ratio;
            const double speedup =
                idealSpeedupOn(bundle, platform, threads);
            table.addRow({strformat("%.2fx", ratio),
                          pct(speedup)});
            csv.addRow({"cpu_ratio", strformat("%.2f", ratio),
                        strformat("%.2f", speedup)});
        }
        std::printf("--- CPU-speed sweep ---\n");
        table.print(std::cout);
        std::printf("\n");
    }
    std::printf(
        "CSV written to bench_platform_sensitivity.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
