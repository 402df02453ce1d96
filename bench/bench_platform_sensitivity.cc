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

    // One campaign over the 15 operating points: five latencies,
    // then five bus counts, then five CPU ratios.
    const double latencies[] = {0.1, 1.0, 8.0, 50.0, 200.0};
    const int bus_counts[] = {1, 2, 4, 8, 0};
    const double ratios[] = {0.25, 0.5, 1.0, 2.0, 4.0};
    std::vector<sim::PlatformConfig> platforms(15, base);
    for (std::size_t k = 0; k < 5; ++k) {
        platforms[k].latencyUs = latencies[k];
        platforms[5 + k].buses = bus_counts[k];
        platforms[10 + k].cpuRatio = ratios[k];
    }
    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;
    const auto sweep = core::platformSweep(
        bundle, platforms, {{"overlap-ideal", ideal}}, threads);
    const auto idealSpeedup = [&](std::size_t k) {
        const auto &point = sweep.points[k];
        return speedupPct(point.originalTime, point.variantTimes[0]);
    };

    CsvWriter csv("bench_platform_sensitivity.csv",
                  {"dimension", "value", "speedup_ideal_pct"});

    {
        TablePrinter table({"latency us", "ideal speedup"});
        for (std::size_t k = 0; k < 5; ++k) {
            const double speedup = idealSpeedup(k);
            table.addRow({strformat("%.1f", latencies[k]),
                          pct(speedup)});
            csv.addRow({"latency_us",
                        strformat("%.1f", latencies[k]),
                        strformat("%.2f", speedup)});
        }
        std::printf("--- latency sweep ---\n");
        table.print(std::cout);
        std::printf("\n");
    }

    {
        TablePrinter table({"buses", "ideal speedup"});
        for (std::size_t k = 0; k < 5; ++k) {
            const int buses = bus_counts[k];
            const double speedup = idealSpeedup(5 + k);
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
        for (std::size_t k = 0; k < 5; ++k) {
            const double speedup = idealSpeedup(10 + k);
            table.addRow({strformat("%.2fx", ratios[k]),
                          pct(speedup)});
            csv.addRow({"cpu_ratio", strformat("%.2f", ratios[k]),
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
