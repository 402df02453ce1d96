/**
 * @file
 * Experiment R1 (paper Sec. III, finding 1).
 *
 * "We found that the overlapping potential can be very limited by
 *  pattern by which the processes internally compute on the data
 *  involved in communication. Considering the real computation
 *  patterns, the potential for automatic overlap in the applications
 *  is negligible. Still, if the computation phases were restructured
 *  such that the data was produced and consumed in an ideal
 *  sequential order, automatic overlap could achieve benefits in a
 *  wide range of network bandwidth."
 *
 * For each of the six applications this bench sweeps the network
 * bandwidth over five decades and prints the execution time of the
 * original trace and of the real-pattern and ideal-pattern
 * overlapped traces, plus their speedups.
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
    std::printf("R1: real vs ideal computation patterns across "
                "bandwidths\n");
    std::printf("(speedups vs the original, non-overlapped "
                "execution; 16 chunks/message; %d threads)\n\n",
                threads);

    const auto grid = core::logBandwidthGrid(1.0, 65536.0, 1);
    const auto variants = core::standardVariants(16);
    CsvWriter csv("bench_real_vs_ideal.csv",
                  {"app", "bandwidth_mbps", "t_original_us",
                   "t_real_us", "speedup_real_pct", "t_ideal_us",
                   "speedup_ideal_pct"});

    for (const auto &name : paperApps()) {
        const auto bundle = traceApp(name);
        const auto sweep = core::bandwidthSweep(
            bundle, sim::platforms::defaultCluster(), grid,
            variants, threads);

        TablePrinter table({"bandwidth MB/s", "original",
                            "overlap-real", "real speedup",
                            "overlap-ideal", "ideal speedup"});
        for (const auto &point : sweep.points) {
            const double real_pct =
                (point.speedup(0) - 1.0) * 100.0;
            const double ideal_pct =
                (point.speedup(1) - 1.0) * 100.0;
            table.addRow(
                {mbps(point.bandwidthMBps),
                 humanTime(point.originalTime),
                 humanTime(point.variantTimes[0]),
                 pct(real_pct),
                 humanTime(point.variantTimes[1]),
                 pct(ideal_pct)});
            csv.addRow({name,
                        strformat("%.4f", point.bandwidthMBps),
                        strformat("%.3f",
                                  point.originalTime.toUs()),
                        strformat("%.3f",
                                  point.variantTimes[0].toUs()),
                        strformat("%.2f", real_pct),
                        strformat("%.3f",
                                  point.variantTimes[1].toUs()),
                        strformat("%.2f", ideal_pct)});
        }
        std::printf("--- %s ---\n", name.c_str());
        table.print(std::cout);
        std::printf("\n");
    }
    std::printf("CSV written to bench_real_vs_ideal.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
