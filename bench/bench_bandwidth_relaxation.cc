/**
 * @file
 * Experiment R3 (paper Sec. III, finding 3).
 *
 * "Our results show that in the range of high bandwidths, the
 *  overlapped execution will need less bandwidth than the original
 *  execution to achieve the same performance. In fact, for achieving
 *  the performance of the original execution on some high bandwidth,
 *  the overlapped execution needs bandwidth that is couple of orders
 *  of magnitude lower."
 *
 * For every application this bench measures the original execution
 * at a high reference bandwidth, then searches for the minimal
 * bandwidth at which (a) the original and (b) the ideal-pattern
 * overlapped execution still reach that performance (within 5%).
 */

#include <cmath>
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
    constexpr double reference = 65536.0; // MB/s
    std::printf("R3: bandwidth needed to match the original's "
                "performance at %.0f MB/s\n", reference);
    std::printf("(ideal pattern, 16 chunks, 5%% tolerance; "
                "%d threads)\n\n", threads);

    TablePrinter table({"app", "t @ reference",
                        "original needs MB/s",
                        "overlapped needs MB/s", "reduction",
                        "orders of magnitude"});
    CsvWriter csv("bench_bandwidth_relaxation.csv",
                  {"app", "reference_mbps", "t_reference_us",
                   "original_needs_mbps",
                   "overlapped_needs_mbps", "reduction_factor",
                   "orders_of_magnitude"});

    for (const auto &name : paperApps()) {
        const auto bundle = traceApp(name);
        core::TransformConfig ideal;
        ideal.pattern = core::PatternModel::idealLinear;

        const auto iso = core::isoPerformance(
            bundle, sim::platforms::defaultCluster(), ideal,
            reference, 0.05, 1e-2, threads);

        const double reduction = iso.reductionFactor();
        const double orders =
            reduction > 0.0 ? std::log10(reduction) : 0.0;
        table.addRow({name, humanTime(iso.originalTime),
                      mbps(iso.originalRequiredBandwidth),
                      mbps(iso.overlappedRequiredBandwidth),
                      strformat("%.1fx", reduction),
                      strformat("%.2f", orders)});
        csv.addRow({name, strformat("%.0f", reference),
                    strformat("%.3f", iso.originalTime.toUs()),
                    strformat("%.4f",
                              iso.originalRequiredBandwidth),
                    strformat("%.4f",
                              iso.overlappedRequiredBandwidth),
                    strformat("%.2f", reduction),
                    strformat("%.3f", orders)});
    }
    table.print(std::cout);
    std::printf(
        "\nThe paper's claim holds when the reduction spans one "
        "to a couple of orders\nof magnitude.\n");
    std::printf(
        "CSV written to bench_bandwidth_relaxation.csv\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
