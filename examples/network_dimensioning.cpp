/**
 * @file
 * Network dimensioning with overlap: the paper's headline systems
 * insight as a tool.
 *
 * "The biggest benefit of overlap is that it can highly relax the
 *  expensive trend of advancing network bandwidth": given a target
 *  performance (the original execution at a high reference
 *  bandwidth), report how much cheaper a network the overlapped
 *  execution could run on at the same performance.
 *
 *   ./network_dimensioning --app specfem [--reference 65536]
 *                          [--tolerance 0.05] [--chunks 16]
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "util/options.hh"

using namespace ovlsim;

namespace {

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("app", "specfem", "application to dimension");
    options.declare("reference", "65536",
                    "reference bandwidth, MB/s");
    options.declare("tolerance", "0.05",
                    "accepted slowdown vs the reference");
    options.declare("chunks", "16", "chunks per message");
    options.parse(argc, argv);

    const auto &app = apps::findApp(options.getString("app"));
    const auto bundle = bench::traceApp(app.name());

    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;
    ideal.chunks =
        static_cast<std::size_t>(options.getInt("chunks", 1));

    const auto iso = core::isoPerformance(
        bundle, sim::platforms::defaultCluster(), ideal,
        options.getDouble("reference", Sign::positive),
        options.getDouble("tolerance", Sign::nonNegative), 1e-2);

    std::printf("application: %s\n", app.name().c_str());
    std::printf("target: performance of the original execution "
                "at %.0f MB/s (%s), %.0f%% tolerance\n\n",
                iso.referenceBandwidth,
                humanTime(iso.originalTime).c_str(),
                iso.tolerance * 100.0);

    TablePrinter table({"execution", "needs bandwidth"});
    table.addRow({"original (non-overlapped)",
                  strformat("%.2f MB/s",
                            iso.originalRequiredBandwidth)});
    table.addRow({"overlapped (ideal pattern)",
                  strformat("%.2f MB/s",
                            iso.overlappedRequiredBandwidth)});
    table.print(std::cout);

    std::printf("\nthe overlapped execution needs %.1fx less "
                "bandwidth (%.2f orders of magnitude)\n",
                iso.reductionFactor(),
                std::log10(iso.reductionFactor()));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
