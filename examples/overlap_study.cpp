/**
 * @file
 * The paper's full study for one application: sweep the network
 * bandwidth and compare the original execution against the
 * real-pattern and ideal-pattern overlapped executions.
 *
 *   ./overlap_study --app sweep3d [--chunks 16] [--lo 1]
 *                   [--hi 65536] [--per-decade 2] [--csv out.csv]
 */

#include <climits>
#include <cstdio>
#include <iostream>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "sim/platform_file.hh"
#include "util/options.hh"

using namespace ovlsim;

namespace {

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("app", "nas-bt",
                    "application: nas-bt nas-cg pop alya specfem "
                    "sweep3d");
    options.declare("chunks", "16", "chunks per message");
    options.declare("lo", "1", "lowest bandwidth, MB/s");
    options.declare("hi", "65536", "highest bandwidth, MB/s");
    options.declare("per-decade", "2",
                    "sweep points per decade");
    options.declare("csv", "", "optional CSV output path");
    options.declare("platform", "",
                    "optional platform config file (key = value; "
                    "bandwidth is overridden by the sweep)");
    options.parse(argc, argv);

    auto base = sim::platforms::defaultCluster();
    if (!options.getString("platform").empty()) {
        base = sim::readPlatformConfigFile(
            options.getString("platform"));
    }

    const auto &app = apps::findApp(options.getString("app"));
    std::printf("%s: %s\n\n", app.name().c_str(),
                app.description().c_str());

    const auto bundle = bench::traceApp(app.name());
    const auto grid = core::logBandwidthGrid(
        options.getDouble("lo", Sign::positive),
        options.getDouble("hi", Sign::positive),
        static_cast<int>(options.getInt("per-decade", 1, INT_MAX)));
    const auto variants = core::standardVariants(
        static_cast<std::size_t>(options.getInt("chunks", 1)));
    const auto sweep = core::bandwidthSweep(
        bundle, base, grid,
        variants);

    TablePrinter table({"MB/s", "original", "comm%",
                        "overlap-real", "real speedup",
                        "overlap-ideal", "ideal speedup"});
    for (const auto &point : sweep.points) {
        table.addRow(
            {strformat("%.2f", point.bandwidthMBps),
             humanTime(point.originalTime),
             strformat("%.0f",
                       point.originalCommFraction * 100.0),
             humanTime(point.variantTimes[0]),
             strformat("%+.1f%%",
                       (point.speedup(0) - 1.0) * 100.0),
             humanTime(point.variantTimes[1]),
             strformat("%+.1f%%",
                       (point.speedup(1) - 1.0) * 100.0)});
    }
    table.print(std::cout);

    const double ib = core::findIntermediateBandwidth(
        *sim::compileShared(bundle.traces), base);
    std::printf("\nintermediate bandwidth (comm == comp): %.2f "
                "MB/s\n", ib);

    if (!options.getString("csv").empty()) {
        CsvWriter csv(options.getString("csv"),
                      {"bandwidth_mbps", "t_original_us",
                       "t_real_us", "t_ideal_us"});
        for (const auto &point : sweep.points) {
            csv.addRow(
                {strformat("%.4f", point.bandwidthMBps),
                 strformat("%.3f", point.originalTime.toUs()),
                 strformat("%.3f",
                           point.variantTimes[0].toUs()),
                 strformat("%.3f",
                           point.variantTimes[1].toUs())});
        }
        std::printf("CSV written to %s\n",
                    options.getString("csv").c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
