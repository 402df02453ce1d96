/**
 * @file
 * The R1 bandwidth sweep under both collective models, repeated per
 * interconnect topology: what do collectives cost when they have to
 * share the fabric?
 *
 * The analytic model (the seed's Dimemas formulas) prices every
 * collective off-network — a broadcast costs the same closed form
 * whether the fabric is a full-bisection fat tree or a starved
 * torus. The algorithmic model (src/coll/) lowers each collective
 * into its classic point-to-point schedule (binomial trees,
 * recursive doubling, rings, pairwise exchange) and executes it on
 * the engine's transfer path, so collective traffic occupies links
 * and contends in the src/net/ model like any other message. For
 * every topology of the standard set the campaign prints the two
 * sweeps side by side; the interesting read is the "coll delta"
 * column — how much slower (or faster) the original run gets when
 * its collectives become real traffic, which is exactly the
 * topology effect collective-heavy apps (nas-cg, alya) cannot show
 * under the analytic model.
 *
 *   ./collective_study --app nas-cg [--chunks 16] [--lo 1]
 *                      [--hi 65536] [--per-decade 2]
 *                      [--threads N] [--csv out.csv]
 */

#include <climits>
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
    options.declare("app", "nas-cg",
                    "application: nas-bt nas-cg pop alya specfem "
                    "sweep3d");
    options.declare("chunks", "16", "chunks per message");
    options.declare("lo", "1", "lowest bandwidth, MB/s");
    options.declare("hi", "65536", "highest bandwidth, MB/s");
    options.declare("per-decade", "2", "sweep points per decade");
    options.declare("threads", "0",
                    "worker threads (0 = all hardware cores)");
    options.declare("csv", "", "optional CSV output path");
    options.parse(argc, argv);

    const auto &app = apps::findApp(options.getString("app"));
    std::printf("%s: %s\n", app.name().c_str(),
                app.description().c_str());

    const auto bundle = bench::traceApp(app.name());
    const auto base = sim::platforms::defaultCluster();
    const auto grid = core::logBandwidthGrid(
        options.getDouble("lo"), options.getDouble("hi"),
        static_cast<int>(options.getInt("per-decade", 1, INT_MAX)));
    const auto variants = core::standardVariants(
        static_cast<std::size_t>(options.getInt("chunks", 1)));
    const auto topologies = core::standardTopologies();
    const int threads = ThreadPool::resolveThreads(
        static_cast<int>(options.getInt("threads", 0, INT_MAX)));

    const auto campaign = core::collectiveSweep(
        bundle, base, grid, variants, topologies, threads);

    for (std::size_t t = 0; t < campaign.topologies.size(); ++t) {
        const auto &spec = campaign.topologies[t];
        const auto &analytic = campaign.analytic[t];
        const auto &algorithmic = campaign.algorithmic[t];
        std::printf("\n== %s ==\n", spec.name.c_str());
        TablePrinter table({"MB/s", "analytic", "algorithmic",
                            "coll delta", "real speedup",
                            "ideal speedup"});
        for (std::size_t i = 0; i < analytic.points.size(); ++i) {
            const auto &pa = analytic.points[i];
            const auto &pb = algorithmic.points[i];
            table.addRow(
                {strformat("%.2f", pa.bandwidthMBps),
                 humanTime(pa.originalTime),
                 humanTime(pb.originalTime),
                 bench::pct(bench::speedupPct(
                     pb.originalTime, pa.originalTime)),
                 bench::pct((pb.speedup(0) - 1.0) * 100.0),
                 bench::pct((pb.speedup(1) - 1.0) * 100.0)});
        }
        table.print(std::cout);
    }

    if (!options.getString("csv").empty()) {
        CsvWriter csv(options.getString("csv"),
                      {"topology", "bandwidth_mbps",
                       "t_analytic_us", "t_algorithmic_us",
                       "t_algo_real_us", "t_algo_ideal_us"});
        for (std::size_t t = 0; t < campaign.topologies.size();
             ++t) {
            const auto &analytic = campaign.analytic[t];
            const auto &algorithmic = campaign.algorithmic[t];
            for (std::size_t i = 0; i < analytic.points.size();
                 ++i) {
                csv.addRow(
                    {campaign.topologies[t].name,
                     strformat(
                         "%.4f",
                         analytic.points[i].bandwidthMBps),
                     strformat(
                         "%.3f",
                         analytic.points[i].originalTime.toUs()),
                     strformat("%.3f", algorithmic.points[i]
                                           .originalTime.toUs()),
                     strformat("%.3f",
                               algorithmic.points[i]
                                   .variantTimes[0]
                                   .toUs()),
                     strformat("%.3f",
                               algorithmic.points[i]
                                   .variantTimes[1]
                                   .toUs())});
            }
        }
        std::printf("\nCSV written to %s\n",
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
