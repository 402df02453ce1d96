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
 * and contends in the src/net/ model like any other message. One
 * model x topology x bandwidth platform campaign
 * (core::platformSweep) replays both models on every topology of
 * the standard set, and each topology's table prints the two models
 * side by side; the interesting read is the "coll delta"
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
        options.getDouble("lo", Sign::positive),
        options.getDouble("hi", Sign::positive),
        static_cast<int>(options.getInt("per-decade", 1, INT_MAX)));
    const auto variants = core::standardVariants(
        static_cast<std::size_t>(options.getInt("chunks", 1)));
    const auto topologies = core::standardTopologies();
    const int threads = ThreadPool::resolveThreads(
        static_cast<int>(options.getInt("threads", 0, INT_MAX)));

    // Model m's topology t has point i at platform
    // (m * topologies.size() + t) * grid.size() + i.
    std::vector<sim::PlatformConfig> platforms;
    for (const auto model : {coll::CollectiveModel::analytic,
                             coll::CollectiveModel::algorithmic}) {
        for (const auto &spec : topologies) {
            for (const double bandwidth : grid) {
                auto platform = base;
                platform.name = base.name + "/" + spec.name;
                platform.topology = spec.topology;
                platform.collectiveModel = model;
                platform.bandwidthMBps = bandwidth;
                platforms.push_back(std::move(platform));
            }
        }
    }
    const auto campaign =
        core::platformSweep(bundle, platforms, variants, threads);
    const std::size_t algorithmic = topologies.size() * grid.size();
    const auto point = [&](std::size_t t, std::size_t i) {
        return t * grid.size() + i;
    };

    for (std::size_t t = 0; t < topologies.size(); ++t) {
        std::printf("\n== %s ==\n", topologies[t].name.c_str());
        TablePrinter table({"MB/s", "analytic", "algorithmic",
                            "coll delta", "real speedup",
                            "ideal speedup"});
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto &pa = campaign.points[point(t, i)];
            const auto &pb =
                campaign.points[algorithmic + point(t, i)];
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
        for (std::size_t t = 0; t < topologies.size(); ++t) {
            for (std::size_t i = 0; i < grid.size(); ++i) {
                const auto &pa = campaign.points[point(t, i)];
                const auto &pb =
                    campaign.points[algorithmic + point(t, i)];
                csv.addRow(
                    {topologies[t].name,
                     strformat("%.4f", pa.bandwidthMBps),
                     strformat("%.3f", pa.originalTime.toUs()),
                     strformat("%.3f", pb.originalTime.toUs()),
                     strformat("%.3f", pb.variantTimes[0].toUs()),
                     strformat("%.3f", pb.variantTimes[1].toUs())});
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
