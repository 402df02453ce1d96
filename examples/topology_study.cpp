/**
 * @file
 * The paper's R1 bandwidth sweep, repeated per interconnect
 * topology: does overlap still hide communication when the fabric
 * itself is congested?
 *
 * For every topology of the standard set (flat bus, full-bisection
 * fat tree, 2:1 tapered fat tree, wrapped 2-D torus, dragonfly) the
 * original execution and the real/ideal overlapped variants are
 * replayed across a log bandwidth grid, in one topology x bandwidth
 * platform campaign (core::platformSweep), with remote transfers
 * routed over compiled per-link routes and link-shared contention
 * (src/net/). The interesting read is the rightmost columns: on a
 * congested fabric the overlapped variants keep their edge longer
 * into the high-bandwidth regime than the flat model predicts.
 *
 *   ./topology_study --app sweep3d [--chunks 16] [--lo 1]
 *                    [--hi 65536] [--per-decade 2]
 *                    [--threads N] [--csv out.csv]
 *                    [--progress] [--trace-out trace.json]
 *
 * --progress reports campaign completion to stderr; --trace-out
 * writes a Chrome trace-event JSON (ui.perfetto.dev) combining a
 * captured per-rank timeline of the original replay with the
 * campaign's host-side lane spans.
 */

#include <climits>
#include <cstdio>
#include <iostream>
#include <memory>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "obs/chrome_trace.hh"
#include "obs/progress.hh"
#include "util/options.hh"

using namespace ovlsim;

namespace {

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("app", "sweep3d",
                    "application: nas-bt nas-cg pop alya specfem "
                    "sweep3d");
    options.declare("chunks", "16", "chunks per message");
    options.declare("lo", "1", "lowest bandwidth, MB/s");
    options.declare("hi", "65536", "highest bandwidth, MB/s");
    options.declare("per-decade", "2", "sweep points per decade");
    options.declare("threads", "0",
                    "worker threads (0 = all hardware cores)");
    options.declare("csv", "", "optional CSV output path");
    options.declare("progress", "false",
                    "report campaign progress to stderr");
    options.declare("trace-out", "",
                    "optional Chrome trace-event JSON output path");
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

    core::CampaignObs cobs;
    cobs.recordSpans = !options.getString("trace-out").empty();
    std::unique_ptr<obs::Progress> progress;
    if (options.getBool("progress")) {
        progress = std::make_unique<obs::Progress>(
            "topology sweep", topologies.size() * grid.size());
        cobs.progress = progress.get();
    }

    // Topology t's point i is platform t * grid.size() + i.
    std::vector<sim::PlatformConfig> platforms;
    for (const auto &spec : topologies) {
        for (const double bandwidth : grid) {
            auto platform = base;
            platform.name = base.name + "/" + spec.name;
            platform.topology = spec.topology;
            platform.bandwidthMBps = bandwidth;
            platforms.push_back(std::move(platform));
        }
    }
    const auto campaign = core::platformSweep(
        bundle, platforms, variants, threads, &cobs);
    if (progress != nullptr)
        progress->finish();

    for (std::size_t t = 0; t < topologies.size(); ++t) {
        std::printf("\n== %s ==\n", topologies[t].name.c_str());
        TablePrinter table({"MB/s", "original", "comm%",
                            "real speedup", "ideal speedup"});
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto &point = campaign.points[t * grid.size() + i];
            table.addRow(
                {strformat("%.2f", point.bandwidthMBps),
                 humanTime(point.originalTime),
                 strformat("%.0f",
                           point.originalCommFraction * 100.0),
                 strformat("%+.1f%%",
                           (point.speedup(0) - 1.0) * 100.0),
                 strformat("%+.1f%%",
                           (point.speedup(1) - 1.0) * 100.0)});
        }
        table.print(std::cout);
    }

    if (!options.getString("csv").empty()) {
        CsvWriter csv(options.getString("csv"),
                      {"topology", "bandwidth_mbps",
                       "t_original_us", "t_real_us",
                       "t_ideal_us"});
        for (std::size_t k = 0; k < campaign.points.size(); ++k) {
            const auto &point = campaign.points[k];
            csv.addRow({topologies[k / grid.size()].name,
                        strformat("%.4f", point.bandwidthMBps),
                        strformat("%.3f", point.originalTime.toUs()),
                        strformat("%.3f",
                                  point.variantTimes[0].toUs()),
                        strformat("%.3f",
                                  point.variantTimes[1].toUs())});
        }
        std::printf("\nCSV written to %s\n",
                    options.getString("csv").c_str());
    }

    if (!options.getString("trace-out").empty()) {
        // Simulated tracks come from one extra replay of the
        // original execution with timeline capture on (the campaign
        // replays run capture-off to stay cheap); host tracks are
        // the campaign's recorded lane spans.
        auto tracked = base;
        tracked.captureTimeline = true;
        const auto replay = sim::simulate(bundle.traces, tracked);
        obs::writeChromeTrace(options.getString("trace-out"),
                              replay.timeline, cobs.spans);
        std::printf("\nChrome trace written to %s\n",
                    options.getString("trace-out").c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
