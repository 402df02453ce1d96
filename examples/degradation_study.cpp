/**
 * @file
 * The R1 bandwidth sweep under dynamic platform scenarios: does
 * overlap still pay off when the machine degrades mid-run?
 *
 * A nominal replay on the chosen topology measures the run length,
 * then three scenarios (src/scen/) are scaled to it, and one scenario
 * x bandwidth platform campaign (core::platformSweep) replays the
 * sweep under each of them and without one, on the same fabric:
 *
 *  - mid-degrade: every link drops to a fraction of its capacity
 *    (and doubles its latency) over the middle half of the run,
 *  - nic-stall: node 0's NIC links freeze for the middle fifth —
 *    traffic touching the node stops and resumes on recovery,
 *  - background: a train of external flows crosses the fabric,
 *    contending with the app on shared links.
 *
 * The interesting read is the per-scenario speedup columns against
 * the nominal table: overlapped variants keep more of their edge on
 * a degraded machine because the extra communication time falls
 * where computation can still hide it.
 *
 *   ./degradation_study --app sweep3d [--chunks 16] [--lo 16]
 *                       [--hi 16384] [--per-decade 2]
 *                       [--degrade 0.25] [--threads N]
 *                       [--csv out.csv]
 */

#include <climits>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "scen/scenario.hh"
#include "util/options.hh"

using namespace ovlsim;

namespace {

SimTime
fractionOf(SimTime total, double fraction)
{
    return SimTime::fromNs(static_cast<std::int64_t>(
        static_cast<double>(total.ns()) * fraction));
}

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("app", "sweep3d",
                    "application: nas-bt nas-cg pop alya specfem "
                    "sweep3d");
    options.declare("chunks", "16", "chunks per message");
    options.declare("lo", "16", "lowest bandwidth, MB/s");
    options.declare("hi", "16384", "highest bandwidth, MB/s");
    options.declare("per-decade", "2", "sweep points per decade");
    options.declare("degrade", "0.25",
                    "link capacity factor during the degradation");
    options.declare("threads", "0",
                    "worker threads (0 = all hardware cores)");
    options.declare("csv", "", "optional CSV output path");
    options.parse(argc, argv);

    const auto &app = apps::findApp(options.getString("app"));
    std::printf("%s: %s\n", app.name().c_str(),
                app.description().c_str());

    const auto bundle = bench::traceApp(app.name());
    auto base = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    const auto grid = core::logBandwidthGrid(
        options.getDouble("lo", Sign::positive),
        options.getDouble("hi", Sign::positive),
        static_cast<int>(options.getInt("per-decade", 1, INT_MAX)));
    const auto variants = core::standardVariants(
        static_cast<std::size_t>(options.getInt("chunks", 1)));
    const int threads = ThreadPool::resolveThreads(
        static_cast<int>(options.getInt("threads", 0, INT_MAX)));

    // Scale the scenarios to the run: one nominal replay at the
    // middle of the bandwidth range measures how long the app runs
    // on this fabric.
    sim::PlatformConfig probe = base;
    probe.bandwidthMBps = grid[grid.size() / 2];
    const SimTime nominal =
        sim::simulate(bundle.traces, probe).totalTime;
    std::printf("nominal run on %s at %.0f MB/s: %.1f us\n",
                base.name.c_str(), probe.bandwidthMBps,
                nominal.toUs());

    std::vector<std::pair<std::string, scen::ScenarioConfig>> scenarios;
    scenarios.push_back({"nominal", {}});

    {
        scen::ScenarioConfig cfg;
        scen::ScenarioEvent degrade;
        degrade.time = fractionOf(nominal, 0.25);
        degrade.kind = scen::ScenEventKind::degrade;
        degrade.target = scen::ScenTarget::all;
        degrade.bandwidthFactor = options.getDouble("degrade", Sign::positive);
        degrade.latencyFactor = 2.0;
        cfg.events.push_back(degrade);
        scen::ScenarioEvent recover;
        recover.time = fractionOf(nominal, 0.75);
        recover.kind = scen::ScenEventKind::recover;
        recover.target = scen::ScenTarget::all;
        cfg.events.push_back(recover);
        scenarios.push_back({"mid-degrade", cfg});
    }

    {
        scen::ScenarioConfig cfg;
        scen::ScenarioEvent stall;
        stall.time = fractionOf(nominal, 0.40);
        stall.kind = scen::ScenEventKind::fail;
        stall.target = scen::ScenTarget::node;
        stall.nodeA = 0;
        stall.semantics = scen::FailSemantics::stall;
        cfg.events.push_back(stall);
        scen::ScenarioEvent recover;
        recover.time = fractionOf(nominal, 0.60);
        recover.kind = scen::ScenEventKind::recover;
        recover.target = scen::ScenTarget::node;
        recover.nodeA = 0;
        cfg.events.push_back(recover);
        scenarios.push_back({"nic-stall", cfg});
    }

    {
        const int nodes =
            (bundle.traces.ranks() + base.cpusPerNode - 1) /
            base.cpusPerNode;
        scen::ScenarioConfig cfg;
        for (int k = 0; k < 8; ++k) {
            scen::ScenarioEvent flow;
            flow.time =
                fractionOf(nominal, 0.1 + 0.1 * k);
            flow.kind = scen::ScenEventKind::background;
            flow.target = scen::ScenTarget::route;
            flow.nodeA = k % nodes;
            flow.nodeB = (k + nodes / 2) % nodes;
            if (flow.nodeA == flow.nodeB)
                flow.nodeB = (flow.nodeB + 1) % nodes;
            flow.bytes = Bytes(1) << 20;
            cfg.events.push_back(flow);
        }
        scenarios.push_back({"background", cfg});
    }

    // Scenario s's point i is platform s * grid.size() + i.
    std::vector<sim::PlatformConfig> platforms;
    for (const auto &[name, scenario] : scenarios) {
        for (const double bandwidth : grid) {
            auto platform = base;
            platform.name = base.name + "/" + name;
            platform.scenario = scenario;
            platform.bandwidthMBps = bandwidth;
            platforms.push_back(std::move(platform));
        }
    }
    const auto campaign =
        core::platformSweep(bundle, platforms, variants, threads);

    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        std::printf("\n== %s ==\n", scenarios[s].first.c_str());
        TablePrinter table({"MB/s", "original", "comm%",
                            "real speedup", "ideal speedup"});
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const auto &point = campaign.points[s * grid.size() + i];
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
                      {"scenario", "bandwidth_mbps",
                       "t_original_us", "t_real_us",
                       "t_ideal_us"});
        for (std::size_t k = 0; k < campaign.points.size(); ++k) {
            const auto &point = campaign.points[k];
            csv.addRow({scenarios[k / grid.size()].first,
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
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
