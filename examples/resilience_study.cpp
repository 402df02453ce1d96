/**
 * @file
 * The resilience crossover: how unreliable can the machine get
 * before communication/computation overlap stops paying?
 *
 * Overlap hides communication behind computation, but a fail-stop
 * fault rolls the replay back to its last coordinated checkpoint —
 * and the rework a restart replays is governed by wall progress,
 * not by how cleverly that progress overlapped. As the per-node
 * MTBF shrinks, every variant pays more rework and checkpoint
 * freezes; this study sweeps a failure-rate grid x seeds
 * (core::resilienceSweep) under a checkpoint/restart cost model
 * (src/res/) and tabulates where the overlapped variants' edge
 * over the original erodes.
 *
 * Per MTBF row: mean and p95 completion over seeds, the fraction
 * of seeds that died (always 0 with checkpointing unless the
 * restart budget blows), and the real/ideal overlap speedups on
 * the means. The same generated fault scenario is applied to the
 * original and every variant of a (rate, seed) cell, so rows
 * compare like with like.
 *
 * Failed cells are followed by the engine's forensic report — which
 * fault event killed the run and which ranks it left unfinished
 * (the structured FailureDiagnosis each campaign cell now carries).
 *
 * A second table compares checkpointing protocols: single-level
 * vs. hierarchical two-level checkpoint/restart swept over an
 * interval grid at one failure rate (core::protocolSweep), with the
 * swept optimal interval printed next to Daly's analytic optimum
 * tau* = sqrt(2 C M) - C.
 *
 *   ./resilience_study --app sweep3d [--chunks 16]
 *                      [--mtbf-lo 2] [--mtbf-hi 200]
 *                      [--per-decade 3] [--seeds 20]
 *                      [--interval 0] [--ckpt-cost 0]
 *                      [--restart-cost 0] [--proto-mtbf 10]
 *                      [--machine-mtbf 40] [--threads N]
 *                      [--csv out.csv] [--progress]
 *
 * Interval/cost/restart are microseconds; 0 auto-scales them to
 * the app's nominal run (interval = nominal/6, cost = interval/50,
 * restart = interval/10). --mtbf-lo/--mtbf-hi (the campaign grid),
 * --proto-mtbf (the protocol table's per-node MTBF) and
 * --machine-mtbf (the machine-wide crash rate exercising the
 * two-level protocol's global restores; 0 disables it) are
 * multiples of the nominal run, so every knob tracks the app
 * instead of hardcoding microseconds: a 2x-nominal per-node MTBF
 * is a brutal machine, a 200x-nominal one is merely flaky.
 */

#include <climits>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "core/analysis.hh"
#include "obs/progress.hh"
#include "util/options.hh"

using namespace ovlsim;

namespace {

double
meanSpeedup(const core::ResiliencePoint &point, std::size_t variant)
{
    const double original =
        static_cast<double>(point.cells[0].meanTime.ns());
    const double overlapped = static_cast<double>(
        point.cells[variant + 1].meanTime.ns());
    return overlapped > 0.0 ? original / overlapped : 0.0;
}

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("app", "sweep3d",
                    "application: nas-bt nas-cg pop alya specfem "
                    "sweep3d");
    options.declare("chunks", "16", "chunks per message");
    options.declare("mtbf-lo", "2",
                    "lowest per-node MTBF, multiples of the "
                    "nominal run");
    options.declare("mtbf-hi", "200",
                    "highest per-node MTBF, multiples of the "
                    "nominal run");
    options.declare("per-decade", "3", "grid points per decade");
    options.declare("seeds", "20", "fault scenarios per grid point");
    options.declare("seed", "1", "campaign base seed");
    options.declare("interval", "0",
                    "checkpoint interval, us (0 = nominal/6)");
    options.declare("ckpt-cost", "0",
                    "checkpoint freeze cost, us (0 = interval/50)");
    options.declare("restart-cost", "0",
                    "restart cost, us (0 = interval/10)");
    options.declare("proto-mtbf", "10",
                    "protocol table's per-node MTBF, multiples of "
                    "the nominal run");
    options.declare("machine-mtbf", "40",
                    "machine-wide crash MTBF, multiples of the "
                    "nominal run (0 = no machine-wide faults)");
    options.declare("threads", "0",
                    "worker threads (0 = all hardware cores)");
    options.declare("csv", "", "optional CSV output path");
    options.declare("progress", "false",
                    "report campaign progress to stderr");
    options.parse(argc, argv);

    const auto &app = apps::findApp(options.getString("app"));
    std::printf("%s: %s\n", app.name().c_str(),
                app.description().c_str());

    const auto bundle = bench::traceApp(app.name());
    auto base = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    const auto variants = core::standardVariants(
        static_cast<std::size_t>(options.getInt("chunks", 1)));
    const int threads = ThreadPool::resolveThreads(
        static_cast<int>(options.getInt("threads", 0, INT_MAX)));
    const auto seeds = static_cast<std::uint32_t>(
        options.getInt("seeds", 1, UINT32_MAX));
    const auto seed =
        static_cast<std::uint64_t>(options.getInt("seed", 0));
    // Read before the nominal replay, so a bad value fails at once.
    const double mtbf_lo = options.getDouble("mtbf-lo", Sign::positive);
    const double mtbf_hi = options.getDouble("mtbf-hi", Sign::positive);
    if (!(mtbf_lo < mtbf_hi))
        fatal("option --mtbf-lo (", mtbf_lo, ") must be below --mtbf-hi (",
              mtbf_hi, ")");
    const double proto_mtbf =
        options.getDouble("proto-mtbf", Sign::positive);
    const double machine_mtbf =
        options.getDouble("machine-mtbf", Sign::nonNegative);

    // Scale the cost model and the MTBF grid to this app's nominal
    // run on this fabric.
    const SimTime nominal =
        sim::simulate(bundle.traces, base).totalTime;
    // An option in multiples of the nominal run, in microseconds.
    const auto timesNominal = [&](const char *name, double multiple) {
        const double us = multiple * nominal.toUs();
        if (!std::isfinite(us))
            fatal("option --", name, ": ", multiple,
                  " times the nominal run is not a finite time");
        return us;
    };
    const double mtbf_lo_us = timesNominal("mtbf-lo", mtbf_lo);
    const double mtbf_hi_us = timesNominal("mtbf-hi", mtbf_hi);
    const double proto_mtbf_us = timesNominal("proto-mtbf", proto_mtbf);
    const double machine_mtbf_us =
        timesNominal("machine-mtbf", machine_mtbf);
    double interval_us =
        options.getDouble("interval", Sign::nonNegative);
    if (interval_us <= 0.0)
        interval_us = nominal.toUs() / 6.0;
    double ckpt_cost_us = options.getDouble("ckpt-cost", Sign::nonNegative);
    if (ckpt_cost_us <= 0.0)
        ckpt_cost_us = interval_us / 50.0;
    double restart_cost_us =
        options.getDouble("restart-cost", Sign::nonNegative);
    if (restart_cost_us <= 0.0)
        restart_cost_us = interval_us / 10.0;
    base.checkpointIntervalUs = interval_us;
    base.checkpointCostUs = ckpt_cost_us;
    base.restartCostUs = restart_cost_us;
    std::printf("nominal run on %s: %.1f us; checkpoint every "
                "%.1f us costing %.2f us, restart %.2f us\n",
                base.name.c_str(), nominal.toUs(), interval_us,
                ckpt_cost_us, restart_cost_us);

    // Log-spaced per-node MTBF grid (the log-grid helper is not
    // bandwidth-specific), descending so the table reads from
    // reliable to brutal.
    auto grid = core::logBandwidthGrid(
        mtbf_lo_us, mtbf_hi_us,
        static_cast<int>(options.getInt("per-decade", 1, INT_MAX)));
    std::reverse(grid.begin(), grid.end());

    core::CampaignObs cobs;
    std::unique_ptr<obs::Progress> progress;
    if (options.getBool("progress")) {
        // One tick per (rate, seed) job of the campaign.
        progress = std::make_unique<obs::Progress>(
            "resilience sweep",
            grid.size() * seeds);
        cobs.progress = progress.get();
    }

    const auto campaign = core::resilienceSweep(
        bundle, base, grid, variants, seeds, seed, threads, &cobs);
    if (progress != nullptr)
        progress->finish();

    TablePrinter table({"MTBF/node", "xnominal", "mean orig",
                        "p95 orig", "failed%", "real speedup",
                        "ideal speedup"});
    for (const auto &point : campaign.points) {
        const auto &orig = point.cells[0];
        table.addRow(
            {strformat("%.0f us", point.mtbfUs),
             strformat("%.1f", point.mtbfUs / nominal.toUs()),
             humanTime(orig.meanTime), humanTime(orig.p95Time),
             strformat("%.0f", orig.failedFraction * 100.0),
             strformat("%+.1f%%", (meanSpeedup(point, 0) - 1.0) *
                                      100.0),
             strformat("%+.1f%%", (meanSpeedup(point, 1) - 1.0) *
                                      100.0)});
    }
    table.print(std::cout);

    // The crossover: walking from reliable to brutal, where does
    // the real overlapped variant first stop beating the original?
    bool crossed = false;
    for (std::size_t p = 0; p < campaign.points.size(); ++p) {
        if (meanSpeedup(campaign.points[p], 0) <= 1.0) {
            std::printf("\noverlap (real) stops paying at a "
                        "per-node MTBF of ~%.0f us (%.1fx the "
                        "nominal run)\n",
                        campaign.points[p].mtbfUs,
                        campaign.points[p].mtbfUs / nominal.toUs());
            crossed = true;
            break;
        }
    }
    if (!crossed)
        std::printf("\noverlap (real) still pays at the most "
                    "brutal point of the grid (MTBF %.1fx the "
                    "nominal run)\n",
                    campaign.points.back().mtbfUs / nominal.toUs());

    // Failed cells carry the engine's forensic report: which fault
    // event killed the run and which ranks it left unfinished. One
    // exemplar seed per failed cell keeps the report readable.
    bool anyFailed = false;
    for (const auto &point : campaign.points) {
        for (std::size_t c = 0; c < point.cells.size(); ++c) {
            const auto &cell = point.cells[c];
            if (cell.failedFraction <= 0.0)
                continue;
            for (std::size_t s = 0; s < cell.seedTimes.size(); ++s) {
                if (cell.seedTimes[s] != SimTime::max())
                    continue;
                if (!anyFailed)
                    std::printf("\nfailed cells (one exemplar seed "
                                "each):\n");
                anyFailed = true;
                std::printf(
                    "  MTBF %.0f us, %s, seed %zu: %s\n",
                    point.mtbfUs,
                    c == 0 ? "original"
                           : campaign.variants[c - 1].name.c_str(),
                    s, cell.seedDiagnoses[s].toString().c_str());
                break;
            }
        }
    }

    // Protocol comparison: single-level vs. hierarchical two-level
    // checkpointing over an interval grid at one failure rate. The
    // two-level protocol takes a cheap local snapshot every swept
    // interval and an expensive global one every fourth, and only
    // the global one survives a machine-wide crash.
    auto intervalGrid = core::logBandwidthGrid(
        interval_us / 8.0, interval_us * 8.0, 4);
    const std::vector<core::CheckpointProtocol> protocols{
        {"single-level", ckpt_cost_us, restart_cost_us, 0.0, 0.0,
         0.0},
        {"two-level", ckpt_cost_us, restart_cost_us, 4.0,
         4.0 * ckpt_cost_us, 4.0 * restart_cost_us},
    };
    const auto proto = core::protocolSweep(
        bundle, base, proto_mtbf_us, intervalGrid, protocols, seeds,
        seed, machine_mtbf_us, threads);

    std::printf("\nprotocol comparison at per-node MTBF %.0f us"
                " (machine-wide %.0f us):\n",
                proto.mtbfUs, proto.machineMtbfUs);
    TablePrinter ptable({"protocol", "best interval", "Daly tau*",
                         "mean @best", "failed%"});
    for (const auto &row : proto.rows) {
        SimTime bestMean;
        double bestFailed = 0.0;
        for (const auto &cell : row.cells) {
            if (cell.intervalUs == row.bestIntervalUs) {
                bestMean = cell.cell.meanTime;
                bestFailed = cell.cell.failedFraction;
            }
        }
        ptable.addRow(
            {row.protocol.name,
             strformat("%.1f us", row.bestIntervalUs),
             strformat("%.1f us", row.dalyIntervalUs),
             humanTime(bestMean),
             strformat("%.0f", bestFailed * 100.0)});
    }
    ptable.print(std::cout);

    if (!options.getString("csv").empty()) {
        CsvWriter csv(options.getString("csv"),
                      {"mtbf_us", "variant", "mean_us", "p95_us",
                       "failed_fraction"});
        for (const auto &point : campaign.points) {
            for (std::size_t c = 0; c < point.cells.size(); ++c) {
                const auto &cell = point.cells[c];
                csv.addRow(
                    {strformat("%.4f", point.mtbfUs),
                     c == 0 ? "original"
                            : campaign.variants[c - 1].name,
                     strformat("%.3f", cell.meanTime.toUs()),
                     strformat("%.3f", cell.p95Time.toUs()),
                     strformat("%.4f", cell.failedFraction)});
            }
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
