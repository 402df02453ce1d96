/**
 * @file
 * Scenario pin table: the bit-identity oracle of the scenario and
 * checkpoint paths of the replay engine.
 *
 * One cell replays one trace on one platform under one scenario,
 * with checkpointing off or on, and pins what the replay computed:
 * total time, events processed, transfers, checkpoints, restarts,
 * an FNV-1a hash of every rank's end time and the EngineStats
 * counters. Two counters stay out: snapshotBytes, which measures
 * the layout of a checkpoint image rather than the simulated
 * answer, and scenarioScanSteps, which measures how flat-bus
 * pricing reads the scenario.
 *
 * The matrix:
 *  - traces: a 4-rank ring exchange, a 1 MB producer/consumer and
 *    sweep3d at one iteration (16 ranks);
 *  - platforms: the flat bus with eager sends, the flat bus with
 *    rendezvous above 4 KiB (10 us handshake, isends included) and
 *    a radix-2 tapered fat tree;
 *  - scenarios, timed as fractions of a per-trace scale T chosen so
 *    that their windows cover transfer starts: a degrade that fires
 *    after the run, a degrade and recover on all links, two
 *    overlapping node degrades, a node stall and its recover, two
 *    background flows, and one seeded fault model per seed 1-3
 *    mixing a node stall, a node degrade and machine-wide
 *    fail-stops;
 *  - checkpointing off and on (every 0.1 T). The fault-model cells
 *    contain fail-stops, so they run only with checkpointing on.
 *
 * The blocking ring deadlocks under rendezvous by construction
 * (every rank sends first), so its rendezvous cells are left out.
 *
 * A mismatch prints the cell's replayed row in table syntax, so a
 * deliberate re-pin is a reviewable copy of the printed rows. The
 * fat-tree cells' rateRecomputes, recomputesSkipped and
 * rearmsSkipped were re-pinned, every other column unedited, when
 * the link network stopped re-deriving bottlenecks that an
 * admission or removal could not move (the two visit counters
 * still summed to the same occupant visits), and again (39 cells)
 * when an admission burst's mins became one pass per lowered link
 * and a removal stopped walking flows that finish at its instant.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "net/topology.hh"
#include "res/fault_model.hh"
#include "scen/scenario.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "tracer/tracer.hh"

#include "helpers.hh"

namespace ovlsim {
namespace {

using scen::FailSemantics;
using scen::ScenarioConfig;
using scen::ScenarioEvent;
using scen::ScenEventKind;
using scen::ScenTarget;

/** What one cell pins. */
struct Row
{
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t transfers;
    std::uint64_t checkpoints;
    std::uint64_t restarts;
    std::uint64_t endHash;
    std::uint64_t heapPushes;
    std::uint64_t heapPops;
    std::uint64_t channelProbes;
    std::uint64_t queueScanSteps;
    std::uint64_t arenaHighWater;
    std::uint64_t rateRecomputes;
    std::uint64_t recomputesSkipped;
    std::uint64_t rearmsTaken;
    std::uint64_t rearmsSkipped;
    std::uint64_t scenarioEvents;
    std::uint64_t collSteps;
    std::uint64_t rollbackReworkNs;

    bool operator==(const Row &) const = default;
};

Row
rowOf(const sim::SimResult &r)
{
    const obs::EngineStats &s = r.stats;
    return {r.totalTime.ns(),     r.eventsProcessed,
            r.transfers,          r.checkpoints,
            r.restarts,           testing::endTimeHash(r),
            s.heapPushes,         s.heapPops,
            s.channelProbes,      s.queueScanSteps,
            s.arenaHighWater,     s.rateRecomputes,
            s.recomputesSkipped,  s.rearmsTaken,
            s.rearmsSkipped,      s.scenarioEvents,
            s.collSteps,          s.rollbackReworkNs};
}

/** `row` in table syntax, labelled with its cell. */
std::string
format(const Row &row, const std::string &cell)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "        // %s\n"
        "        {%" PRId64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", 0x%016" PRIx64 "ULL,\n"
        "         %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},\n",
        cell.c_str(), row.totalNs, row.events, row.transfers,
        row.checkpoints, row.restarts, row.endHash, row.heapPushes,
        row.heapPops, row.channelProbes, row.queueScanSteps,
        row.arenaHighWater, row.rateRecomputes,
        row.recomputesSkipped, row.rearmsTaken, row.rearmsSkipped,
        row.scenarioEvents, row.collSteps, row.rollbackReworkNs);
    return buf;
}

ScenarioEvent
event(double us, ScenEventKind kind, ScenTarget target,
      int node = -1)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = kind;
    ev.target = target;
    ev.nodeA = node;
    return ev;
}

ScenarioEvent
degrade(double us, ScenTarget target, int node, double bw,
        double lat)
{
    ScenarioEvent ev =
        event(us, ScenEventKind::degrade, target, node);
    ev.bandwidthFactor = bw;
    ev.latencyFactor = lat;
    return ev;
}

ScenarioEvent
background(double us, int src, int dst, Bytes bytes)
{
    ScenarioEvent ev =
        event(us, ScenEventKind::background, ScenTarget::route, src);
    ev.nodeB = dst;
    ev.bytes = bytes;
    return ev;
}

/** One named scenario of the matrix. */
struct Scenario
{
    std::string name;
    ScenarioConfig config;
    bool failStop = false;
};

res::FaultProcess
process(int node, res::FaultEffect effect, double mtbf_us,
        double mttr_us)
{
    res::FaultProcess proc;
    proc.target = node < 0 ? ScenTarget::all : ScenTarget::node;
    proc.nodeA = node;
    proc.effect = effect;
    proc.mtbfUs = mtbf_us;
    proc.mttrUs = mttr_us;
    return proc;
}

/** The scenario column, timed against scale `t` (us). */
std::vector<Scenario>
scenarios(double t)
{
    std::vector<Scenario> out;
    out.push_back({"unfired-degrade",
                   {"",
                    {degrade(100.0 * t, ScenTarget::all, -1, 0.5,
                             2.0)}}});
    out.push_back(
        {"degrade-recover-all",
         {"",
          {degrade(0.2 * t, ScenTarget::all, -1, 0.5, 2.0),
           event(0.6 * t, ScenEventKind::recover,
                 ScenTarget::all)}}});
    out.push_back(
        {"overlapping-node-degrades",
         {"",
          {degrade(0.1 * t, ScenTarget::node, 0, 0.5, 1.5),
           degrade(0.3 * t, ScenTarget::node, 1, 0.25, 2.0),
           event(0.5 * t, ScenEventKind::recover, ScenTarget::node,
                 0),
           event(0.8 * t, ScenEventKind::recover, ScenTarget::node,
                 1)}}});
    ScenarioEvent stall =
        event(0.3 * t, ScenEventKind::fail, ScenTarget::node, 1);
    stall.semantics = FailSemantics::stall;
    out.push_back({"node-stall",
                   {"",
                    {stall, event(0.45 * t, ScenEventKind::recover,
                                  ScenTarget::node, 1)}}});
    out.push_back({"background",
                   {"",
                    {background(0.2 * t, 0, 1, 256 * 1024),
                     background(0.4 * t, 1, 0, 1024 * 1024)}}});
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        res::FaultModel model;
        model.processes.push_back(process(
            0, res::FaultEffect::stall, 0.6 * t, 0.05 * t));
        res::FaultProcess slow = process(
            1, res::FaultEffect::degrade, 0.5 * t, 0.1 * t);
        slow.degradeFactor = 0.5;
        model.processes.push_back(slow);
        model.processes.push_back(
            process(-1, res::FaultEffect::failStop, t, 0.0));
        out.push_back({"faults-seed-" + std::to_string(seed),
                       res::generateScenario(
                           model, seed, SimTime::fromUs(4.0 * t)),
                       true});
    }
    return out;
}

/** The platform column: flat eager, flat rendezvous, fat tree. */
std::vector<std::pair<std::string, sim::PlatformConfig>>
platforms()
{
    auto rendezvous = sim::platforms::defaultCluster();
    rendezvous.eagerThreshold = 4096;
    rendezvous.rendezvousOverheadUs = 10.0;
    rendezvous.forceEagerIsend = false;
    return {{"flat-eager", sim::platforms::defaultCluster()},
            {"flat-rendezvous", rendezvous},
            {"fat-tree", sim::platforms::topologyCluster(
                             net::topologies::taperedFatTree(2))}};
}

/**
 * Replay every cell of `traces` (scale `t` us) in matrix order —
 * platform, scenario, checkpointing off then on — and compare it
 * with `pins`.
 */
void
expectTable(const trace::TraceSet &traces, double t,
            bool rendezvous_deadlocks, const std::vector<Row> &pins)
{
    sim::ReplaySession session;
    std::size_t k = 0;
    std::string replayed;
    for (const auto &[pname, base] : platforms()) {
        if (rendezvous_deadlocks && pname == "flat-rendezvous")
            continue;
        for (const Scenario &scen : scenarios(t)) {
            for (const bool ckpt : {false, true}) {
                if (scen.failStop && !ckpt)
                    continue;
                auto platform = base;
                platform.scenario = scen.config;
                if (ckpt) {
                    platform.checkpointIntervalUs = 0.1 * t;
                    platform.checkpointCostUs = 0.005 * t;
                    platform.restartCostUs = 0.01 * t;
                }
                const std::string cell = pname + " " + scen.name +
                    (ckpt ? " ckpt" : "");
                const Row row = rowOf(session.run(traces, platform));
                replayed += format(row, cell);
                if (k < pins.size()) {
                    EXPECT_TRUE(row == pins[k])
                        << "cell " << k << " (" << cell
                        << ") replayed as\n"
                        << format(row, cell);
                }
                ++k;
            }
        }
    }
    EXPECT_EQ(k, pins.size()) << "the whole table replayed as\n"
                              << replayed;
}

tracer::TraceBundle
sweep3dOneIteration()
{
    const auto &app = apps::findApp("sweep3d");
    auto params = app.defaults();
    params.iterations = 1;
    tracer::TracerConfig config;
    config.appName = "sweep3d";
    return tracer::traceApplication(params.ranks,
                                    app.program(params), config);
}

TEST(ScenarioPinTest, RingExchange)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    expectTable(bundle.traces, 2000.0, true, {
        // flat-eager unfired-degrade
        {2031324, 41, 12, 0, 0, 0x5471a650c5fe0b25ULL,
         41, 41, 24, 0, 12, 0, 0, 0, 0, 1, 0, 0},
        // flat-eager unfired-degrade ckpt
        {2131324, 52, 12, 10, 0, 0xd271e2bbc83944d5ULL,
         52, 52, 24, 0, 12, 0, 0, 0, 0, 1, 0, 0},
        // flat-eager degrade-recover-all
        {2295324, 42, 12, 0, 0, 0x62f5df2af9290b1dULL,
         42, 42, 24, 0, 12, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager degrade-recover-all ckpt
        {2405324, 54, 12, 11, 0, 0x9221ec6aea2bada5ULL,
         54, 54, 24, 0, 12, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager overlapping-node-degrades
        {3067324, 44, 12, 0, 0, 0x1ec1748ff2d5d2c5ULL,
         44, 44, 24, 1, 12, 0, 0, 0, 0, 4, 0, 0},
        // flat-eager overlapping-node-degrades ckpt
        {3217324, 60, 12, 15, 0, 0x91b38b70a64da6b5ULL,
         60, 60, 24, 1, 12, 0, 0, 0, 0, 4, 0, 0},
        // flat-eager node-stall
        {2331324, 42, 12, 0, 0, 0x29d2fff35aeca75bULL,
         42, 42, 24, 0, 12, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager node-stall ckpt
        {2441324, 54, 12, 11, 0, 0xe8fba283e2cdfb01ULL,
         54, 54, 24, 0, 12, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager background
        {5837108, 44, 12, 0, 0, 0xf770ce59fced8c75ULL,
         43, 43, 24, 8, 12, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager background ckpt
        {6127108, 74, 12, 29, 0, 0xd70896cd32416c4dULL,
         74, 74, 24, 8, 12, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager faults-seed-1 ckpt
        {2554954, 98, 12, 11, 1, 0x3d356dd7d519fc95ULL,
         104, 98, 24, 0, 12, 0, 0, 0, 0, 38, 0, 157630},
        // flat-eager faults-seed-2 ckpt
        {2937324, 101, 12, 12, 2, 0x5d88d9267e97da0cULL,
         121, 101, 32, 0, 12, 0, 0, 0, 0, 44, 0, 261186},
        // flat-eager faults-seed-3 ckpt
        {2605776, 84, 12, 11, 1, 0x6c0ee757b707e1ddULL,
         94, 84, 32, 0, 12, 0, 0, 0, 0, 28, 0, 208452},
        // fat-tree unfired-degrade
        {2031324, 41, 12, 0, 0, 0x5471a650c5fe0b25ULL,
         41, 41, 24, 0, 12, 12, 0, 0, 0, 1, 0, 0},
        // fat-tree unfired-degrade ckpt
        {2131324, 52, 12, 10, 0, 0xd271e2bbc83944d5ULL,
         52, 52, 24, 0, 12, 12, 0, 0, 0, 1, 0, 0},
        // fat-tree degrade-recover-all
        {2295324, 42, 12, 0, 0, 0x62f5df2af9290b1dULL,
         42, 42, 24, 0, 12, 12, 0, 0, 0, 2, 0, 0},
        // fat-tree degrade-recover-all ckpt
        {2405324, 54, 12, 11, 0, 0x9221ec6aea2bada5ULL,
         54, 54, 24, 0, 12, 12, 0, 0, 0, 2, 0, 0},
        // fat-tree overlapping-node-degrades
        {2620432, 49, 12, 0, 0, 0xffb061bb8416d772ULL,
         49, 49, 24, 0, 12, 17, 5, 2, 3, 4, 0, 0},
        // fat-tree overlapping-node-degrades ckpt
        {2750432, 63, 12, 13, 0, 0x18d0617a8e8407b8ULL,
         63, 63, 24, 0, 12, 17, 5, 2, 3, 4, 0, 0},
        // fat-tree node-stall
        {2331324, 44, 12, 0, 0, 0x29d2fff35aeca75bULL,
         44, 44, 24, 0, 12, 16, 0, 2, 2, 2, 0, 0},
        // fat-tree node-stall ckpt
        {2441324, 56, 12, 11, 0, 0xe8fba283e2cdfb01ULL,
         56, 56, 24, 0, 12, 16, 0, 2, 2, 2, 0, 0},
        // fat-tree background
        {2543324, 47, 12, 0, 0, 0x7fdca10e410dadc5ULL,
         47, 47, 24, 0, 12, 20, 18, 1, 5, 2, 0, 0},
        // fat-tree background ckpt
        {2663324, 60, 12, 12, 0, 0x6007f213aa241ac5ULL,
         60, 60, 24, 0, 12, 20, 18, 1, 5, 2, 0, 0},
        // fat-tree faults-seed-1 ckpt
        {2390923, 99, 12, 10, 1, 0x017311e2148a8231ULL,
         105, 99, 24, 0, 12, 14, 0, 2, 0, 38, 0, 157630},
        // fat-tree faults-seed-2 ckpt
        {2835819, 107, 12, 12, 2, 0x771877f5c854000cULL,
         123, 107, 32, 0, 12, 37, 0, 7, 14, 44, 0, 261186},
        // fat-tree faults-seed-3 ckpt
        {2367864, 87, 12, 10, 1, 0xa59b4d937f6d45ddULL,
         93, 87, 32, 0, 12, 22, 0, 2, 4, 28, 0, 208452},
    });
}

TEST(ScenarioPinTest, ProducerConsumer)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 400'000));
    expectTable(bundle.traces, 1000.0, false, {
        // flat-eager unfired-degrade
        {4714250, 7, 1, 0, 0, 0x3005258eb5ec6d45ULL,
         6, 6, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0},
        // flat-eager unfired-degrade ckpt
        {4949250, 55, 1, 47, 0, 0x3ef747551d9a7312ULL,
         55, 55, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0},
        // flat-eager degrade-recover-all
        {8628500, 8, 1, 0, 0, 0xebbb55baca99f6b9ULL,
         7, 7, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager degrade-recover-all ckpt
        {9058500, 95, 1, 86, 0, 0xdcea2752751d91f6ULL,
         95, 95, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager overlapping-node-degrades
        {32074000, 10, 1, 0, 0, 0x0ef319ff862c354cULL,
         9, 9, 2, 0, 1, 0, 0, 0, 0, 4, 0, 0},
        // flat-eager overlapping-node-degrades ckpt
        {33674000, 331, 1, 320, 0, 0xc9cea5f122eed22eULL,
         331, 331, 2, 0, 1, 0, 0, 0, 0, 4, 0, 0},
        // flat-eager node-stall
        {4764250, 8, 1, 0, 0, 0x5bfb8e6030d723a9ULL,
         7, 7, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager node-stall ckpt
        {4999250, 56, 1, 47, 0, 0x14de4b73fc562116ULL,
         56, 56, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager background
        {5538250, 10, 1, 0, 0, 0x499844b95bdfbd34ULL,
         9, 9, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager background ckpt
        {5813250, 66, 1, 55, 0, 0x7b95dd7d3d39348eULL,
         66, 66, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager faults-seed-1 ckpt
        {5576198, 102, 1, 49, 7, 0x16b4667522082378ULL,
         129, 102, 2, 0, 1, 0, 0, 0, 0, 46, 0, 353861},
        // flat-eager faults-seed-2 ckpt
        {5496392, 103, 1, 49, 4, 0xf2e1f95d255be1c5ULL,
         117, 103, 2, 0, 1, 0, 0, 0, 0, 47, 0, 307293},
        // flat-eager faults-seed-3 ckpt
        {5372908, 85, 1, 50, 1, 0x03e417ef47a3ccacULL,
         89, 85, 2, 0, 1, 0, 0, 0, 0, 28, 0, 104226},
        // flat-rendezvous unfired-degrade
        {4724250, 7, 1, 0, 0, 0x15fa92067c97f072ULL,
         6, 6, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0},
        // flat-rendezvous unfired-degrade ckpt
        {4959250, 55, 1, 47, 0, 0x7bb0beaa5f17b293ULL,
         55, 55, 2, 0, 1, 0, 0, 0, 0, 1, 0, 0},
        // flat-rendezvous degrade-recover-all
        {8638500, 8, 1, 0, 0, 0xab75665c5018def6ULL,
         7, 7, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous degrade-recover-all ckpt
        {9068500, 95, 1, 86, 0, 0x88c796c829d79b55ULL,
         95, 95, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous overlapping-node-degrades
        {32084000, 10, 1, 0, 0, 0x992a70d9a6ed9f6eULL,
         9, 9, 2, 0, 1, 0, 0, 0, 0, 4, 0, 0},
        // flat-rendezvous overlapping-node-degrades ckpt
        {33684000, 331, 1, 320, 0, 0xfa2d9449aa9e63b1ULL,
         331, 331, 2, 0, 1, 0, 0, 0, 0, 4, 0, 0},
        // flat-rendezvous node-stall
        {4764250, 8, 1, 0, 0, 0xfb606281dfc8ab5dULL,
         7, 7, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous node-stall ckpt
        {4999250, 56, 1, 47, 0, 0x6d8032a7d98f839cULL,
         56, 56, 2, 0, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous background
        {5548250, 10, 1, 0, 0, 0xf2154dd7bf3dffdeULL,
         9, 9, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous background ckpt
        {5823250, 66, 1, 55, 0, 0xc4ce29e27d5d40f7ULL,
         66, 66, 2, 1, 1, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous faults-seed-1 ckpt
        {5586198, 102, 1, 49, 7, 0xa01d38ffd1549f6eULL,
         129, 102, 2, 0, 1, 0, 0, 0, 0, 46, 0, 353861},
        // flat-rendezvous faults-seed-2 ckpt
        {5506392, 103, 1, 49, 4, 0x2092752e2e2984d0ULL,
         117, 103, 2, 0, 1, 0, 0, 0, 0, 47, 0, 307293},
        // flat-rendezvous faults-seed-3 ckpt
        {5382908, 85, 1, 50, 1, 0x87a62f8d09be3307ULL,
         89, 85, 2, 0, 1, 0, 0, 0, 0, 28, 0, 104226},
        // fat-tree unfired-degrade
        {4714250, 7, 1, 0, 0, 0x3005258eb5ec6d45ULL,
         6, 6, 2, 0, 1, 1, 0, 0, 0, 1, 0, 0},
        // fat-tree unfired-degrade ckpt
        {4949250, 55, 1, 47, 0, 0x3ef747551d9a7312ULL,
         55, 55, 2, 0, 1, 1, 0, 0, 0, 1, 0, 0},
        // fat-tree degrade-recover-all
        {4814250, 9, 1, 0, 0, 0xdec48445fbf4e5cdULL,
         8, 8, 2, 0, 1, 2, 1, 1, 0, 2, 0, 0},
        // fat-tree degrade-recover-all ckpt
        {5054250, 58, 1, 48, 0, 0xd0b8ca25d338f39eULL,
         58, 58, 2, 0, 1, 2, 1, 1, 0, 2, 0, 0},
        // fat-tree overlapping-node-degrades
        {5014250, 11, 1, 0, 0, 0x6e6fcda7d81164cdULL,
         10, 10, 2, 0, 1, 3, 0, 1, 1, 4, 0, 0},
        // fat-tree overlapping-node-degrades ckpt
        {5264250, 62, 1, 50, 0, 0x9140dfb5d0e24befULL,
         62, 62, 2, 0, 1, 3, 0, 1, 1, 4, 0, 0},
        // fat-tree node-stall
        {4764250, 8, 1, 0, 0, 0x5bfb8e6030d723a9ULL,
         7, 7, 2, 0, 1, 2, 0, 1, 0, 2, 0, 0},
        // fat-tree node-stall ckpt
        {4999250, 56, 1, 47, 0, 0x14de4b73fc562116ULL,
         56, 56, 2, 0, 1, 2, 0, 1, 0, 2, 0, 0},
        // fat-tree background
        {5538250, 12, 1, 0, 0, 0x499844b95bdfbd34ULL,
         11, 11, 2, 0, 1, 4, 5, 1, 0, 2, 0, 0},
        // fat-tree background ckpt
        {5813250, 68, 1, 55, 0, 0x7b95dd7d3d39348eULL,
         68, 68, 2, 0, 1, 4, 5, 1, 0, 2, 0, 0},
        // fat-tree faults-seed-1 ckpt
        {6016851, 107, 1, 53, 7, 0xb3541a07b1108f1cULL,
         128, 107, 2, 0, 1, 31, 0, 0, 30, 46, 0, 353861},
        // fat-tree faults-seed-2 ckpt
        {5945584, 108, 1, 53, 4, 0xaed80390675508f6ULL,
         120, 108, 2, 0, 1, 26, 0, 0, 25, 47, 0, 307293},
        // fat-tree faults-seed-3 ckpt
        {5684681, 89, 1, 53, 1, 0x143d89a2cb5c4fa4ULL,
         92, 89, 2, 0, 1, 21, 0, 0, 20, 28, 0, 104226},
    });
}

TEST(ScenarioPinTest, Sweep3dOneIteration)
{
    const auto bundle = sweep3dOneIteration();
    expectTable(bundle.traces, 14000.0, false, {
        // flat-eager unfired-degrade
        {14333776, 1040, 384, 0, 0, 0xa9a04f19a0a24c3eULL,
         1038, 1038, 768, 400, 384, 0, 0, 0, 0, 1, 0, 0},
        // flat-eager unfired-degrade ckpt
        {15033776, 1051, 384, 10, 0, 0x0c764d7417d4a10cULL,
         1051, 1051, 768, 400, 384, 0, 0, 0, 0, 1, 0, 0},
        // flat-eager degrade-recover-all
        {15091776, 1041, 384, 0, 0, 0xcc504e8a7162a9abULL,
         1039, 1039, 768, 396, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager degrade-recover-all ckpt
        {15791776, 1052, 384, 10, 0, 0x43eb984a740083c6ULL,
         1050, 1050, 768, 396, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager overlapping-node-degrades
        {14963080, 1043, 384, 0, 0, 0xfeced0655ee6991dULL,
         1041, 1041, 768, 377, 384, 0, 0, 0, 0, 4, 0, 0},
        // flat-eager overlapping-node-degrades ckpt
        {15663080, 1054, 384, 10, 0, 0x812cb43e921a17cfULL,
         1052, 1052, 768, 377, 384, 0, 0, 0, 0, 4, 0, 0},
        // flat-eager node-stall
        {16312544, 1041, 384, 0, 0, 0x195fc7a0b9c12803ULL,
         1039, 1039, 768, 399, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager node-stall ckpt
        {17082544, 1053, 384, 11, 0, 0x395a0a86d9c7af52ULL,
         1051, 1051, 768, 399, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager background
        {15354288, 1043, 384, 0, 0, 0xa2aa1e8e9d4b14bcULL,
         1041, 1041, 768, 411, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager background ckpt
        {16054288, 1054, 384, 10, 0, 0x96aad28e81430578ULL,
         1053, 1053, 768, 411, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-eager faults-seed-1 ckpt
        {16452559, 1200, 384, 10, 1, 0x9e4fa33e889a2126ULL,
         1215, 1199, 857, 431, 384, 0, 0, 0, 0, 38, 0, 1103414},
        // flat-eager faults-seed-2 ckpt
        {17255278, 1289, 384, 10, 2, 0x925f857323dcd5f6ULL,
         1328, 1287, 903, 494, 384, 0, 0, 0, 0, 44, 0, 1828309},
        // flat-eager faults-seed-3 ckpt
        {16670246, 1222, 384, 10, 1, 0xf3318f560923efd6ULL,
         1235, 1221, 872, 438, 384, 0, 0, 0, 0, 28, 0, 1459166},
        // flat-rendezvous unfired-degrade
        {18537776, 1040, 384, 0, 0, 0xffddc77b2e6637feULL,
         1038, 1038, 768, 0, 384, 0, 0, 0, 0, 1, 0, 0},
        // flat-rendezvous unfired-degrade ckpt
        {19447776, 1054, 384, 13, 0, 0x8babe9c624e27658ULL,
         1053, 1053, 768, 0, 384, 0, 0, 0, 0, 1, 0, 0},
        // flat-rendezvous degrade-recover-all
        {20048248, 1041, 384, 0, 0, 0x4cdcbc6f7c154efdULL,
         1039, 1039, 768, 0, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous degrade-recover-all ckpt
        {21028248, 1056, 384, 14, 0, 0x9528ab239be8e313ULL,
         1056, 1056, 768, 0, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous overlapping-node-degrades
        {20807776, 1043, 384, 0, 0, 0x9eec5c8da5c2e2dfULL,
         1042, 1042, 768, 0, 384, 0, 0, 0, 0, 4, 0, 0},
        // flat-rendezvous overlapping-node-degrades ckpt
        {21787776, 1058, 384, 14, 0, 0x1243f6f0c5c06b55ULL,
         1057, 1057, 768, 0, 384, 0, 0, 0, 0, 4, 0, 0},
        // flat-rendezvous node-stall
        {20637776, 1041, 384, 0, 0, 0xcda5a616b81e25a4ULL,
         1039, 1039, 768, 0, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous node-stall ckpt
        {21617776, 1056, 384, 14, 0, 0x2d8e8b237f2237dfULL,
         1055, 1055, 768, 0, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous background
        {22719792, 1043, 384, 0, 0, 0x5428499639dbccf5ULL,
         1040, 1040, 768, 3, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous background ckpt
        {23839792, 1060, 384, 16, 0, 0x139f6d80410ad243ULL,
         1058, 1058, 768, 3, 384, 0, 0, 0, 0, 2, 0, 0},
        // flat-rendezvous faults-seed-1 ckpt
        {20804606, 1168, 384, 13, 1, 0xdb7a2abb80a225f5ULL,
         1184, 1167, 825, 0, 384, 0, 0, 0, 0, 38, 0, 1103414},
        // flat-rendezvous faults-seed-2 ckpt
        {25186111, 1199, 384, 15, 2, 0x075dbcccdc93f888ULL,
         1228, 1197, 842, 0, 384, 0, 0, 0, 0, 44, 0, 1828309},
        // flat-rendezvous faults-seed-3 ckpt
        {21117414, 1160, 384, 13, 1, 0x6eba5ec5b5e6a8e0ULL,
         1172, 1159, 825, 0, 384, 0, 0, 0, 0, 28, 0, 1459166},
        // fat-tree unfired-degrade
        {14441776, 1232, 384, 0, 0, 0x55aa6a4babc211c9ULL,
         1230, 1230, 768, 0, 384, 448, 1088, 0, 64, 1, 0, 0},
        // fat-tree unfired-degrade ckpt
        {15141776, 1243, 384, 10, 0, 0x1fd3540dbd34af38ULL,
         1243, 1243, 768, 0, 384, 448, 1088, 0, 64, 1, 0, 0},
        // fat-tree degrade-recover-all
        {15369969, 1299, 384, 0, 0, 0x005088a19beef0cfULL,
         1298, 1298, 768, 0, 384, 572, 1644, 55, 133, 2, 0, 0},
        // fat-tree degrade-recover-all ckpt
        {16069969, 1310, 384, 10, 0, 0x645320947c47f7a8ULL,
         1309, 1309, 768, 0, 384, 572, 1644, 55, 133, 2, 0, 0},
        // fat-tree overlapping-node-degrades
        {15119553, 1253, 384, 0, 0, 0x6edc9832ce4d68d6ULL,
         1251, 1251, 768, 0, 384, 507, 1288, 35, 88, 4, 0, 0},
        // fat-tree overlapping-node-degrades ckpt
        {15819553, 1264, 384, 10, 0, 0x826d6ff05d4ff119ULL,
         1262, 1262, 768, 0, 384, 507, 1288, 35, 88, 4, 0, 0},
        // fat-tree node-stall
        {16420544, 1227, 384, 0, 0, 0xd844bb8bfc839171ULL,
         1224, 1224, 768, 0, 384, 449, 1101, 2, 63, 2, 0, 0},
        // fat-tree node-stall ckpt
        {17190544, 1239, 384, 11, 0, 0x6d0bb00a01ac5bc6ULL,
         1237, 1237, 768, 0, 384, 449, 1101, 2, 63, 2, 0, 0},
        // fat-tree background
        {14528756, 1255, 384, 0, 0, 0x5f3acd189e14f4c4ULL,
         1253, 1253, 768, 0, 384, 493, 1241, 19, 88, 2, 0, 0},
        // fat-tree background ckpt
        {15228756, 1266, 384, 10, 0, 0xfc78d9fe252d864fULL,
         1265, 1265, 768, 0, 384, 493, 1241, 19, 88, 2, 0, 0},
        // fat-tree faults-seed-1 ckpt
        {16776656, 1432, 384, 10, 1, 0x99eda84d4e4b99b5ULL,
         1446, 1430, 858, 0, 384, 537, 1298, 24, 87, 38, 0, 1103414},
        // fat-tree faults-seed-2 ckpt
        {17363279, 1510, 384, 10, 2, 0x55cd865e3ed1931dULL,
         1550, 1508, 907, 0, 384, 604, 1499, 24, 125, 44, 0, 1828309},
        // fat-tree faults-seed-3 ckpt
        {16840360, 1476, 384, 10, 1, 0x8ef632a365bbc209ULL,
         1493, 1475, 884, 0, 384, 576, 1373, 31, 103, 28, 0, 1459166},
    });
}

} // namespace
} // namespace ovlsim
