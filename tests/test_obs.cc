/**
 * @file
 * Tests for the observability layer (src/obs/): always-on engine
 * counters pinned on closed-form replays, cache introspection,
 * campaign aggregation that stays bit-identical across sessions and
 * thread counts, host-span recording under parallel load, and a
 * round-trip of the Chrome trace-event export through a real JSON
 * parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "coll/schedule.hh"
#include "core/analysis.hh"
#include "gen/gen.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "obs/chrome_trace.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"

#include "helpers.hh"

namespace ovlsim {
namespace {

using scen::FailSemantics;
using scen::ScenarioEvent;
using scen::ScenEventKind;
using scen::ScenTarget;
using trace::RecvRec;
using trace::SendRec;
using trace::TraceSet;

/** Default cluster with the checkpoint/restart cost model set. */
sim::PlatformConfig
ckptPlatform(double interval_us, double cost_us, double restart_us)
{
    auto platform = sim::platforms::defaultCluster();
    platform.checkpointIntervalUs = interval_us;
    platform.checkpointCostUs = cost_us;
    platform.restartCostUs = restart_us;
    return platform;
}

ScenarioEvent
nodeFail(double us, int node)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::fail;
    ev.target = ScenTarget::node;
    ev.nodeA = node;
    ev.semantics = FailSemantics::failStop;
    return ev;
}

// ---------------------------------------------------------------
// EngineStats: the merge algebra and the closed-form counter pins.
// ---------------------------------------------------------------

TEST(EngineStatsTest, MergeAddsCountersAndMaxesTheHighWater)
{
    obs::EngineStats a;
    a.heapPushes = 10;
    a.heapPops = 10;
    a.channelProbes = 4;
    a.queueScanSteps = 6;
    a.scenarioScanSteps = 8;
    a.arenaHighWater = 3;
    a.rollbackReworkNs = 100;
    a.snapshotBytes = 4'096;
    obs::EngineStats b;
    b.heapPushes = 5;
    b.heapPops = 5;
    b.queueScanSteps = 3;
    b.arenaHighWater = 7;
    b.collSteps = 2;
    b.snapshotBytes = 1'024;

    obs::EngineStats ab = a;
    ab.merge(b);
    EXPECT_EQ(ab.heapPushes, 15u);
    EXPECT_EQ(ab.heapPops, 15u);
    EXPECT_EQ(ab.channelProbes, 4u);
    EXPECT_EQ(ab.queueScanSteps, 9u);
    EXPECT_EQ(ab.scenarioScanSteps, 8u);
    EXPECT_EQ(ab.arenaHighWater, 7u);
    EXPECT_EQ(ab.collSteps, 2u);
    EXPECT_EQ(ab.rollbackReworkNs, 100u);
    EXPECT_EQ(ab.snapshotBytes, 5'120u);

    // Commutative: fold order cannot matter for campaign rows.
    obs::EngineStats ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba);
    EXPECT_NE(ab.toString().find("queue_scan=9"), std::string::npos);
    EXPECT_NE(ab.toString().find("scen_scan=8"), std::string::npos);
    EXPECT_NE(ab.toString().find("snapshot_bytes=5120"),
              std::string::npos);
}

TEST(EngineStatsTest, ClosedFormPingPinsTheCounters)
{
    // One eager send/recv pair: exactly one transfer in the arena
    // and one channel probe per endpoint. No scenario, no
    // collectives, no rollbacks.
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});
    const auto result =
        sim::simulate(traces, sim::platforms::defaultCluster());

    const obs::EngineStats &stats = result.stats;
    EXPECT_EQ(stats.channelProbes, 2u);
    EXPECT_EQ(stats.queueScanSteps, 0u);
    EXPECT_EQ(stats.arenaHighWater, 1u);
    EXPECT_EQ(stats.heapPops, stats.heapPushes);
    EXPECT_GT(stats.heapPushes, 0u);
    EXPECT_EQ(stats.scenarioEvents, 0u);
    EXPECT_EQ(stats.collSteps, 0u);
    EXPECT_EQ(stats.rollbackReworkNs, 0u);

    // A replay is deterministic, so its counters are too.
    const auto again =
        sim::simulate(traces, sim::platforms::defaultCluster());
    EXPECT_TRUE(again.stats == stats);
}

TEST(EngineStatsTest, AdmissionScansVisitOnlyTheFreedLists)
{
    // The single-bus FIFO scenario of test_engine_determinism, on
    // one rank per node. Rank 0's 1 MB rendezvous to rank 1 takes
    // the bus at t = 0; rank 3's 1 MB rendezvous to rank 2 (T1)
    // queues on the bus, out[3] and in[2] lists.
    //  - T0 injects: its release frees the bus, out[0] and in[1].
    //    Woken rank 0 posts a 1 KB eager send to rank 2 (T2), which
    //    first runs the scan: the bus list holds T1 (1 visit, it
    //    starts); out[0] and in[1] are empty. T2 then finds the bus
    //    taken and queues on the bus, out[0] and in[2] lists.
    //  - T1 injects, freeing the bus, out[3] and in[2]: out[3] and
    //    in[2] still hold the started T1 (2 unlink visits), then T2
    //    heads both the bus and in[2] lists (1 visit, it starts).
    //  - T2 injects, freeing the bus, out[0] and in[2]: out[0]
    //    still holds the started T2 (1 unlink visit).
    // 5 visits in all.
    TraceSet traces("fifo", 4);
    traces.rankTrace(0).append(SendRec{1, 1, 1'000'000, 1});
    traces.rankTrace(0).append(SendRec{2, 2, 1'000, 2});
    traces.rankTrace(1).append(RecvRec{0, 1, 1'000'000, 1});
    traces.rankTrace(3).append(SendRec{2, 3, 1'000'000, 3});
    traces.rankTrace(2).append(RecvRec{3, 3, 1'000'000, 3});
    traces.rankTrace(2).append(RecvRec{0, 2, 1'000, 2});

    auto platform = sim::platforms::defaultCluster();
    platform.buses = 1;
    platform.eagerThreshold = 4096;
    const auto result = sim::simulate(traces, platform);
    EXPECT_EQ(result.stats.queueScanSteps, 5u);
    EXPECT_EQ(result.totalTime.ns(), 7'824'406);

    // Unlimited links and bus: nothing ever queues.
    platform.buses = 0;
    platform.outLinksPerNode = 0;
    platform.inLinksPerNode = 0;
    EXPECT_EQ(sim::simulate(traces, platform).stats.queueScanSteps,
              0u);
}

TEST(EngineStatsTest, FlatScenarioPricingCostDoesNotGrowWithTheStream)
{
    // A flat ping-pong under N fail-stop events placed after the app
    // ends. Each remote transfer's pricing reads the live entries
    // (none) and, per pass, the first pending event, which already
    // lies past the transfer's window: 2 entries per transfer for
    // every N, where a rescan of the stream would read 2N. The
    // fail-stops fire after every rank finished, so rank times equal
    // the scenario-free replay's.
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    traces.rankTrace(0).append(RecvRec{1, 2, 64'000, 2});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});
    traces.rankTrace(1).append(SendRec{0, 2, 64'000, 2});
    const auto base = sim::platforms::defaultCluster();
    const auto nominal = sim::simulate(traces, base);
    EXPECT_EQ(nominal.stats.scenarioScanSteps, 0u);

    for (const int n : {1, 64, 1024}) {
        SCOPED_TRACE("fail-stops: " + std::to_string(n));
        auto platform = base;
        for (int k = 0; k < n; ++k) {
            platform.scenario.events.push_back(
                nodeFail(1e6 + static_cast<double>(k), k % 2));
        }
        const auto result = sim::simulate(traces, platform);
        ASSERT_EQ(result.transfers, 2u);
        EXPECT_EQ(result.stats.scenarioScanSteps, 2u * 2u);
        EXPECT_EQ(result.stats.scenarioEvents,
                  static_cast<std::uint64_t>(n));
        ASSERT_EQ(result.perRank.size(), nominal.perRank.size());
        for (std::size_t r = 0; r < nominal.perRank.size(); ++r) {
            const auto &got = result.perRank[r];
            const auto &want = nominal.perRank[r];
            EXPECT_EQ(got.endTime, want.endTime);
            EXPECT_EQ(got.sendBlockedTime, want.sendBlockedTime);
            EXPECT_EQ(got.recvBlockedTime, want.recvBlockedTime);
        }
        EXPECT_EQ(result.totalTime, nominal.totalTime);
    }
}

TEST(EngineStatsTest, HeapBalancesOnRollbackFreeContendedReplays)
{
    // Every event pushed drains through the single pop site when no
    // rollback ever clears the heap; the link network recomputes
    // rates on a contended fabric.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 500'000, 4));
    auto platform = sim::platforms::defaultCluster();
    platform.topology = net::topologies::taperedFatTree(4, 0.5);

    const auto result = sim::simulate(bundle.traces, platform);
    EXPECT_EQ(result.stats.heapPops, result.stats.heapPushes);
    EXPECT_GT(result.stats.rateRecomputes, 0u);
    EXPECT_GT(result.stats.channelProbes, 0u);

    // A reusable session reports the same counters as the one-shot
    // entry point.
    sim::ReplaySession session;
    const auto viaSession = session.run(bundle.traces, platform);
    EXPECT_TRUE(viaSession.stats == result.stats);
}

TEST(EngineStatsTest, LinkNetworkVisitsOnlyFlowsSharingALink)
{
    // Radix-2 fat tree over 8 nodes: 0 -> 1 and 2 -> 3 each stay
    // under their own leaf (injection + ejection link), so the two
    // routes are disjoint. An admission walks its own hops (one
    // bottleneck walk) and lists no link: neither holds another
    // occupant.
    const auto topo =
        net::compileTopology(net::topologies::fatTree(2), 8);
    obs::EngineStats stats;
    net::LinkNetwork network;
    network.configure(&topo, 1000.0); // 1 B/ns
    network.setStats(&stats);
    network.start(0, 0, 1, 4096, SimTime::zero());
    network.start(1, 2, 3, 8192, SimTime::zero());
    EXPECT_EQ(stats.rateRecomputes, 2u);
    EXPECT_EQ(stats.recomputesSkipped, 0u);

    // Flow 0 completes; flow 1 shares none of its links and is not
    // visited at all: no recompute, no repeat visit, no re-arm
    // decision.
    EXPECT_TRUE(network.onFinishEvent(0, SimTime::fromNs(4096)).done);
    EXPECT_EQ(stats.rateRecomputes, 2u);
    EXPECT_EQ(stats.recomputesSkipped, 0u);
    EXPECT_EQ(stats.rearmsTaken, 0u);
    EXPECT_EQ(stats.rearmsSkipped, 0u);
    EXPECT_TRUE(network.pendingReschedules().empty());

    // A flow joining flow 1's route walks its own hops and lists
    // both links, which now hold both flows. Cancelling it at once
    // first takes the burst's mins (2 + 2 visits), then frees the
    // two links, whose share before the leave (1/2) is flow 1's
    // rate, so flow 1 is walked on the first list and repeated on
    // the second; its share returns to the full link, whose finish
    // its armed event already covers, so the re-arm is skipped.
    network.start(2, 2, 3, 4096, SimTime::fromNs(4096));
    EXPECT_EQ(stats.rateRecomputes, 3u);
    EXPECT_EQ(stats.recomputesSkipped, 0u);
    network.cancel(2, SimTime::fromNs(4096));
    EXPECT_EQ(stats.rateRecomputes, 4u);
    EXPECT_EQ(stats.recomputesSkipped, 5u);
    EXPECT_EQ(stats.rearmsTaken, 0u);
    EXPECT_EQ(stats.rearmsSkipped, 1u);
}

/** The tapered radix-4 fat tree over 16 nodes at 3000 MB/s: NIC
 * links carry 3 B/ns, leaf uplinks and downlinks 6 B/ns. */
struct TaperedNet
{
    net::CompiledTopology topo = net::compileTopology(
        net::topologies::taperedFatTree(4, 0.5), 16);
    obs::EngineStats stats;
    net::LinkNetwork network;

    TaperedNet()
    {
        network.configure(&topo, 3000.0);
        network.setStats(&stats);
    }
};

TEST(EngineStatsTest, LinkNetworkWalksOnlyTheFlowsAChangeBottlenecks)
{
    // R (0 -> 4), X (1 -> 5) and Y (2 -> 6) cross leaf 0's uplink
    // and leaf 1's downlink; W (2 -> 3) shares Y's injection link
    // and stays under leaf 0.
    TaperedNet t;
    net::LinkNetwork &network = t.network;
    const obs::EngineStats &stats = t.stats;
    const auto r = network.routeOf(0, 4);
    const auto x = network.routeOf(1, 5);
    const auto y = network.routeOf(2, 6);
    const auto w = network.routeOf(2, 3);
    ASSERT_EQ(r.size(), 4u);
    ASSERT_EQ(w.size(), 2u);
    ASSERT_TRUE(x[1] == r[1] && y[1] == r[1] && x[2] == r[2] &&
                y[2] == r[2]);
    ASSERT_EQ(y[0], w[0]);

    // Each admission walks its own hops once (one recompute). X
    // lists the uplink and downlink, Y the injection link it shares
    // with W; the mins wait for the first call at another instant.
    const SimTime t0 = SimTime::zero();
    EXPECT_EQ(network.start(0, 0, 4, 12'000, t0).ns(), 4000);
    EXPECT_EQ(network.start(1, 1, 5, 12'000, t0).ns(), 4000);
    EXPECT_EQ(network.start(2, 2, 3, 12'000, t0).ns(), 4000);
    // Y's bottleneck is its injection link, shared with W (1.5 B/ns).
    EXPECT_EQ(network.start(3, 2, 6, 12'000, t0).ns(), 8000);
    EXPECT_EQ(stats.rateRecomputes, 4u);
    EXPECT_EQ(stats.recomputesSkipped, 0u);

    // X's finish event first takes the burst's mins: 3 occupants on
    // each of the uplink and downlink, 2 on Y's injection link. X
    // falls from 3 to the uplink's share, 6 / 3 = 2 B/ns, with no
    // walk of its hops: its event at 4000 ns fires early with 4000
    // bytes left, 2000 ns more.
    const auto early = network.onFinishEvent(1, SimTime::fromNs(4000));
    EXPECT_FALSE(early.done);
    EXPECT_EQ(early.retry.ns(), 6000);
    EXPECT_EQ(stats.rateRecomputes, 4u);
    EXPECT_EQ(stats.recomputesSkipped, 8u);

    // Cancelling R frees the uplink and downlink, whose share before
    // the leave (2 B/ns) is X's rate but not Y's (1.5 B/ns, set by
    // the NIC link it shares with W). Of the 4 occupant visits only
    // X's first is a walk: it speeds up to 3 B/ns and re-arms at
    // 4000 + ceil(4000 / 3). Y is not recomputed and takes no re-arm
    // decision.
    network.cancel(0, SimTime::fromNs(4000));
    EXPECT_EQ(stats.rateRecomputes, 5u);
    EXPECT_EQ(stats.recomputesSkipped, 11u);
    EXPECT_EQ(stats.rearmsTaken, 1u);
    EXPECT_EQ(stats.rearmsSkipped, 0u);
    const auto rearms = network.pendingReschedules();
    ASSERT_EQ(rearms.size(), 1u);
    EXPECT_EQ(rearms[0].first, 1u);
    EXPECT_EQ(rearms[0].second.ns(), 5334);
}

TEST(EngineStatsTest, LinkNetworkTakesOneMinPassPerAdmissionBurst)
{
    // Four equal flows k -> 4 + k (k = 0..3) admitted at one instant
    // all cross leaf 0's uplink and leaf 1's downlink. Each walks its
    // own hops; the two shared links are listed once, at the second
    // admission. Their mins wait for the first finish event, which
    // visits each listed link's 4 occupants once: 8 visits, where
    // one min per occupant per admission would visit the triangular
    // 1 + 2 + 3 + 4 = 10 on each (28 with the walked hops).
    TaperedNet t;
    net::LinkNetwork &network = t.network;
    const obs::EngineStats &stats = t.stats;
    const auto first = network.routeOf(0, 4);
    std::vector<std::int64_t> armed;
    for (int k = 0; k < 4; ++k) {
        const auto route = network.routeOf(k, 4 + k);
        ASSERT_TRUE(route[1] == first[1] && route[2] == first[2]);
        armed.push_back(network.start(static_cast<std::uint32_t>(k), k,
                                      4 + k, 12'000, SimTime::zero())
                            .ns());
    }
    // Admitted at shares 3, 3, 2 and 1.5 B/ns.
    EXPECT_EQ(armed, (std::vector<std::int64_t>{4000, 4000, 6000, 8000}));
    EXPECT_EQ(stats.rateRecomputes, 4u);
    EXPECT_EQ(stats.recomputesSkipped, 0u);

    // Flow 0's event fires early: the pass lowered it to 1.5 B/ns,
    // so 6000 bytes are left, 4000 ns more.
    const auto early = network.onFinishEvent(0, SimTime::fromNs(4000));
    EXPECT_FALSE(early.done);
    EXPECT_EQ(early.retry.ns(), 8000);
    EXPECT_EQ(stats.rateRecomputes, 4u);
    EXPECT_EQ(stats.recomputesSkipped, 8u);
    // A second call at the same instant finds nothing listed.
    EXPECT_FALSE(network.onFinishEvent(1, SimTime::fromNs(4000)).done);
    EXPECT_EQ(stats.recomputesSkipped, 8u);
    EXPECT_EQ(stats.rearmsTaken + stats.rearmsSkipped, 0u);
}

TEST(EngineStatsTest, LinkNetworkWalksOnlyTheSurvivorsOfARound)
{
    // Three equal 12 KB flows A0-A2 (k -> 4 + k) and a 24 KB flow Z
    // (3 -> 7) admitted at one instant share the uplink and
    // downlink at 1.5 B/ns each. A0-A2 all finish at 8000 ns, when
    // Z has 12 KB left.
    TaperedNet t;
    net::LinkNetwork &network = t.network;
    const obs::EngineStats &stats = t.stats;
    for (std::uint32_t k = 0; k < 3; ++k)
        network.start(k, static_cast<int>(k), static_cast<int>(4 + k),
                      12'000, SimTime::zero());
    EXPECT_EQ(network.start(3, 3, 7, 24'000, SimTime::zero()).ns(),
              16'000);
    // The A flows' early events at 4000 and 6000 ns take the burst's
    // mins (8 visits) and re-arm them all at 8000.
    for (const std::uint32_t k : {0u, 1u, 2u}) {
        const SimTime at = SimTime::fromNs(k == 2 ? 6000 : 4000);
        const auto early = network.onFinishEvent(k, at);
        ASSERT_FALSE(early.done);
        EXPECT_EQ(early.retry.ns(), 8000);
    }
    EXPECT_EQ(stats.rateRecomputes, 4u);
    EXPECT_EQ(stats.recomputesSkipped, 8u);

    // The round at 8000 ns: each completion frees the two shared
    // links. The other A flows there are done and due at this
    // instant, so they are skipped with no walk and no re-arm
    // decision; only Z, bottlenecked on the freed uplink, is walked
    // (once per completion, repeated on the downlink). Z speeds up
    // to 2 then 3 B/ns and re-arms at 8000 + 12000 / 2 = 14000,
    // then at 8000 + 12000 / 3 = 12000; the third completion leaves
    // its rate at the 3 B/ns of its NIC links.
    const SimTime round = SimTime::fromNs(8000);
    std::vector<std::int64_t> rearms;
    for (const std::uint32_t k : {0u, 1u, 2u}) {
        ASSERT_TRUE(network.onFinishEvent(k, round).done);
        for (const auto &[id, finish] : network.pendingReschedules()) {
            EXPECT_EQ(id, 3u);
            rearms.push_back(finish.ns());
        }
        network.clearPendingReschedules();
    }
    EXPECT_EQ(rearms, (std::vector<std::int64_t>{14'000, 12'000}));
    // Walks: Z three times; visits skipped: A1, A2 and Z's repeat,
    // then A2 and Z's repeat, then Z's repeat (5 + 3 + 1).
    EXPECT_EQ(stats.rateRecomputes, 4u + 3u);
    EXPECT_EQ(stats.recomputesSkipped, 8u + 9u);
    EXPECT_EQ(stats.rearmsTaken, 2u);
    EXPECT_EQ(stats.rearmsSkipped, 1u);
    EXPECT_TRUE(network.onFinishEvent(3, SimTime::fromNs(12'000)).done);
    EXPECT_EQ(network.totalLoad(), 0u);
}

TEST(EngineStatsTest, RollbackChargesReworkAndKeepsPushesAhead)
{
    // The closed-form restart pin of test_res: I = 60, C = 5,
    // R = 7 over a single 100 us burst, fail-stop at machine
    // progress 80 (wall 85). The rollback restores the checkpoint
    // imaged at wall 65 and re-enters at 85 + 7, so the rework
    // delta is exactly 27 us.
    auto platform = ckptPlatform(60.0, 5.0, 7.0);
    platform.scenario.events.push_back(nodeFail(80.0, 0));
    const auto bundle = testing::traceOf(
        1, [](vm::VmContext &ctx) { ctx.compute(100'000); });

    const auto result = sim::simulate(bundle.traces, platform);
    EXPECT_EQ(result.restarts, 1u);
    EXPECT_EQ(result.stats.rollbackReworkNs,
              static_cast<std::uint64_t>(
                  SimTime::fromUs(27.0).ns()));
    // The restart discards counted pushes with the cleared heap,
    // so pushes can only run ahead of pops, never behind.
    EXPECT_GE(result.stats.heapPushes, result.stats.heapPops);
    EXPECT_GT(result.stats.scenarioEvents, 0u);
}

/**
 * `messages` eager messages around a ring of four ranks, each on tag
 * 7 or, with `tag_per_message`, on a tag of its own. Every channel
 * carries its messages in posting order, so both forms pair and
 * replay identically.
 */
TraceSet
ringMessages(int messages, bool tag_per_message)
{
    TraceSet traces("ring", 4);
    for (int m = 0; m < messages; ++m) {
        const Rank src = m % 4;
        const Rank dst = (src + 1) % 4;
        const Tag tag = tag_per_message ? m : 7;
        const auto id = static_cast<trace::MessageId>(m + 1);
        traces.rankTrace(src).append(trace::CpuBurst{20'000});
        traces.rankTrace(src).append(SendRec{dst, tag, 1'024, id});
        traces.rankTrace(dst).append(RecvRec{src, tag, 1'024, id});
    }
    return traces;
}

/** ckptPlatform with a fail-stop of node 1 at `fail_us`. */
sim::PlatformConfig
failStopPlatform(double fail_us)
{
    auto platform = ckptPlatform(500.0, 5.0, 7.0);
    platform.scenario.events.push_back(nodeFail(fail_us, 1));
    return platform;
}

TEST(EngineStatsTest, SnapshotBytesCountImagesAndRestores)
{
    const auto traces = ringMessages(300, false);
    EXPECT_EQ(sim::simulate(traces, sim::platforms::defaultCluster())
                  .stats.snapshotBytes,
              0u);

    const auto platform = failStopPlatform(2'000.0);
    const auto result = sim::simulate(traces, platform);
    ASSERT_GE(result.checkpoints, 2u);
    ASSERT_EQ(result.restarts, 1u);
    EXPECT_GT(result.stats.snapshotBytes, 0u);

    // A session that replayed other work first, and repeats, image
    // exactly as much as the one-shot replay.
    sim::ReplaySession session;
    session.run(ringMessages(40, true), failStopPlatform(300.0));
    for (int repeat = 0; repeat < 2; ++repeat) {
        EXPECT_EQ(session.run(traces, platform).stats.snapshotBytes,
                  result.stats.snapshotBytes);
    }
}

TEST(EngineStatsTest, SnapshotBytesDoNotGrowWithTheTagCount)
{
    // Matching state is one slot per paired message, so giving
    // every message a tag of its own images nothing extra.
    const auto platform = failStopPlatform(2'000.0);
    const auto shared = sim::simulate(ringMessages(300, false), platform);
    const auto unique = sim::simulate(ringMessages(300, true), platform);
    ASSERT_EQ(unique.totalTime, shared.totalTime);
    ASSERT_GE(shared.checkpoints, 2u);
    EXPECT_EQ(unique.stats.snapshotBytes, shared.stats.snapshotBytes);
}

// ---------------------------------------------------------------
// Cache introspection.
// ---------------------------------------------------------------

TEST(CacheStatsTest, ScheduleCacheCountsHitsMissesAndClears)
{
    coll::clearScheduleCache();
    obs::resetCacheStats();

    const auto first = coll::compileSchedule(
        trace::CollOp::allReduce, 4, 0, 4096,
        coll::Algorithm::recursiveDoubling);
    auto row = testing::cacheRow("schedule");
    EXPECT_EQ(row.name, "schedule");
    EXPECT_EQ(row.misses, 1u);
    EXPECT_EQ(row.hits, 0u);
    EXPECT_EQ(row.entries, 1u);
    EXPECT_GT(row.bytes, 0u);
    EXPECT_DOUBLE_EQ(row.hitRate(), 0.0);

    const auto second = coll::compileSchedule(
        trace::CollOp::allReduce, 4, 0, 4096,
        coll::Algorithm::recursiveDoubling);
    EXPECT_EQ(first.get(), second.get());
    row = testing::cacheRow("schedule");
    EXPECT_EQ(row.hits, 1u);
    EXPECT_EQ(row.misses, 1u);
    EXPECT_EQ(row.entries, 1u);
    EXPECT_DOUBLE_EQ(row.hitRate(), 0.5);

    // Clearing empties the gauges but keeps the hit/miss history,
    // and live schedules stay valid.
    coll::clearScheduleCache();
    row = testing::cacheRow("schedule");
    EXPECT_EQ(row.entries, 0u);
    EXPECT_EQ(row.bytes, 0u);
    EXPECT_EQ(row.hits, 1u);
    EXPECT_EQ(row.misses, 1u);
    EXPECT_GT(first->totalSteps(), 0u);

    // A recompile is a fresh miss into the emptied cache.
    const auto third = coll::compileSchedule(
        trace::CollOp::allReduce, 4, 0, 4096,
        coll::Algorithm::recursiveDoubling);
    row = testing::cacheRow("schedule");
    EXPECT_EQ(row.misses, 2u);
    EXPECT_EQ(row.entries, 1u);
    EXPECT_NE(third.get(), first.get());
}

TEST(CacheStatsTest, ReportCoversBothCaches)
{
    std::vector<std::string> names;
    for (const obs::CacheReportRow &row : obs::cacheReport())
        names.push_back(row.name);
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"schedule", "topology"}));
    // The rendered report names every cache.
    const std::string text = obs::cacheReportString();
    EXPECT_NE(text.find("topology"), std::string::npos);
    EXPECT_NE(text.find("schedule"), std::string::npos);
}

TEST(CacheStatsTest, TopologyCacheCountsLiveTablesOnly)
{
    // A session keeps every topology it compiled, one table per
    // (description, node count), and destroying the session drops
    // them all. Three rounds of sessions, each replaying a 16-, a
    // 32- and again a 16-rank stencil, compile two tables per round
    // (the second 16-rank replay hits) and leave nothing behind.
    obs::resetCacheStats();
    const auto platform = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    const auto tableBytes = [&](int ranks) {
        const int nodes = (ranks + platform.cpusPerNode - 1) /
            platform.cpusPerNode;
        return static_cast<std::uint64_t>(
            net::compileTopology(platform.topology, nodes)
                .memoryBytes());
    };
    gen::WorkloadConfig stencil;
    stencil.iterations = 1;
    const std::uint64_t both = tableBytes(16) + tableBytes(32);
    for (std::uint64_t round = 1; round <= 3; ++round) {
        {
            sim::ReplaySession session;
            const struct
            {
                int ranks;
                std::uint64_t entries;
                std::uint64_t bytes;
            } steps[] = {{16, 1, tableBytes(16)}, {32, 2, both},
                         {16, 2, both}};
            for (const auto &step : steps) {
                session.run(gen::generateTrace(
                                gen::withRankCount(stencil, step.ranks),
                                1),
                            platform);
                const auto row = testing::cacheRow("topology");
                EXPECT_EQ(row.entries, step.entries)
                    << step.ranks << " ranks";
                EXPECT_EQ(row.bytes, step.bytes) << step.ranks << " ranks";
            }
        }
        const auto row = testing::cacheRow("topology");
        EXPECT_EQ(row.name, "topology");
        EXPECT_EQ(row.entries, 0u) << "round " << round;
        EXPECT_EQ(row.bytes, 0u) << "round " << round;
        EXPECT_EQ(row.misses, 2 * round);
        EXPECT_EQ(row.hits, round);
    }
}

// ---------------------------------------------------------------
// Campaign aggregation: bit-identical stats across sessions and
// thread counts, spans and progress hooks.
// ---------------------------------------------------------------

TEST(ObsCampaignTest, SweepStatsBitIdenticalAcrossThreadCounts)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 500'000, 4));
    const auto base = sim::platforms::defaultCluster();
    const auto grid = core::logBandwidthGrid(1.0, 4096.0, 2);
    const auto variants = core::standardVariants(8);

    const auto reference =
        core::bandwidthSweep(bundle, base, grid, variants, 1);
    EXPECT_GT(reference.stats.heapPushes, 0u);
    ASSERT_EQ(reference.points.size(), grid.size());

    for (const int threads : {2, 8}) {
        const auto sweep = core::bandwidthSweep(
            bundle, base, grid, variants, threads);
        EXPECT_TRUE(sweep.stats == reference.stats)
            << "threads " << threads;
        ASSERT_EQ(sweep.points.size(), reference.points.size());
        for (std::size_t i = 0; i < sweep.points.size(); ++i) {
            EXPECT_TRUE(sweep.points[i].stats ==
                        reference.points[i].stats)
                << "threads " << threads << " point " << i;
        }
    }

    // A second independent campaign (fresh sessions throughout)
    // reproduces the aggregate bit for bit.
    const auto again =
        core::bandwidthSweep(bundle, base, grid, variants, 1);
    EXPECT_TRUE(again.stats == reference.stats);
}

TEST(ObsCampaignTest, SnapshotBytesBitIdenticalAcrossThreadCounts)
{
    // Checkpointed sweep points land on different pooled sessions
    // at each thread count; the image work must not depend on what
    // a session replayed before.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 500'000, 4));
    const auto base = failStopPlatform(1'500.0);
    const auto grid = core::logBandwidthGrid(1.0, 4096.0, 2);
    const auto variants = core::standardVariants(8);

    const auto reference =
        core::bandwidthSweep(bundle, base, grid, variants, 1);
    EXPECT_GT(reference.stats.snapshotBytes, 0u);
    for (const int threads : {2, 8}) {
        const auto sweep = core::bandwidthSweep(
            bundle, base, grid, variants, threads);
        EXPECT_EQ(sweep.stats.snapshotBytes,
                  reference.stats.snapshotBytes)
            << "threads " << threads;
        EXPECT_TRUE(sweep.stats == reference.stats)
            << "threads " << threads;
    }
}

/** Every span closed, named and on a lane of a `threads`-lane pool. */
void
expectWellFormedSpans(const core::CampaignObs &cobs, int threads)
{
    EXPECT_FALSE(cobs.spans.empty());
    for (const auto &span : cobs.spans) {
        EXPECT_GE(span.endNs, span.beginNs);
        EXPECT_GE(span.lane, 0);
        EXPECT_LT(span.lane, threads);
        EXPECT_FALSE(span.name.empty());
    }
}

/** The hook tests' campaigns: a packed exchange swept over
 * bandwidths and failure rates, and a small stencil swept over a
 * rank grid that is neither ascending nor distinct. */
struct HookCampaigns
{
    tracer::TraceBundle bundle = testing::traceOf(
        2, testing::packedExchange(64 * 1024, 200'000));
    sim::PlatformConfig base = sim::platforms::defaultCluster();
    std::vector<double> grid = core::logBandwidthGrid(16.0, 1024.0, 1);
    std::vector<core::VariantSpec> variants = core::standardVariants(4);
    std::vector<int> ranks{16, 8, 12, 8};
    std::vector<double> mtbf{8000.0, 1000.0};
    std::uint32_t seeds = 3;

    core::SweepResult
    bandwidth(core::CampaignObs *cobs) const
    {
        return core::bandwidthSweep(bundle, base, grid, variants, 2,
                                    cobs);
    }

    core::ScalingResult
    scaling(core::CampaignObs *cobs) const
    {
        gen::WorkloadConfig stencil;
        stencil.iterations = 2;
        return core::scalingSweep(stencil, 1, base, ranks, variants, 2,
                                  cobs);
    }

    core::ResilienceResult
    resilience(core::CampaignObs *cobs) const
    {
        return core::resilienceSweep(bundle, ckptPlatform(300.0, 5.0, 10.0),
                                     mtbf, variants, seeds, 1, 2, cobs);
    }
};

TEST(ObsCampaignTest, ProgressAndSpansHookIntoTheSweep)
{
    // Progress ticks once per sweep point (once per (rate, seed)
    // job of the resilience campaign); every driver's spans are
    // closed and well-formed.
    const HookCampaigns c;
    const auto observe = [](const char *name, std::size_t points,
                            const auto &campaign) {
        obs::Progress progress(name, points);
        core::CampaignObs cobs;
        cobs.progress = &progress;
        cobs.recordSpans = true;
        campaign(&cobs);
        EXPECT_EQ(progress.done(), points) << name;
        progress.finish();
        // Prepare/compile spans plus at least one per point.
        EXPECT_GE(cobs.spans.size(), points) << name;
        expectWellFormedSpans(cobs, 2);
    };
    observe("bandwidth", c.grid.size(),
            [&](core::CampaignObs *cobs) { c.bandwidth(cobs); });
    observe("scaling", c.ranks.size(),
            [&](core::CampaignObs *cobs) { c.scaling(cobs); });
    observe("resilience", c.mtbf.size() * c.seeds,
            [&](core::CampaignObs *cobs) { c.resilience(cobs); });
}

TEST(ObsCampaignTest, PlatformCampaignCompilesEachProgramOnce)
{
    // A campaign over every standard topology at every bandwidth
    // lowers the original and each variant once, then spans one
    // replay per (platform, program).
    const HookCampaigns c;
    const auto platforms = testing::atBandwidths(
        testing::withTopologies(c.base, core::standardTopologies()),
        c.grid);
    core::CampaignObs cobs;
    cobs.recordSpans = true;
    core::platformSweep(c.bundle, platforms, c.variants, 2, &cobs);

    std::map<std::string, int> compiles;
    for (const auto &span : cobs.spans) {
        if (span.name.rfind("compile ", 0) == 0)
            ++compiles[span.name];
    }
    const std::map<std::string, int> once{{"compile original", 1},
                                          {"compile overlap-real", 1},
                                          {"compile overlap-ideal", 1}};
    EXPECT_EQ(compiles, once);
    EXPECT_EQ(cobs.spans.size(),
              once.size() + platforms.size() * once.size());
    expectWellFormedSpans(cobs, 2);
}

TEST(ObsCampaignTest, PlatformCampaignCompilesEachTopologyOnce)
{
    // One lane replays the three programs on the five standard
    // topologies at three bandwidths, costliest first, so the
    // fabrics interleave on it. Its session keeps every table it
    // compiled: each of the four routed fabrics misses once, every
    // later replay on it hits, and the tables leave with the lane's
    // session when the campaign ends.
    const HookCampaigns c;
    const auto platforms = testing::atBandwidths(
        testing::withTopologies(c.base, core::standardTopologies()),
        c.grid);
    obs::resetCacheStats();
    core::platformSweep(c.bundle, platforms, c.variants, 1);
    const auto row = testing::cacheRow("topology");
    EXPECT_EQ(row.misses, 4u);
    EXPECT_EQ(row.hits, 4 * c.grid.size() * 3 - 4);
    EXPECT_EQ(row.entries, 0u);
    EXPECT_EQ(row.bytes, 0u);
}

TEST(ObsCampaignTest, ObservedSweepMatchesTheUnobservedOne)
{
    // The observability hooks must not perturb results: a sweep
    // with progress + spans on returns the same points and stats
    // as the plain call.
    const HookCampaigns c;
    const auto observed = [](obs::Progress &progress) {
        core::CampaignObs cobs;
        cobs.progress = &progress;
        cobs.recordSpans = true;
        return cobs;
    };

    obs::Progress progress("test sweep", c.grid.size());
    auto cobs = observed(progress);
    const auto plain = c.bandwidth(nullptr);
    const auto seen = c.bandwidth(&cobs);
    ASSERT_EQ(seen.points.size(), plain.points.size());
    for (std::size_t i = 0; i < plain.points.size(); ++i) {
        EXPECT_EQ(seen.points[i].originalTime.ns(),
                  plain.points[i].originalTime.ns());
        EXPECT_EQ(seen.points[i].variantTimes,
                  plain.points[i].variantTimes);
        EXPECT_TRUE(seen.points[i].stats == plain.points[i].stats);
    }
    EXPECT_TRUE(seen.stats == plain.stats);

    obs::Progress scaling("test scaling", c.ranks.size());
    cobs = observed(scaling);
    const auto plainScaling = c.scaling(nullptr);
    const auto seenScaling = c.scaling(&cobs);
    ASSERT_EQ(seenScaling.points.size(), plainScaling.points.size());
    for (std::size_t i = 0; i < plainScaling.points.size(); ++i) {
        const auto &a = plainScaling.points[i];
        const auto &b = seenScaling.points[i];
        EXPECT_EQ(b.ranks, a.ranks);
        EXPECT_EQ(b.sentBytes, a.sentBytes);
        EXPECT_EQ(b.originalTime.ns(), a.originalTime.ns());
        EXPECT_EQ(b.originalCommFraction, a.originalCommFraction);
        EXPECT_EQ(b.variantTimes, a.variantTimes);
        EXPECT_TRUE(b.stats == a.stats) << "point " << i;
    }
    EXPECT_TRUE(seenScaling.stats == plainScaling.stats);

    obs::Progress res("test resilience", c.mtbf.size() * c.seeds);
    cobs = observed(res);
    const auto plainRes = c.resilience(nullptr);
    const auto seenRes = c.resilience(&cobs);
    EXPECT_EQ(seenRes.horizon.ns(), plainRes.horizon.ns());
    ASSERT_EQ(seenRes.points.size(), plainRes.points.size());
    for (std::size_t i = 0; i < plainRes.points.size(); ++i) {
        ASSERT_EQ(seenRes.points[i].cells.size(),
                  plainRes.points[i].cells.size());
        for (std::size_t v = 0; v < plainRes.points[i].cells.size();
             ++v) {
            EXPECT_EQ(seenRes.points[i].cells[v].seedTimes,
                      plainRes.points[i].cells[v].seedTimes)
                << "point " << i << " cell " << v;
        }
    }
    EXPECT_TRUE(seenRes.stats == plainRes.stats);
}

/** The replay spans of `cobs` by name, each with its count. */
std::map<std::string, int>
replaySpans(const core::CampaignObs &cobs, const std::string &prefix)
{
    std::map<std::string, int> names;
    for (const auto &span : cobs.spans) {
        if (span.name.rfind(prefix, 0) == 0)
            ++names[span.name];
    }
    return names;
}

TEST(ObsCampaignTest, ScalingSweepReplaysEachDistinctProgramOnce)
{
    // Gen-scale's two families on its platform (test_campaign_pins'
    // tapered fat tree with algorithmic recursive-doubling
    // allreduce). ml-training is all collectives, which the
    // transform leaves alone, so both variants lower to the
    // original program. The stencil generator places its stores
    // and loads linearly, so the real pattern lowers to the ideal
    // one although messages are chunked. A point replays each
    // distinct program once, and ticks when the last one retires.
    auto platform = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    platform.bandwidthMBps = 4096.0;
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(
        trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);
    gen::WorkloadConfig ml;
    ml.kind = gen::WorkloadKind::mlTraining;
    ml.name = "gen-ml";
    ml.iterations = 2;
    ml.gradientBuckets = 4;
    ml.gradientBytes = Bytes(64) * 1024 * 1024;
    ml.stepInstr = 50'000'000;
    gen::WorkloadConfig stencil;
    stencil.kind = gen::WorkloadKind::stencil;
    stencil.name = "gen-stencil";
    const std::vector<int> ranks{16, 32, 64};

    const auto spans = [&](const gen::WorkloadConfig &workload) {
        obs::Progress progress(workload.name, ranks.size());
        core::CampaignObs cobs;
        cobs.progress = &progress;
        cobs.recordSpans = true;
        core::scalingSweep(workload, 1, platform, ranks,
                           core::standardVariants(16), 2, &cobs);
        EXPECT_EQ(progress.done(), ranks.size()) << workload.name;
        progress.finish();
        expectWellFormedSpans(cobs, 2);
        return std::pair{replaySpans(cobs, "prepare "),
                         replaySpans(cobs, "replay ")};
    };
    std::map<std::string, int> prepares;
    std::map<std::string, int> mlReplays;
    std::map<std::string, int> stencilReplays;
    for (const int n : ranks) {
        const std::string point = "ranks=" + std::to_string(n);
        prepares["prepare " + point] = 1;
        mlReplays["replay " + point + " original"] = 1;
        stencilReplays["replay " + point + " original"] = 1;
        stencilReplays["replay " + point + " overlap-real"] = 1;
    }
    EXPECT_EQ(spans(ml), std::pair(prepares, mlReplays));
    EXPECT_EQ(spans(stencil), std::pair(prepares, stencilReplays));
}

TEST(ObsCampaignTest, TracedDriversReplayAnAllCollectiveProgramOnce)
{
    // A traced bundle of compute then allreduce: the transform has
    // no message to chunk, so every variant lowers to the original
    // program, and each driver copies the original's outcome into
    // the variants' slots instead of replaying them.
    const auto bundle =
        testing::traceOf(4, [](vm::VmContext &ctx) {
            ctx.compute(2'000'000);
            ctx.allReduce(256 * 1024);
        });
    const auto base = sim::platforms::defaultCluster();
    const auto variants = core::standardVariants(8);

    core::CampaignObs cobs;
    cobs.recordSpans = true;
    const auto grid = core::logBandwidthGrid(1.0, 4096.0, 1);
    const auto sweep =
        core::bandwidthSweep(bundle, base, grid, variants, 2, &cobs);
    EXPECT_EQ(replaySpans(cobs, "replay ").size(), grid.size());
    for (const auto &point : sweep.points) {
        EXPECT_EQ(point.variantTimes,
                  std::vector<SimTime>(variants.size(),
                                       point.originalTime))
            << point.bandwidthMBps << " MB/s";
    }

    // No checkpointing, and a per-node MTBF of a quarter of the
    // run: the one (rate, seed) row dies in every program, and
    // the variants carry the original's diagnosis. Their stats
    // fold the nominal run's three times and no dead run's.
    const auto nominal = sim::simulate(bundle.traces, base);
    core::CampaignObs rcobs;
    rcobs.recordSpans = true;
    const auto res = core::resilienceSweep(
        bundle, base, {nominal.totalTime.toUs() / 4.0}, variants, 1,
        1, 2, &rcobs);
    EXPECT_EQ(replaySpans(rcobs, "nominal "),
              (std::map<std::string, int>{{"nominal original", 1}}));
    const auto &cells = res.points.at(0).cells;
    ASSERT_EQ(cells.size(), variants.size() + 1);
    ASSERT_EQ(cells[0].failedFraction, 1.0);
    for (std::size_t v = 1; v < cells.size(); ++v) {
        EXPECT_EQ(cells[v].seedTimes, cells[0].seedTimes);
        EXPECT_EQ(cells[v].seedDiagnoses.at(0).toString(),
                  cells[0].seedDiagnoses.at(0).toString());
    }
    obs::EngineStats nominalThrice;
    for (std::size_t v = 0; v < cells.size(); ++v)
        nominalThrice.merge(nominal.stats);
    EXPECT_TRUE(res.stats == nominalThrice) << res.stats.toString();

    // One bisection serves both required bandwidths.
    const auto iso = core::isoPerformance(bundle, base,
                                          variants[0].config, 4096.0,
                                          0.05, 1e-3, 2);
    EXPECT_EQ(iso.overlappedRequiredBandwidth,
              iso.originalRequiredBandwidth);
}

TEST(ProgressTest, TicksAccumulateAndFinishIsIdempotent)
{
    obs::Progress progress("unit", 3);
    EXPECT_EQ(progress.total(), 3u);
    EXPECT_EQ(progress.done(), 0u);
    progress.tick();
    progress.tick(2);
    EXPECT_EQ(progress.done(), 3u);
    progress.finish();
    progress.finish();
}

// ---------------------------------------------------------------
// Campaign lane spans under parallel load (TSAN target via the
// parallel label).
// ---------------------------------------------------------------

TEST(ObsSpanTest, SpanBuffersStayConsistentUnderParallelLoad)
{
    // A 4-lane campaign records one span per task, every lane
    // recording at once: three compiles, then one replay per
    // (bandwidth, program). Each comes back closed, named, on a
    // lane of the pool and ordered by (begin, lane).
    const HookCampaigns c;
    const auto grid = core::logBandwidthGrid(1.0, 4096.0, 4);
    const auto campaign = [&](core::CampaignObs &cobs) {
        cobs.recordSpans = true;
        core::bandwidthSweep(c.bundle, c.base, grid, c.variants, 4,
                             &cobs);
        std::map<std::string, int> names;
        for (const auto &span : cobs.spans)
            ++names[span.name];
        return names;
    };
    core::CampaignObs cobs;
    const auto names = campaign(cobs);
    ASSERT_EQ(cobs.spans.size(), 3 + 3 * grid.size());
    expectWellFormedSpans(cobs, 4);
    std::pair<std::uint64_t, int> previous{0, 0};
    for (const auto &span : cobs.spans) {
        const std::pair<std::uint64_t, int> key{span.beginNs, span.lane};
        EXPECT_LE(previous, key) << span.name;
        previous = key;
    }
    EXPECT_EQ(names.at("compile original"), 1);
    EXPECT_EQ(names.at("compile overlap-real"), 1);
    EXPECT_EQ(names.at("compile overlap-ideal"), 1);

    // A second campaign records its own spans, the same ones.
    core::CampaignObs again;
    EXPECT_EQ(campaign(again), names);
    EXPECT_EQ(again.spans.size(), cobs.spans.size());
}

// ---------------------------------------------------------------
// Chrome trace export: validated through a real (if small) JSON
// parser — structure, matched B/E pairs, monotone per-track time.
// ---------------------------------------------------------------

/** Minimal recursive-descent JSON document model. */
struct Json
{
    enum class Kind { null, boolean, number, string, array, object };
    Kind kind = Kind::null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<Json> items;
    std::map<std::string, Json> members;

    const Json &
    at(const std::string &key) const
    {
        const auto it = members.find(key);
        if (it == members.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json
    parseDocument()
    {
        const Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing garbage");
        return value;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c) {
            throw std::runtime_error(
                std::string("expected '") + c + "' got '" +
                peek() + "'");
        }
        ++pos_;
    }

    Json
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            parseLiteral("null");
            return Json{};
          default:
            return parseNumber();
        }
    }

    Json
    parseObject()
    {
        expect('{');
        Json out;
        out.kind = Json::Kind::object;
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return out;
        }
        while (true) {
            skipSpace();
            Json key = parseString();
            skipSpace();
            expect(':');
            out.members.emplace(key.text, parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return out;
        }
    }

    Json
    parseArray()
    {
        expect('[');
        Json out;
        out.kind = Json::Kind::array;
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return out;
        }
        while (true) {
            out.items.push_back(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return out;
        }
    }

    Json
    parseString()
    {
        expect('"');
        Json out;
        out.kind = Json::Kind::string;
        while (true) {
            if (pos_ >= text_.size())
                throw std::runtime_error("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"':
                    out.text += '"';
                    break;
                  case '\\':
                    out.text += '\\';
                    break;
                  case 'n':
                    out.text += '\n';
                    break;
                  case '/':
                    out.text += '/';
                    break;
                  default:
                    throw std::runtime_error(
                        "unsupported escape");
                }
                continue;
            }
            out.text += c;
        }
    }

    Json
    parseBool()
    {
        Json out;
        out.kind = Json::Kind::boolean;
        if (peek() == 't') {
            parseLiteral("true");
            out.boolean = true;
        } else {
            parseLiteral("false");
        }
        return out;
    }

    void
    parseLiteral(const char *lit)
    {
        for (const char *c = lit; *c != '\0'; ++c) {
            if (pos_ >= text_.size() || text_[pos_] != *c)
                throw std::runtime_error("bad literal");
            ++pos_;
        }
    }

    Json
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start)
            throw std::runtime_error("bad number");
        Json out;
        out.kind = Json::Kind::number;
        out.number =
            std::stod(text_.substr(start, pos_ - start));
        return out;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

TEST(ChromeTraceTest, ExportRoundTripsThroughTheJsonParser)
{
    // A two-rank exchange under checkpoint/restart with a mid-run
    // fail-stop: the timeline carries compute/comm/restart
    // intervals, checkpoint marks and a rollback cut. Host spans
    // are two lanes' worth of back-to-back campaign tasks.
    auto platform = ckptPlatform(60.0, 5.0, 7.0);
    platform.captureTimeline = true;
    platform.scenario.events.push_back(nodeFail(80.0, 0));
    const auto bundle = testing::traceOf(
        2, testing::packedExchange(64 * 1024, 200'000));
    const auto result = sim::simulate(bundle.traces, platform);
    ASSERT_GE(result.restarts, 1u);
    ASSERT_GE(result.checkpoints, 1u);

    std::vector<obs::LaneSpan> spans;
    for (std::uint64_t task = 0; task < 8; ++task) {
        spans.push_back({"point bw=" + std::to_string(task),
                         static_cast<int>(task % 2), task / 2 * 1'000,
                         task / 2 * 1'000 + 900});
    }

    const std::string json =
        obs::chromeTraceJson(result.timeline, spans);
    Json doc;
    ASSERT_NO_THROW(doc = JsonParser(json).parseDocument());
    ASSERT_EQ(doc.kind, Json::Kind::object);
    EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
    const Json &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, Json::Kind::array);
    ASSERT_FALSE(events.items.empty());

    // Walk the events: matched B/E pairs per (pid, tid) with
    // non-decreasing timestamps, named instants on the machine
    // track, host X spans on pid 1.
    std::map<std::pair<int, int>, std::vector<std::string>> open;
    std::map<std::pair<int, int>, double> lastTs;
    bool sawCheckpoint = false;
    bool sawRollback = false;
    std::size_t hostSpans = 0;
    for (const Json &ev : events.items) {
        ASSERT_EQ(ev.kind, Json::Kind::object);
        const std::string &ph = ev.at("ph").text;
        if (ph == "M")
            continue;
        const std::pair<int, int> track{
            static_cast<int>(ev.at("pid").number),
            static_cast<int>(ev.at("tid").number)};
        const double ts = ev.at("ts").number;
        const std::string &name = ev.at("name").text;
        if (ph == "B" || ph == "E") {
            const auto it = lastTs.find(track);
            if (it != lastTs.end()) {
                EXPECT_GE(ts, it->second) << "track tid "
                                          << track.second;
            }
            lastTs[track] = ts;
            if (ph == "B") {
                open[track].push_back(name);
            } else {
                ASSERT_FALSE(open[track].empty());
                EXPECT_EQ(open[track].back(), name);
                open[track].pop_back();
            }
        } else if (ph == "i") {
            EXPECT_EQ(ev.at("s").text, "p");
            if (name.rfind("checkpoint", 0) == 0)
                sawCheckpoint = true;
            if (name == "rollback")
                sawRollback = true;
        } else if (ph == "X") {
            EXPECT_EQ(track.first, 1);
            EXPECT_GE(ev.at("dur").number, 0.0);
            ++hostSpans;
        } else {
            FAIL() << "unexpected phase " << ph;
        }
    }
    for (const auto &[track, stack] : open)
        EXPECT_TRUE(stack.empty())
            << "unbalanced B/E on tid " << track.second;
    EXPECT_TRUE(sawCheckpoint);
    EXPECT_TRUE(sawRollback);
    EXPECT_EQ(hostSpans, spans.size());

    // writeChromeTrace writes exactly the rendered document.
    const std::string path =
        ::testing::TempDir() + "/ovlsim_trace_test.json";
    obs::writeChromeTrace(path, result.timeline, spans);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(os.str(), json);
}

TEST(ChromeTraceTest, EmptyTimelineStillRendersValidJson)
{
    const std::string json =
        obs::chromeTraceJson(sim::Timeline{});
    Json doc;
    ASSERT_NO_THROW(doc = JsonParser(json).parseDocument());
    EXPECT_EQ(doc.at("traceEvents").kind, Json::Kind::array);
}

} // namespace
} // namespace ovlsim
