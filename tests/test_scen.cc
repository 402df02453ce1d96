/**
 * @file
 * Dynamic platform scenarios: the event-list format, scenario
 * compilation, the LinkNetwork degradation seam and the engine's
 * failure semantics.
 *
 * Key contracts pinned here:
 *  - exact degrade/recover round trips: a flow degraded to half
 *    capacity and recovered finishes at precisely the undegraded
 *    time plus the capacity lost, on both the LinkNetwork seam and
 *    the full engine path,
 *  - fail-stop produces a structured FailureDiagnosis naming the
 *    event and every unfinished rank,
 *  - reroute conserves per-link occupancy while migrating in-flight
 *    flows, and is fatal where the topology has no diversity,
 *  - stall + recover completes with no lost bytes; an unrecovered
 *    stall deadlocks with the scenario named in the diagnosis,
 *  - a scenario-free or not-yet-fired scenario leaves the replay
 *    untouched (the bit-identity seam),
 *  - platform campaigns over scenarios are bit-identical across
 *    thread counts,
 *  - platform files reject duplicate keys and name the file and
 *    line in every parse error (the scenario_file key included).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "helpers.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "scen/scenario.hh"
#include "sim/engine.hh"
#include "sim/platform_file.hh"
#include "util/counter_rng.hh"

namespace ovlsim {
namespace {

using net::LinkNetwork;
using scen::FailSemantics;
using scen::ScenarioConfig;
using scen::ScenarioEvent;
using scen::ScenEventKind;
using scen::ScenTarget;
using testing::expectIdentical;

ScenarioEvent
degradeAll(double us, double bw, double lat = 1.0)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::degrade;
    ev.target = ScenTarget::all;
    ev.bandwidthFactor = bw;
    ev.latencyFactor = lat;
    return ev;
}

ScenarioEvent
recoverAll(double us)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::recover;
    ev.target = ScenTarget::all;
    return ev;
}

ScenarioEvent
failEvent(double us, ScenTarget target, int a, int b,
          FailSemantics semantics)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::fail;
    ev.target = target;
    ev.nodeA = a;
    ev.nodeB = b;
    ev.semantics = semantics;
    return ev;
}

ScenarioEvent
recoverEvent(double us, ScenTarget target, int a, int b = -1)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::recover;
    ev.target = target;
    ev.nodeA = a;
    ev.nodeB = b;
    return ev;
}

ScenarioEvent
backgroundFlow(double us, int src, int dst, Bytes bytes)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::background;
    ev.target = ScenTarget::route;
    ev.nodeA = src;
    ev.nodeB = dst;
    ev.bytes = bytes;
    return ev;
}

TEST(ScenNamesTest, RoundTrip)
{
    for (const auto semantics :
         {FailSemantics::failStop, FailSemantics::stall,
          FailSemantics::reroute}) {
        EXPECT_EQ(scen::failSemanticsFromName(
                      scen::failSemanticsName(semantics)),
                  semantics);
    }
    EXPECT_THROW(scen::failSemanticsFromName("explode"),
                 FatalError);
}

TEST(ScenParserTest, RoundTripPreservesEvents)
{
    ScenarioConfig config;
    config.events.push_back(degradeAll(10.0, 0.5, 2.0));
    config.events.push_back(recoverAll(20.0));
    config.events.push_back(failEvent(5.0, ScenTarget::link, 0, 3,
                                      FailSemantics::stall));
    config.events.push_back(
        failEvent(7.0, ScenTarget::node, 2, -1,
                  FailSemantics::failStop));
    config.events.push_back(backgroundFlow(1.0, 0, 7, 1 << 20));
    config.validate();

    std::stringstream text;
    scen::writeScenario(config, text);
    const ScenarioConfig back = scen::readScenario(text);
    EXPECT_EQ(back.events, config.events);
}

/**
 * Fuzzed write -> read round trip: 200 random scenarios drawn from
 * a counter-based RNG (one substream per iteration, so a failure
 * reproduces from its iteration index alone) must re-read to the
 * exact event list — arbitrary ns-clock times, full-precision
 * degrade factors and every target/kind/semantics combination.
 */
TEST(ScenParserTest, FuzzedRoundTripPreservesEvents)
{
    const CounterRng root(0x5eed, 0);
    for (std::uint64_t iter = 0; iter < 200; ++iter) {
        CounterRng rng = root.substream(iter);
        ScenarioConfig config;
        const int count = static_cast<int>(rng.nextBelow(8)) + 1;
        for (int i = 0; i < count; ++i) {
            ScenarioEvent ev;
            ev.time = SimTime::fromNs(static_cast<std::int64_t>(
                rng.nextBelow(1'000'000'000)));
            switch (rng.nextBelow(4)) {
              case 0:
                ev.target = ScenTarget::all;
                break;
              case 1:
                ev.target = ScenTarget::node;
                ev.nodeA = static_cast<int>(rng.nextBelow(64));
                break;
              case 2:
                ev.target = ScenTarget::route;
                break;
              default:
                ev.target = ScenTarget::link;
                break;
            }
            if (ev.target == ScenTarget::route ||
                ev.target == ScenTarget::link) {
                ev.nodeA = static_cast<int>(rng.nextBelow(64));
                do {
                    ev.nodeB = static_cast<int>(rng.nextBelow(64));
                } while (ev.nodeB == ev.nodeA);
            }
            switch (rng.nextBelow(4)) {
              case 0:
                ev.kind = ScenEventKind::degrade;
                ev.bandwidthFactor = rng.nextDouble(1e-6, 4.0);
                ev.latencyFactor = rng.nextDouble(1e-6, 4.0);
                break;
              case 1:
                ev.kind = ScenEventKind::recover;
                break;
              case 2:
                ev.kind = ScenEventKind::fail;
                ev.semantics = static_cast<FailSemantics>(
                    rng.nextBelow(3));
                break;
              default:
                // Background flows are always route-scoped pairs.
                ev.kind = ScenEventKind::background;
                ev.target = ScenTarget::route;
                ev.nodeA = static_cast<int>(rng.nextBelow(64));
                do {
                    ev.nodeB = static_cast<int>(rng.nextBelow(64));
                } while (ev.nodeB == ev.nodeA);
                ev.bytes =
                    static_cast<Bytes>(rng.nextBelow(1 << 24)) + 1;
                break;
            }
            config.events.push_back(ev);
        }
        config.validate();

        std::stringstream text;
        scen::writeScenario(config, text);
        const ScenarioConfig back = scen::readScenario(text);
        EXPECT_EQ(back.events, config.events) << "iteration " << iter;
    }
}

TEST(ScenParserTest, ErrorsNameSourceAndLine)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        std::istringstream in(text);
        try {
            scen::readScenario(in, "test.scen");
            FAIL() << "expected a parse error for: " << text;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(needle),
                      std::string::npos)
                << err.what();
        }
    };
    expectError("# fine\nat 5 degrade all bw\n",
                "test.scen line 2");
    expectError("at 5 explode all\n", "test.scen line 1");
    expectError("degrade all bw 0.5\n", "test.scen line 1");
    // 64-bit node ids must not wrap into small valid ones, byte
    // counts must not go negative, and times and factors must be
    // finite numbers that fit the ns clock; each names its line.
    expectError("at 10 fail node 4294967297 stall\n",
                "test.scen line 1");
    expectError("at 10 fail link 0 4294967297 stall\n",
                "test.scen line 1");
    expectError("at 10 background 0 1 -5\n", "test.scen line 1");
    expectError("at nan degrade all bw 0.5\n", "test.scen line 1");
    expectError("at 1e300 degrade all bw 0.5\n", "test.scen line 1");
    expectError("at -inf degrade all bw 0.5\n", "test.scen line 1");
    expectError("at 0 degrade all bw nan\n", "test.scen line 1");
    expectError("at 0 degrade all bw inf\n", "test.scen line 1");
    expectError("# fine\nat 0 degrade all lat nan\n",
                "test.scen line 2");
    expectError("at 0 degrade all bw 0\n", "test.scen line 1");
}

TEST(ScenParserTest, ValidateRejectsNonsense)
{
    ScenarioConfig zero;
    zero.events.push_back(degradeAll(1.0, 0.0));
    EXPECT_THROW(zero.validate(), FatalError);

    ScenarioConfig empty;
    empty.events.push_back(backgroundFlow(1.0, 0, 1, 0));
    EXPECT_THROW(empty.validate(), FatalError);

    ScenarioConfig loop;
    loop.events.push_back(backgroundFlow(1.0, 2, 2, 4096));
    EXPECT_THROW(loop.validate(), FatalError);

    ScenarioConfig pair;
    pair.events.push_back(failEvent(1.0, ScenTarget::link, 3, 3,
                                    FailSemantics::stall));
    EXPECT_THROW(pair.validate(), FatalError);

    // Non-finite factors, which a `<= 0` test lets through. Replayed,
    // they used to return a wrong total on the flat bus and panic on
    // a fat tree; now the replay stops with a FatalError naming the
    // event.
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 0, 1));
    for (const double bad :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        for (const bool on_bw : {true, false}) {
            auto platform = testing::platformAt(1000.0);
            platform.scenario.events.push_back(
                on_bw ? degradeAll(0.0, bad) : degradeAll(0.0, 0.5, bad));
            EXPECT_THROW(platform.scenario.validate(), FatalError);
            for (const bool fat_tree : {false, true}) {
                if (fat_tree)
                    platform.topology = net::topologies::fatTree(4);
                try {
                    sim::simulate(bundle.traces, platform);
                    ADD_FAILURE() << "replayed factor " << bad;
                } catch (const FatalError &err) {
                    EXPECT_NE(std::string(err.what()).find("degrade"),
                              std::string::npos)
                        << err.what();
                }
            }
        }
    }
}

TEST(ScenCompileTest, MatchesRecoversByScope)
{
    ScenarioConfig config;
    config.events.push_back(degradeAll(10.0, 0.5));
    config.events.push_back(recoverAll(20.0));
    config.events.push_back(degradeAll(30.0, 0.25));
    const auto compiled =
        scen::compileScenario(config, nullptr, 4);
    ASSERT_EQ(compiled.eventCount(), 3u);
    EXPECT_EQ(compiled.matchOf(0), 1u);
    EXPECT_EQ(compiled.matchOf(1), 0u);
    EXPECT_EQ(compiled.matchOf(2), scen::CompiledScenario::npos);
    EXPECT_EQ(compiled.recoveryTimeOf(0).ns(), 20'000);
    EXPECT_EQ(compiled.recoveryTimeOf(2), SimTime::max());
}

TEST(ScenCompileTest, RejectsNonsense)
{
    // A recover with nothing to undo.
    ScenarioConfig dangling;
    dangling.events.push_back(recoverAll(5.0));
    EXPECT_THROW(scen::compileScenario(dangling, nullptr, 4),
                 FatalError);

    // Recovering a fail-stop: the replay is already gone.
    ScenarioConfig undead;
    undead.events.push_back(failEvent(1.0, ScenTarget::node, 0, -1,
                                      FailSemantics::failStop));
    undead.events.push_back(recoverEvent(2.0, ScenTarget::node, 0));
    EXPECT_THROW(scen::compileScenario(undead, nullptr, 4),
                 FatalError);

    // Reroute needs a routed fabric, not the flat bus.
    ScenarioConfig flat;
    flat.events.push_back(failEvent(1.0, ScenTarget::node, 0, -1,
                                    FailSemantics::reroute));
    EXPECT_THROW(scen::compileScenario(flat, nullptr, 4),
                 FatalError);

    // Out-of-range nodes are fatal at compile, not at replay.
    ScenarioConfig range;
    range.events.push_back(failEvent(1.0, ScenTarget::node, 9, -1,
                                     FailSemantics::stall));
    EXPECT_THROW(scen::compileScenario(range, nullptr, 4),
                 FatalError);
}

TEST(ScenCompileTest, ResolvesLinkSetsAgainstTheTopology)
{
    const auto topo =
        net::compileTopology(net::topologies::fatTree(2), 4);

    ScenarioConfig config;
    config.events.push_back(degradeAll(1.0, 0.5));
    config.events.push_back(
        failEvent(2.0, ScenTarget::node, 0, -1,
                  FailSemantics::stall));
    config.events.push_back(failEvent(3.0, ScenTarget::link, 0, 2,
                                      FailSemantics::stall));
    config.events.push_back(failEvent(4.0, ScenTarget::route, 0, 2,
                                      FailSemantics::stall));
    const auto compiled = scen::compileScenario(config, &topo, 4);

    // `all` covers the whole fabric.
    EXPECT_EQ(compiled.linksOf(0).size(), topo.linkCount());
    // `node` is exactly the NIC links: host links touching node 0.
    ASSERT_FALSE(compiled.linksOf(1).empty());
    for (const std::uint32_t link : compiled.linksOf(1))
        EXPECT_TRUE(topo.isHostLink(link)) << "link " << link;
    // `link` keeps only the fabric legs of the route...
    ASSERT_FALSE(compiled.linksOf(2).empty());
    for (const std::uint32_t link : compiled.linksOf(2))
        EXPECT_FALSE(topo.isHostLink(link)) << "link " << link;
    // ...while `route` includes the NICs too.
    EXPECT_EQ(compiled.linksOf(3).size(),
              testing::routeOf(topo, 0, 2).size());
    EXPECT_GT(compiled.linksOf(3).size(),
              compiled.linksOf(2).size());

    // Nodes under one switch have no fabric links between them:
    // a `link` target there is a scenario bug worth naming.
    ScenarioConfig sibling;
    sibling.events.push_back(
        failEvent(1.0, ScenTarget::link, 0, 1,
                  FailSemantics::stall));
    EXPECT_THROW(scen::compileScenario(sibling, &topo, 4),
                 FatalError);
}

/**
 * The LinkNetwork degradation seam, driven the way the engine
 * drives it: 1000 MB/s = 1 B/ns, one 1000-byte flow 0 -> 1.
 * Degrading every link to half capacity over [200, 400) ns costs
 * the flow exactly the 100 bytes it could not move: finish 1000 ->
 * 1100 ns. A flow admitted after recovery is back to the exact
 * undegraded finish time.
 */
TEST(LinkNetworkScenTest, DegradeRecoverRoundTripIsExact)
{
    const auto topo =
        net::compileTopology(net::topologies::fatTree(2), 4);
    LinkNetwork net;
    net.configure(&topo, 1000.0);

    const SimTime armed =
        net.start(0, 0, 1, 1000, SimTime::zero());
    EXPECT_EQ(armed.ns(), 1000);

    // Slowdowns are lazy: no reschedule until the stale event.
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l)
        net.setLinkScale(l, 0.5);
    net.applyScales(SimTime::fromNs(200));
    EXPECT_TRUE(net.pendingReschedules().empty());

    // Recovery at 400 is a speedup, but the armed event at 1000
    // still precedes the corrected finish, so the re-arm waits for
    // the stale event too.
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l)
        net.setLinkScale(l, 1.0);
    net.applyScales(SimTime::fromNs(400));
    EXPECT_TRUE(net.pendingReschedules().empty());

    auto check = net.onFinishEvent(0, SimTime::fromNs(1000));
    EXPECT_FALSE(check.done);
    ASSERT_TRUE(check.reschedule);
    EXPECT_EQ(check.retry.ns(), 1100);
    check = net.onFinishEvent(0, SimTime::fromNs(1100));
    EXPECT_TRUE(check.done);
    EXPECT_EQ(net.activeFlows(), 0u);

    // Post-recovery flows see the compiled capacity again.
    const SimTime after =
        net.start(1, 0, 1, 1000, SimTime::fromNs(2000));
    EXPECT_EQ(after.ns(), 3000);
}

/** A frozen route parks the flow; recovery re-arms it eagerly. */
TEST(LinkNetworkScenTest, FreezeParksAndRecoveryRearms)
{
    const auto topo =
        net::compileTopology(net::topologies::fatTree(2), 4);
    LinkNetwork net;
    net.configure(&topo, 1000.0);

    const SimTime armed =
        net.start(0, 0, 1, 1000, SimTime::zero());
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l)
        net.setLinkScale(l, 0.0);
    net.applyScales(SimTime::fromNs(100));

    // The stale event fires into the freeze: park, no reschedule.
    auto check = net.onFinishEvent(0, armed);
    EXPECT_FALSE(check.done);
    EXPECT_FALSE(check.reschedule);
    EXPECT_EQ(check.retry, SimTime::max());

    // A flow admitted during the freeze parks immediately.
    EXPECT_EQ(net.start(1, 2, 3, 500, SimTime::fromNs(1200)),
              SimTime::max());

    // Recovery re-arms both: 900 remaining bytes of flow 0 and all
    // 500 of flow 1, both at full rate again.
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l)
        net.setLinkScale(l, 1.0);
    net.applyScales(SimTime::fromNs(2000));
    const auto pending = net.pendingReschedules();
    ASSERT_EQ(pending.size(), 2u);
    for (const auto &[id, finish] : pending) {
        if (id == 0)
            EXPECT_EQ(finish.ns(), 2900);
        else
            EXPECT_EQ(finish.ns(), 2500);
    }
    net.clearPendingReschedules();
    EXPECT_TRUE(net.onFinishEvent(0, SimTime::fromNs(2900)).done);
    EXPECT_TRUE(net.onFinishEvent(1, SimTime::fromNs(2500)).done);
    EXPECT_EQ(net.totalLoad(), 0u);
}

/**
 * Killing the direct ring link migrates the in-flight flow onto
 * the surviving detour, conserving per-link occupancy: the summed
 * link loads equal the new route's length, and the dead link
 * carries nothing.
 */
TEST(LinkNetworkScenTest, RerouteConservesOccupancy)
{
    net::TopologyConfig ring = net::topologies::torus2d();
    ring.torusDims = {4};
    const auto topo = net::compileTopology(ring, 4);
    LinkNetwork net;
    net.configure(&topo, 1000.0);

    net.start(0, 0, 1, 100'000, SimTime::zero());
    const auto compiled = testing::routeOf(topo, 0, 1);
    EXPECT_EQ(net.totalLoad(), compiled.size());

    // Kill the fabric leg of the direct 0 -> 1 route.
    std::uint32_t dead = 0;
    bool found = false;
    for (const std::uint32_t link : compiled) {
        if (!topo.isHostLink(link)) {
            dead = link;
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found);
    net.setLinkScale(dead, 0.0);
    net.applyScales(SimTime::fromNs(100));
    const auto report = net.rerouteDeadLinks(SimTime::fromNs(100));
    EXPECT_TRUE(report.ok);

    // The detour goes the long way round the ring and the flow's
    // occupancy moved with it.
    const auto detour = net.routeOf(0, 1);
    EXPECT_GT(detour.size(), compiled.size());
    EXPECT_EQ(net.totalLoad(), detour.size());
    EXPECT_EQ(net.linkLoad(dead), 0u);
    for (const std::uint32_t link : detour)
        EXPECT_NE(link, dead);

    // The flow still finishes; drain it through its stale event.
    std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                        std::greater<std::int64_t>>
        events;
    events.push(100'000);
    for (const auto &[id, finish] : net.pendingReschedules())
        events.push(finish.ns());
    net.clearPendingReschedules();
    bool done = false;
    while (!events.empty() && !done) {
        const std::int64_t now = events.top();
        events.pop();
        const auto check =
            net.onFinishEvent(0, SimTime::fromNs(now));
        done = check.done;
        if (!done && check.reschedule)
            events.push(check.retry.ns());
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(net.totalLoad(), 0u);
}

TEST(LinkNetworkScenTest, RerouteFailsWithoutDiversity)
{
    // A NIC has no detour: killing node 0's injection link makes
    // every 0 -> * pair unroutable.
    const auto topo =
        net::compileTopology(net::topologies::fatTree(2), 4);
    LinkNetwork net;
    net.configure(&topo, 1000.0);
    const auto route = testing::routeOf(topo, 0, 2);
    ASSERT_TRUE(topo.isHostLink(route.front()));
    net.setLinkScale(route.front(), 0.0);
    net.applyScales(SimTime::zero());
    const auto report = net.rerouteDeadLinks(SimTime::zero());
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.src, 0);
}

/**
 * Bit-identity seam: a scenario whose first event fires after the
 * replay ends leaves every replay observable untouched, on the
 * flat bus and on a routed fabric alike.
 */
TEST(EngineScenTest, UnfiredScenarioLeavesTheReplayUntouched)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    for (const bool routed : {false, true}) {
        auto base = testing::platformAt(512.0);
        if (routed)
            base.topology = net::topologies::taperedFatTree(2);
        auto scenful = base;
        scenful.scenario.events.push_back(
            degradeAll(1e9, 0.5));

        const auto a = sim::simulate(bundle.traces, base);
        const auto b = sim::simulate(bundle.traces, scenful);
        EXPECT_EQ(a.totalTime.ns(), b.totalTime.ns())
            << "routed=" << routed;
        ASSERT_EQ(a.perRank.size(), b.perRank.size());
        for (std::size_t r = 0; r < a.perRank.size(); ++r) {
            EXPECT_EQ(a.perRank[r].endTime.ns(),
                      b.perRank[r].endTime.ns())
                << "rank " << r;
            EXPECT_EQ(a.perRank[r].bytesSent,
                      b.perRank[r].bytesSent)
                << "rank " << r;
        }
    }
}

/**
 * Flat-bus degrade semantics are analytic: the multiplier is
 * sampled at transfer begin. A half-capacity degrade active from
 * t = 0 doubles the 1 MB serialization exactly (1 ms extra at
 * 1000 MB/s); one that starts after the transfer began changes
 * nothing.
 */
TEST(EngineScenTest, FlatDegradeSamplesAtTransferBegin)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 0, 1));
    const auto base = testing::platformAt(1000.0);
    const SimTime nominal =
        sim::simulate(bundle.traces, base).totalTime;

    auto degraded = base;
    degraded.scenario.events.push_back(degradeAll(0.0, 0.5));
    EXPECT_EQ(
        sim::simulate(bundle.traces, degraded).totalTime.ns(),
        nominal.ns() + 1'000'000);

    auto late = base;
    late.scenario.events.push_back(degradeAll(100.0, 0.5));
    late.scenario.events.push_back(recoverAll(200.0));
    EXPECT_EQ(sim::simulate(bundle.traces, late).totalTime.ns(),
              nominal.ns());
}

/**
 * A flat-bus stall freezes the payload for exactly the window: the
 * 10 ms serialization (1 MB at 100 MB/s) crosses a [1 ms, 3 ms)
 * stall and finishes 2 ms late, with every byte accounted for.
 */
TEST(EngineScenTest, FlatStallShiftsTheFinishByTheWindow)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 0, 1));
    const auto base = testing::platformAt(100.0);
    const auto nominal = sim::simulate(bundle.traces, base);

    auto stalled = base;
    stalled.scenario.events.push_back(failEvent(
        1000.0, ScenTarget::all, -1, -1, FailSemantics::stall));
    stalled.scenario.events.push_back(recoverAll(3000.0));
    const auto result = sim::simulate(bundle.traces, stalled);
    EXPECT_EQ(result.totalTime.ns(),
              nominal.totalTime.ns() + 2'000'000);
    ASSERT_EQ(result.perRank.size(), nominal.perRank.size());
    for (std::size_t r = 0; r < result.perRank.size(); ++r) {
        EXPECT_EQ(result.perRank[r].bytesSent,
                  nominal.perRank[r].bytesSent)
            << "rank " << r;
    }
}

/**
 * The same round trip through the fluid model: a [200 us, 400 us)
 * full freeze on a routed fabric shifts the 1 ms flow (1 MB at
 * 1000 MB/s) out by exactly the window, and recovery loses no
 * bytes.
 */
TEST(EngineScenTest, NetStallRoundTripLosesNoBytes)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 0, 1));
    auto base = testing::platformAt(1000.0);
    base.topology = net::topologies::fatTree(4);
    const auto nominal = sim::simulate(bundle.traces, base);

    auto stalled = base;
    stalled.scenario.events.push_back(failEvent(
        200.0, ScenTarget::all, -1, -1, FailSemantics::stall));
    stalled.scenario.events.push_back(recoverAll(400.0));
    const auto result = sim::simulate(bundle.traces, stalled);
    EXPECT_EQ(result.totalTime.ns(),
              nominal.totalTime.ns() + 200'000);
    for (std::size_t r = 0; r < result.perRank.size(); ++r) {
        EXPECT_EQ(result.perRank[r].bytesSent,
                  nominal.perRank[r].bytesSent)
            << "rank " << r;
        EXPECT_EQ(result.perRank[r].messagesReceived,
                  nominal.perRank[r].messagesReceived)
            << "rank " << r;
    }

    // And the exact degrade analogue: half capacity over the same
    // window costs exactly the 100 us of lost progress.
    auto degraded = base;
    degraded.scenario.events.push_back(degradeAll(200.0, 0.5));
    degraded.scenario.events.push_back(recoverAll(400.0));
    EXPECT_EQ(
        sim::simulate(bundle.traces, degraded).totalTime.ns(),
        nominal.totalTime.ns() + 100'000);
}

TEST(EngineScenTest, FailStopReportsEveryUnfinishedRank)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 1'000'000, 4));
    for (const bool routed : {false, true}) {
        auto platform = testing::platformAt(256.0);
        if (routed)
            platform.topology = net::topologies::fatTree(2);
        platform.scenario.events.push_back(
            failEvent(1.0, ScenTarget::node, 0, -1,
                      FailSemantics::failStop));
        try {
            sim::simulate(bundle.traces, platform);
            FAIL() << "fail-stop did not fire (routed="
                   << routed << ")";
        } catch (const scen::FailureError &err) {
            const auto &diagnosis = err.diagnosis();
            EXPECT_EQ(diagnosis.time.ns(), 1000);
            EXPECT_NE(diagnosis.event.find("fail-stop"),
                      std::string::npos);
            // Nobody finished after one microsecond: the diagnosis
            // must list all four ranks.
            ASSERT_EQ(diagnosis.blockedRanks.size(), 4u);
            for (Rank r = 0; r < 4; ++r)
                EXPECT_EQ(diagnosis.blockedRanks[r].rank, r);
            EXPECT_NE(diagnosis.toString().find("unfinished"),
                      std::string::npos);
            EXPECT_NE(std::string(err.what()).find("fail-stop"),
                      std::string::npos);
        }
    }
}

TEST(EngineScenTest, UnrecoveredStallDeadlocksWithDiagnosis)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 0, 1));
    auto platform = testing::platformAt(1000.0);
    platform.scenario.events.push_back(failEvent(
        0.0, ScenTarget::all, -1, -1, FailSemantics::stall));
    try {
        sim::simulate(bundle.traces, platform);
        FAIL() << "expected the stalled replay to deadlock";
    } catch (const scen::FailureError &) {
        FAIL() << "a stall is not a fail-stop";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("deadlocked"), std::string::npos)
            << what;
        EXPECT_NE(what.find("never recovers"), std::string::npos)
            << what;
    }
}

TEST(EngineScenTest, RerouteRunsToCompletion)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 4));
    net::TopologyConfig ring = net::topologies::torus2d();
    ring.torusDims = {4};
    auto base = testing::platformAt(512.0);
    base.topology = ring;
    const auto nominal = sim::simulate(bundle.traces, base);

    auto rerouted = base;
    rerouted.scenario.events.push_back(
        failEvent(10.0, ScenTarget::link, 0, 1,
                  FailSemantics::reroute));
    const auto a = sim::simulate(bundle.traces, rerouted);
    // Traffic detours the long way round the ring: never faster,
    // and every byte still arrives.
    EXPECT_GE(a.totalTime.ns(), nominal.totalTime.ns());
    for (std::size_t r = 0; r < a.perRank.size(); ++r) {
        EXPECT_EQ(a.perRank[r].bytesSent,
                  nominal.perRank[r].bytesSent)
            << "rank " << r;
    }
    expectIdentical(a, sim::simulate(bundle.traces, rerouted));

    // Recovery restores the compiled routes mid-run.
    auto recovered = rerouted;
    recovered.scenario.events.push_back(
        recoverEvent(400.0, ScenTarget::link, 0, 1));
    const auto b = sim::simulate(bundle.traces, recovered);
    expectIdentical(b, sim::simulate(bundle.traces, recovered));
}

TEST(EngineScenTest, RerouteWithoutDiversityIsFatal)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 100'000));
    auto platform = testing::platformAt(512.0);
    platform.topology = net::topologies::fatTree(2);
    // Killing a NIC leaves no surviving route to reroute onto.
    platform.scenario.events.push_back(
        failEvent(1.0, ScenTarget::node, 0, -1,
                  FailSemantics::reroute));
    try {
        sim::simulate(bundle.traces, platform);
        FAIL() << "expected the reroute to fail";
    } catch (const FatalError &err) {
        EXPECT_NE(
            std::string(err.what()).find("no surviving route"),
            std::string::npos)
            << err.what();
    }
}

TEST(EngineScenTest, BackgroundFlowsDelayTheApp)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 500'000, 1));
    for (const bool routed : {false, true}) {
        auto base = testing::platformAt(256.0);
        if (routed)
            base.topology = net::topologies::taperedFatTree(2);
        const auto nominal = sim::simulate(bundle.traces, base);

        auto busy = base;
        busy.scenario.events.push_back(
            backgroundFlow(0.001, 0, 1, 4 << 20));
        const auto result = sim::simulate(bundle.traces, busy);
        EXPECT_GT(result.totalTime.ns(), nominal.totalTime.ns())
            << "routed=" << routed;
        expectIdentical(result, sim::simulate(bundle.traces, busy));
    }
}

/**
 * A wedged algorithmic collective names the schedule step: freeze
 * the whole fabric under an allreduce and the deadlock diagnosis
 * must say which step of which operation never completed.
 */
TEST(EngineScenTest, CollectiveWedgeNamesTheScheduleStep)
{
    const auto bundle = testing::traceOf(
        4, [](vm::VmContext &ctx) {
            ctx.compute(10'000);
            ctx.allReduce(256 * 1024);
        });
    auto platform = testing::platformAt(1000.0);
    platform.topology = net::topologies::fatTree(4);
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.scenario.events.push_back(failEvent(
        0.0, ScenTarget::all, -1, -1, FailSemantics::stall));
    try {
        sim::simulate(bundle.traces, platform);
        FAIL() << "expected the frozen collective to deadlock";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("deadlocked"), std::string::npos)
            << what;
        EXPECT_NE(what.find("collective=allreduce"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("step="), std::string::npos) << what;
        EXPECT_NE(what.find("never recovers"), std::string::npos)
            << what;
    }
}

/** Bit-exact equality of two sweep results. */
void
expectIdenticalSweep(const core::SweepResult &a,
                     const core::SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].originalTime.ns(),
                  b.points[i].originalTime.ns())
            << "point " << i;
        ASSERT_EQ(a.points[i].variantTimes.size(),
                  b.points[i].variantTimes.size());
        for (std::size_t v = 0;
             v < a.points[i].variantTimes.size(); ++v) {
            EXPECT_EQ(a.points[i].variantTimes[v].ns(),
                      b.points[i].variantTimes[v].ns())
                << "point " << i << " variant " << v;
        }
    }
}

TEST(ScenSweepTest, DegradedSweepMatchesSequentialAcrossThreads)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    auto base = testing::platformAt(256.0);
    base.topology = net::topologies::taperedFatTree(2);
    const std::vector<double> grid = {64.0, 512.0};
    const auto variants = core::standardVariants(4);

    // Nominal, mid-degrade and background, each across the grid.
    std::vector<sim::PlatformConfig> scenarios(3, base);
    scenarios[1].scenario.events.push_back(degradeAll(50.0, 0.25, 2.0));
    scenarios[1].scenario.events.push_back(recoverAll(500.0));
    scenarios[2].scenario.events.push_back(
        backgroundFlow(10.0, 0, 2, 1 << 20));
    scenarios[2].scenario.events.push_back(
        backgroundFlow(20.0, 1, 3, 1 << 20));
    const auto platforms = testing::atBandwidths(scenarios, grid);

    const auto sequential =
        core::platformSweep(bundle, platforms, variants, 1);
    ASSERT_EQ(sequential.points.size(), scenarios.size() * grid.size());
    // The degraded scenarios actually bite: at least one sweep
    // point must be slower than its nominal twin.
    EXPECT_GT(sequential.points[grid.size()].originalTime.ns(),
              sequential.points[0].originalTime.ns());

    for (const int threads : {2, 8}) {
        expectIdenticalSweep(
            core::platformSweep(bundle, platforms, variants, threads),
            sequential);
    }
}

TEST(ScenPlatformFileTest, DuplicateKeysAreRejected)
{
    std::istringstream in(
        "bandwidth_mbps = 100\nlatency_us = 4\n"
        "bandwidth_mbps = 200\n");
    try {
        sim::readPlatformConfig(in, "dup.platform");
        FAIL() << "expected the duplicate key to be fatal";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("dup.platform line 3"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("duplicate key 'bandwidth_mbps'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("first set on line 1"),
                  std::string::npos)
            << what;
    }
}

TEST(ScenPlatformFileTest, ErrorsNameFileAndLine)
{
    const std::string path =
        ::testing::TempDir() + "scen_bad.platform";
    {
        std::ofstream os(path);
        os << "# comment\nbandwidth_mbps = 100\nnonsense\n";
    }
    try {
        sim::readPlatformConfigFile(path);
        FAIL() << "expected the malformed line to be fatal";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(ScenPlatformFileTest, ScenarioFileKeyLoadsAndRoundTrips)
{
    const std::string scenPath =
        ::testing::TempDir() + "scen_events.scen";
    {
        ScenarioConfig config;
        config.events.push_back(degradeAll(10.0, 0.5, 2.0));
        config.events.push_back(recoverAll(20.0));
        std::ofstream os(scenPath);
        scen::writeScenario(config, os);
    }

    std::istringstream in("bandwidth_mbps = 512\nscenario_file = " +
                          scenPath + "\n");
    const auto config = sim::readPlatformConfig(in, "scenful");
    ASSERT_EQ(config.scenario.events.size(), 2u);
    EXPECT_EQ(config.scenario.sourcePath, scenPath);
    EXPECT_EQ(config.scenario.events[0].bandwidthFactor, 0.5);

    // The writer re-emits the reference and the round trip holds.
    std::stringstream text;
    sim::writePlatformConfig(config, text);
    EXPECT_NE(text.str().find("scenario_file = " + scenPath),
              std::string::npos);
    const auto back =
        sim::readPlatformConfig(text, "round-trip");
    EXPECT_EQ(back.scenario, config.scenario);

    // A dangling reference is fatal and names the referencing line.
    std::istringstream bad(
        "scenario_file = /nonexistent/evil.scen\n");
    try {
        sim::readPlatformConfig(bad, "dangling");
        FAIL() << "expected the missing scenario file to be fatal";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("dangling line 1"),
                  std::string::npos)
            << err.what();
    }
    std::remove(scenPath.c_str());
}

TEST(ScenEngineDeterminismTest, ScenariosReplayDeterministically)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(128 * 1024, 400'000, 4));
    auto base = testing::platformAt(512.0);
    base.topology = net::topologies::taperedFatTree(2);
    base.scenario.events.push_back(degradeAll(20.0, 0.25));
    base.scenario.events.push_back(recoverAll(200.0));
    base.scenario.events.push_back(
        backgroundFlow(50.0, 0, 3, 2 << 20));

    const auto reference = sim::simulate(bundle.traces, base);
    sim::ReplaySession session;
    for (int repeat = 0; repeat < 3; ++repeat) {
        expectIdentical(reference,
                        sim::simulate(bundle.traces, base));
        expectIdentical(reference,
                        session.run(bundle.traces, base));
    }
}

} // namespace
} // namespace ovlsim
