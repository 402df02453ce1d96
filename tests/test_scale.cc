/**
 * @file
 * The network layer at 4096 ranks, four times the largest pinned
 * replay of test_net_scale.
 *
 *  - replay pins: a one-iteration, one-bucket generated ml-training
 *    (64 MiB gradient, 50M-instruction steps, seed 1) with
 *    algorithmic recursive-doubling allreduce at 4096 MB/s, on the
 *    gen-scale tapered fat tree and on the auto-sized dragonfly:
 *    total simulated time and events, recorded from the all-pairs
 *    route-table network, and rate recomputes and repeat occupant
 *    visits, re-pinned when an admission stopped re-deriving its
 *    neighbours' bottlenecks and a removal began re-deriving only
 *    the flows it bottlenecked, and again when an admission burst's
 *    mins became one pass per lowered link and a removal stopped
 *    walking flows that finish at its instant;
 *  - the original of a generated stencil with family defaults on
 *    the tapered fat tree: the same four figures plus a hash of
 *    per-rank end times, recorded from the eager-settle network
 *    (the two counters re-pinned likewise), and byte conservation
 *    (every byte and message the trace sends is received once);
 *  - memory: a compiled 4096-node topology is O(links), at most 64
 *    bytes per link (the route table it replaced held 828 MB for
 *    the tapered tree);
 *  - occupancy conservation with hundreds of flows in flight: the
 *    summed link loads equal the summed route lengths, and a
 *    drained network holds zero load;
 *  - a scaling sweep of the same ml-training at 512 and 1024 ranks
 *    on the tapered fat tree, bit-identical on one lane and on two,
 *    where costliest-first scheduling replays two 1024-rank
 *    programs at once.
 *
 * Labeled `scale`; the sanitizer stages run it serially, since only
 * these node counts reach the large link and hop-slot indices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include "core/analysis.hh"
#include "gen/gen.hh"
#include "helpers.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "util/counter_rng.hh"

namespace ovlsim {
namespace {

constexpr int kRanks = 4096;

struct ReplayPin
{
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t rateRecomputes;
    std::uint64_t repeatVisits;
};

/** The gen-scale platform around `topology`: 4096 MB/s, algorithmic
 * collectives, recursive-doubling allreduce. */
sim::PlatformConfig
genScalePlatform(const net::TopologyConfig &topology)
{
    auto platform = sim::platforms::topologyCluster(topology);
    platform.bandwidthMBps = 4096.0;
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(
        trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);
    return platform;
}

/** One iteration, one 64 MiB gradient bucket, 50M-instruction steps. */
gen::WorkloadConfig
mlTraining()
{
    gen::WorkloadConfig ml;
    ml.kind = gen::WorkloadKind::mlTraining;
    ml.name = "gen-ml";
    ml.iterations = 1;
    ml.gradientBuckets = 1;
    ml.gradientBytes = Bytes(64) * 1024 * 1024;
    ml.stepInstr = 50'000'000;
    return ml;
}

/** A stencil with family defaults (the gen-scale campaign's second
 * family). */
gen::WorkloadConfig
stencil()
{
    gen::WorkloadConfig config;
    config.kind = gen::WorkloadKind::stencil;
    config.name = "gen-stencil";
    return config;
}

/** Replay `traces` on the gen-scale platform around `topology` and
 * check the pin; returns the result for further checks. */
sim::SimResult
replayPinned(const trace::TraceSet &traces,
             const net::TopologyConfig &topology, const ReplayPin &pin)
{
    auto result = sim::simulate(traces, genScalePlatform(topology));
    EXPECT_EQ(result.totalTime.ns(), pin.totalNs);
    EXPECT_EQ(result.eventsProcessed, pin.events);
    EXPECT_EQ(result.stats.rateRecomputes, pin.rateRecomputes);
    EXPECT_EQ(result.stats.recomputesSkipped, pin.repeatVisits);
    return result;
}

void
expectReplayPinned(const net::TopologyConfig &topology,
                   const ReplayPin &pin)
{
    replayPinned(gen::generateTrace(
                     gen::withRankCount(mlTraining(), kRanks), 1),
                 topology, pin);
}

TEST(ScalePinTest, MlTrainingOnTaperedFatTree)
{
    expectReplayPinned(net::topologies::taperedFatTree(4, 0.5),
                       {2'114'480'001, 144'728, 88'640,
                        14'975'872});
}

TEST(ScalePinTest, MlTrainingOnDragonfly)
{
    expectReplayPinned(net::topologies::dragonfly(),
                       {754'608'000, 139'264, 49'152, 169'984});
}

TEST(ScalePinTest, StencilOnTaperedFatTree)
{
    const auto traces =
        gen::generateTrace(gen::withRankCount(stencil(), kRanks), 1);
    const auto result =
        replayPinned(traces, net::topologies::taperedFatTree(4, 0.5),
                     {5'015'008, 687'329, 1'006'519, 4'632'523});
    EXPECT_EQ(testing::endTimeHash(result), 0x20c513ad0883193cULL);

    // Byte conservation: every payload byte and message the trace
    // sends is delivered once.
    Bytes sent = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesReceived = 0;
    for (const auto &rank : result.perRank) {
        sent += rank.bytesSent;
        messagesSent += rank.messagesSent;
        messagesReceived += rank.messagesReceived;
    }
    EXPECT_EQ(sent, traces.totalSentBytes());
    EXPECT_EQ(messagesSent, messagesReceived);
    EXPECT_EQ(messagesReceived, traces.totalMessages());
}

TEST(ScaleCampaignTest, TwoLaneScalingSweepMatchesOneLane)
{
    const auto platform =
        genScalePlatform(net::topologies::taperedFatTree(4, 0.5));
    const std::vector<int> grid{512, 1024};
    const auto variants = core::standardVariants(16);
    const auto one = core::scalingSweep(mlTraining(), 1, platform,
                                        grid, variants, 1);
    const auto two = core::scalingSweep(mlTraining(), 1, platform,
                                        grid, variants, 2);
    ASSERT_EQ(two.points.size(), one.points.size());
    for (std::size_t i = 0; i < one.points.size(); ++i) {
        const auto &a = one.points[i];
        const auto &b = two.points[i];
        EXPECT_EQ(b.ranks, grid[i]);
        EXPECT_EQ(b.originalTime.ns(), a.originalTime.ns());
        EXPECT_EQ(b.originalCommFraction, a.originalCommFraction);
        EXPECT_EQ(b.variantTimes, a.variantTimes);
        EXPECT_TRUE(b.stats == a.stats) << "point " << i;
    }
    EXPECT_TRUE(two.stats == one.stats);
}

TEST(ScaleTopologyTest, CompiledStateIsLinearInLinks)
{
    const net::TopologyConfig configs[] = {
        net::topologies::taperedFatTree(4, 0.5),
        net::topologies::torus2d(), net::topologies::dragonfly()};
    for (const auto &config : configs) {
        const auto topo = net::compileTopology(config, kRanks);
        EXPECT_LE(topo.memoryBytes(),
                  std::size_t{64} * topo.linkCount())
            << net::topologyKindName(config.kind);
    }
    EXPECT_LT(net::compileTopology(
                  net::topologies::taperedFatTree(4, 0.5), kRanks)
                  .memoryBytes(),
              std::size_t{1} << 20);
}

TEST(ScaleNetworkTest, OccupancyConservedWithHundredsInFlight)
{
    const auto topo = net::compileTopology(
        net::topologies::taperedFatTree(4, 0.5), kRanks);
    net::LinkNetwork network;
    network.configure(&topo, 1000.0); // 1 B/ns
    CounterRng rng(7, 0x7363616c65);

    // Seeded flows admitted over a short window, so hundreds share
    // the tree at once.
    using Ev = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> events;
    std::uint64_t expected = 0;
    constexpr std::uint32_t flows = 400;
    std::vector<std::vector<std::uint32_t>> routes;
    for (std::uint32_t id = 0; id < flows; ++id) {
        const int src = static_cast<int>(rng.nextBelow(kRanks));
        int dst = static_cast<int>(rng.nextBelow(kRanks - 1));
        if (dst >= src)
            ++dst;
        const auto now =
            SimTime::fromNs(static_cast<std::int64_t>(id));
        const SimTime finish = network.start(
            id, src, dst, 1 + rng.nextBelow(1 << 20), now);
        routes.push_back(testing::routeOf(topo, src, dst));
        expected += routes.back().size();
        events.push({finish.ns(), id});
    }
    EXPECT_EQ(network.activeFlows(), flows);
    EXPECT_EQ(network.totalLoad(), expected);

    std::vector<bool> done(flows, false);
    while (!events.empty()) {
        const auto [ns, id] = events.top();
        events.pop();
        if (done[id])
            continue;
        const auto check =
            network.onFinishEvent(id, SimTime::fromNs(ns));
        if (!check.done) {
            if (check.reschedule)
                events.push({check.retry.ns(), id});
            continue;
        }
        // The completed flow hands back the hops it carried.
        done[id] = true;
        EXPECT_TRUE(std::equal(check.route.begin(), check.route.end(),
                               routes[id].begin(), routes[id].end()))
            << "flow " << id;
        expected -= routes[id].size();
        for (const auto &[flow, finish] :
             network.pendingReschedules())
            events.push({finish.ns(), flow});
        network.clearPendingReschedules();
        ASSERT_EQ(network.totalLoad(), expected);
    }
    EXPECT_EQ(network.activeFlows(), 0u);
    EXPECT_EQ(network.totalLoad(), 0u);
}

} // namespace
} // namespace ovlsim
