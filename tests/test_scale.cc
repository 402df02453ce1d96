/**
 * @file
 * The network layer at 4096 ranks, four times the largest pinned
 * replay of test_net_scale.
 *
 *  - replay pins: a one-iteration, one-bucket generated ml-training
 *    (64 MiB gradient, 50M-instruction steps, seed 1) with
 *    algorithmic recursive-doubling allreduce at 4096 MB/s, on the
 *    gen-scale tapered fat tree and on the auto-sized dragonfly:
 *    total simulated time, events, rate recomputes and repeat
 *    occupant visits, recorded from the all-pairs route-table
 *    network;
 *  - memory: a compiled 4096-node topology is O(links), at most 64
 *    bytes per link (the route table it replaced held 828 MB for
 *    the tapered tree);
 *  - occupancy conservation with hundreds of flows in flight: the
 *    summed link loads equal the summed route lengths, and a
 *    drained network holds zero load.
 *
 * Labeled `scale`; the sanitizer stages run it serially, since only
 * these node counts reach the large link and hop-slot indices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

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

void
expectReplayPinned(const net::TopologyConfig &topology,
                   const ReplayPin &pin)
{
    auto platform = sim::platforms::topologyCluster(topology);
    platform.bandwidthMBps = 4096.0;
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(
        trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);

    gen::WorkloadConfig ml;
    ml.kind = gen::WorkloadKind::mlTraining;
    ml.name = "gen-ml";
    ml.iterations = 1;
    ml.gradientBuckets = 1;
    ml.gradientBytes = Bytes(64) * 1024 * 1024;
    ml.stepInstr = 50'000'000;
    const auto traces =
        gen::generateTrace(gen::withRankCount(ml, kRanks), 1);

    const auto result = sim::simulate(traces, platform);
    EXPECT_EQ(result.totalTime.ns(), pin.totalNs);
    EXPECT_EQ(result.eventsProcessed, pin.events);
    EXPECT_EQ(result.stats.rateRecomputes, pin.rateRecomputes);
    EXPECT_EQ(result.stats.recomputesSkipped, pin.repeatVisits);
}

TEST(ScalePinTest, MlTrainingOnTaperedFatTree)
{
    expectReplayPinned(net::topologies::taperedFatTree(4, 0.5),
                       {2'114'480'001, 144'728, 11'182'080,
                        18'604'032});
}

TEST(ScalePinTest, MlTrainingOnDragonfly)
{
    expectReplayPinned(net::topologies::dragonfly(),
                       {754'608'000, 139'264, 176'128, 176'128});
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
