/**
 * @file
 * The topology-aware network subsystem: route compilation, the
 * link-contention model's invariants, platform-file coverage of the
 * topology fields, and the engine seam.
 *
 * Key contracts pinned here:
 *  - per-link occupancy conservation: while flows are in flight the
 *    summed link loads equal the summed route lengths, and a
 *    drained network holds zero load,
 *  - route symmetry: route(a, b) and route(b, a) traverse the same
 *    number of links in every compiled topology,
 *  - route pins: the computed routes, link ids and link tables hash
 *    to the values recorded from the all-pairs route table they
 *    replaced, for every kind across node counts up to 1024,
 *  - bus-model bit-identity: a platform carrying the default
 *    flat-bus topology replays exactly like the pre-topology
 *    engine path (same struct, same code path — pinned against the
 *    compile-on-entry reference),
 *  - uncontended equivalence: a lone transfer through a
 *    full-bisection fabric costs exactly the flat model's
 *    serialization + latency,
 *  - determinism: every topology replays bit-identically across
 *    repeats, sessions and the one-shot entry point,
 *  - occupant-list equivalence: seeded operation streams drive the
 *    production network and the O(F) reference of
 *    reference_network.hh side by side and must agree on every
 *    finish time, finish check, reschedule sequence and link load;
 *    one shape moves the clock between operations, the other admits
 *    and completes collective rounds at one instant each,
 *  - transactional reroute: a reroute that fails on a severed pair
 *    leaves routes, loads and occupant lists exactly as they were.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/analysis.hh"
#include "helpers.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "reference_network.hh"
#include "sim/engine.hh"
#include "sim/platform_file.hh"
#include "util/counter_rng.hh"

namespace ovlsim {
namespace {

using net::CompiledTopology;
using net::LinkNetwork;
using net::TopologyConfig;
using net::TopologyKind;
using testing::expectIdentical;

TEST(TopologyKindTest, NamesRoundTrip)
{
    for (const auto kind :
         {TopologyKind::flatBus, TopologyKind::fatTree,
          TopologyKind::torus, TopologyKind::dragonfly}) {
        EXPECT_EQ(net::topologyKindFromName(
                      net::topologyKindName(kind)),
                  kind);
    }
    EXPECT_THROW(net::topologyKindFromName("hypercube"),
                 FatalError);
}

TEST(TopologyConfigTest, ValidateRejectsNonsense)
{
    TopologyConfig tree = net::topologies::fatTree();
    tree.fatTreeRadix = 3; // not a power of two
    EXPECT_THROW(tree.validate(), FatalError);
    tree.fatTreeRadix = 1;
    EXPECT_THROW(tree.validate(), FatalError);
    tree = net::topologies::fatTree();
    tree.fatTreeTaper = 0.0;
    EXPECT_THROW(tree.validate(), FatalError);

    TopologyConfig torus = net::topologies::torus2d();
    torus.torusDims = {4, 0};
    EXPECT_THROW(torus.validate(), FatalError);

    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyRoutersPerGroup = 0;
    EXPECT_THROW(fly.validate(), FatalError);

    TopologyConfig bad = net::topologies::fatTree();
    bad.linkBandwidthMBps = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad = net::topologies::fatTree();
    bad.hopLatencyUs = -0.5;
    EXPECT_THROW(bad.validate(), FatalError);

    // NaN and infinity fail too, each naming its key: a NaN hop
    // latency used to price every transfer at zero, and a NaN taper
    // or link bandwidth was accepted silently. A hop latency past the
    // nanosecond clock used to price the fat tree's transfers wrong.
    for (const auto &[key, field] :
         {std::pair{"fat_tree_taper", &TopologyConfig::fatTreeTaper},
          std::pair{"link_bandwidth_mbps",
                    &TopologyConfig::linkBandwidthMBps},
          std::pair{"hop_latency_us", &TopologyConfig::hopLatencyUs}}) {
        std::vector<double> bads{std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()};
        if (std::string_view(key).ends_with("_us"))
            bads.push_back(1e300);
        for (const double bad : bads) {
            TopologyConfig tree = net::topologies::fatTree(4);
            tree.*field = bad;
            try {
                tree.validate();
                ADD_FAILURE() << key << " = " << bad << " passed";
            } catch (const FatalError &err) {
                EXPECT_NE(std::string(err.what()).find(key),
                          std::string::npos)
                    << err.what();
            }
        }
    }
}

TEST(TopologyConfigTest, PlatformValidateCoversTopology)
{
    auto platform = sim::platforms::topologyCluster(
        net::topologies::fatTree());
    platform.topology.fatTreeRadix = 6;
    EXPECT_THROW(platform.validate(), FatalError);
}

TEST(PlatformFileTopologyTest, RoundTripPreservesTopology)
{
    auto config = sim::platforms::defaultCluster(2);
    config.topology = net::topologies::taperedFatTree(8, 0.25);
    config.topology.linkBandwidthMBps = 512.0;
    config.topology.hopLatencyUs = 0.75;

    std::stringstream stream;
    sim::writePlatformConfig(config, stream);
    const auto parsed = sim::readPlatformConfig(stream);
    EXPECT_TRUE(parsed.topology == config.topology);

    auto torus = sim::platforms::defaultCluster();
    torus.topology = net::topologies::torus2d();
    torus.topology.torusDims = {4, 2, 2};
    torus.topology.torusWrap = false;
    std::stringstream stream2;
    sim::writePlatformConfig(torus, stream2);
    EXPECT_TRUE(sim::readPlatformConfig(stream2).topology ==
                torus.topology);
}

TEST(PlatformFileTopologyTest, RejectsBadTopologyValues)
{
    std::stringstream unknown("topology = moebius-strip\n");
    EXPECT_THROW(sim::readPlatformConfig(unknown), FatalError);

    std::stringstream radix("topology = fat-tree\n"
                            "fat_tree_radix = 6\n");
    EXPECT_THROW(sim::readPlatformConfig(radix), FatalError);

    std::stringstream zerobw("topology = torus\n"
                             "link_bandwidth_mbps = 0\n");
    EXPECT_THROW(sim::readPlatformConfig(zerobw), FatalError);

    std::stringstream dims("topology = torus\n"
                           "torus_dims = 4x0\n");
    EXPECT_THROW(sim::readPlatformConfig(dims), FatalError);

    // 64-bit values must not wrap into small valid-looking ints, and
    // a non-finite link bandwidth is no bandwidth; each error names
    // the file and line.
    for (const char *bad :
         {"topology = fat-tree\nfat_tree_radix = 4294967304\n",
          "topology = torus\ntorus_dims = 4294967298x2\n",
          "topology = dragonfly\ndragonfly_groups = 4294967298\n",
          "topology = dragonfly\n"
          "dragonfly_routers_per_group = 4294967298\n",
          "topology = dragonfly\n"
          "dragonfly_nodes_per_router = 4294967298\n",
          "topology = torus\nlink_bandwidth_mbps = nan\n",
          "topology = torus\nlink_bandwidth_mbps = inf\n"}) {
        std::stringstream in(bad);
        try {
            sim::readPlatformConfig(in, "bad.cfg");
            ADD_FAILURE() << "accepted " << bad;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("bad.cfg line 2"),
                      std::string::npos)
                << err.what();
        }
    }
}

/** Route length of every ordered pair, for symmetry checks. */
void
expectRouteSymmetry(const CompiledTopology &topo)
{
    for (int a = 0; a < topo.nodes(); ++a) {
        for (int b = 0; b < topo.nodes(); ++b) {
            EXPECT_EQ(testing::routeOf(topo, a, b).size(),
                      testing::routeOf(topo, b, a).size())
                << "pair " << a << "<->" << b;
        }
    }
}

TEST(RouteCompilerTest, FatTreeRoutes)
{
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 8);
    EXPECT_EQ(topo.nodes(), 8);
    // Same leaf: injection + reception only.
    EXPECT_EQ(testing::routeOf(topo, 0, 1).size(), 2u);
    // Opposite halves of an 8-node radix-2 tree: 2 up, 2 down.
    EXPECT_EQ(testing::routeOf(topo, 0, 7).size(), 6u);
    // Intra-node traffic never touches the network.
    EXPECT_TRUE(testing::routeOf(topo, 3, 3).empty());
    expectRouteSymmetry(topo);
}

TEST(RouteCompilerTest, TorusRoutesUseShortestDirection)
{
    TopologyConfig config = net::topologies::torus2d();
    config.torusDims = {4};
    const auto topo = net::compileTopology(config, 4);
    // Ring of 4: 0 -> 1 is one hop (+ inject/eject), 0 -> 3 wraps
    // backwards in one hop, 0 -> 2 ties and takes two.
    EXPECT_EQ(testing::routeOf(topo, 0, 1).size(), 3u);
    EXPECT_EQ(testing::routeOf(topo, 0, 3).size(), 3u);
    EXPECT_EQ(testing::routeOf(topo, 0, 2).size(), 4u);
    expectRouteSymmetry(topo);

    config.torusWrap = false;
    const auto mesh = net::compileTopology(config, 4);
    // Mesh: no wrap, 0 -> 3 walks the full line.
    EXPECT_EQ(testing::routeOf(mesh, 0, 3).size(), 5u);
    expectRouteSymmetry(mesh);
}

TEST(RouteCompilerTest, DragonflyRoutes)
{
    TopologyConfig config = net::topologies::dragonfly();
    config.dragonflyGroups = 3;
    config.dragonflyRoutersPerGroup = 2;
    config.dragonflyNodesPerRouter = 2;
    const auto topo = net::compileTopology(config, 12);
    // Same router: inject + eject.
    EXPECT_EQ(testing::routeOf(topo, 0, 1).size(), 2u);
    // Same group, different router: one local hop.
    EXPECT_EQ(testing::routeOf(topo, 0, 2).size(), 3u);
    expectRouteSymmetry(topo);
    // Cross-group routes take at most local-global-local + NIC.
    for (int a = 0; a < 12; ++a) {
        for (int b = 0; b < 12; ++b) {
            if (a != b) {
                EXPECT_LE(testing::routeOf(topo, a, b).size(),
                          5u);
            }
        }
    }
}

TEST(RouteCompilerTest, AutoSizingCoversTheNodeCount)
{
    for (const int nodes : {1, 2, 5, 16, 33}) {
        const auto torus = net::compileTopology(
            net::topologies::torus2d(), nodes);
        const auto fly = net::compileTopology(
            net::topologies::dragonfly(), nodes);
        EXPECT_EQ(torus.nodes(), nodes);
        EXPECT_EQ(fly.nodes(), nodes);
    }
    // Explicit sizing that cannot host the machine is fatal.
    TopologyConfig small = net::topologies::torus2d();
    small.torusDims = {2, 2};
    EXPECT_THROW(net::compileTopology(small, 5), FatalError);
    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyGroups = 1;
    EXPECT_THROW(net::compileTopology(fly, 5), FatalError);
}

/** FNV-1a over little-endian bytes, fed value by value. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v, int bytes)
    {
        for (int i = 0; i < bytes; ++i) {
            h ^= v & 0xffu;
            h *= 0x100000001b3ULL;
            v >>= 8;
        }
    }
};

/** Fold one compiled topology into `hash`: node, link and vertex
 * counts, every link's factor bits and endpoints, and every ordered
 * pair's route (length, then link ids). */
void
hashTopology(Fnv1a &hash, const CompiledTopology &topo)
{
    hash.add(static_cast<std::uint64_t>(topo.nodes()), 4);
    hash.add(topo.linkCount(), 4);
    hash.add(topo.vertexCount(), 4);
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l) {
        hash.add(std::bit_cast<std::uint64_t>(topo.linkFactor(l)), 8);
        hash.add(topo.linkFrom(l), 4);
        hash.add(topo.linkTo(l), 4);
    }
    for (int s = 0; s < topo.nodes(); ++s) {
        for (int d = 0; d < topo.nodes(); ++d) {
            const auto route = testing::routeOf(topo, s, d);
            hash.add(route.size(), 4);
            for (const std::uint32_t link : route)
                hash.add(link, 4);
        }
    }
}

TEST(RouteCompilerTest, RoutesMatchTheAllPairsTablePins)
{
    // Recorded from the all-pairs route table that route() replaced:
    // per configuration, one hash over every node count it can host
    // of {1, 2, 3, 5, 16, 17, 64, 100, 257} (plus 1024 for the
    // gen-scale tapered tree). Same links, same ids, same hop order.
    struct Pin
    {
        const char *name;
        TopologyConfig config;
        int capacity;
        bool large;
        std::uint64_t hash;
    };
    constexpr int any = 1 << 30;
    std::vector<Pin> pins;
    const std::uint64_t treeHashes[] = {
        0x16ee61e4853feedeULL, 0x7bc2e5036f29645eULL,
        0xf705cc7e57e1bd4bULL, 0x34569b55b39bb1e7ULL,
        0xa728bc061f509704ULL, 0xe7da1b787a3c0424ULL};
    const std::uint64_t *treeHash = treeHashes;
    for (const int radix : {2, 4, 8}) {
        pins.push_back({"fat tree", net::topologies::fatTree(radix),
                        any, false, *treeHash++});
        pins.push_back({"tapered fat tree",
                        net::topologies::taperedFatTree(radix, 0.5),
                        any, radix == 4, *treeHash++});
    }
    pins.push_back({"torus auto", net::topologies::torus2d(), any,
                    false, 0x7100b94907013d93ULL});
    TopologyConfig small = net::topologies::torus2d();
    small.torusDims = {4, 2, 2};
    pins.push_back({"torus 4x2x2", small, 16, false,
                    0xac3ca1b030410378ULL});
    small.torusWrap = false;
    pins.push_back({"mesh 4x2x2", small, 16, false,
                    0x2cf720d9d9ecb660ULL});
    TopologyConfig mesh = net::topologies::torus2d();
    mesh.torusWrap = false;
    pins.push_back({"mesh auto", mesh, any, false,
                    0x9e516545cd081467ULL});
    pins.push_back({"dragonfly auto", net::topologies::dragonfly(),
                    any, false, 0xcc5a2f083a8d2b05ULL});
    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyGroups = 9;
    fly.dragonflyRoutersPerGroup = 4;
    fly.dragonflyNodesPerRouter = 8;
    pins.push_back({"dragonfly 9x4x8", fly, 288, false,
                    0x88bb728b6ca836f1ULL});

    for (const Pin &pin : pins) {
        Fnv1a hash;
        for (const int nodes :
             {1, 2, 3, 5, 16, 17, 64, 100, 257, 1024}) {
            if (nodes > pin.capacity || (nodes == 1024 && !pin.large))
                continue;
            hashTopology(hash, net::compileTopology(pin.config, nodes));
        }
        EXPECT_EQ(hash.h, pin.hash)
            << pin.name << " radix " << pin.config.fatTreeRadix;
    }
}

/**
 * Mini event loop over a LinkNetwork: drives every armed finish
 * event in time order, checking occupancy conservation throughout.
 */
struct NetHarness
{
    explicit NetHarness(const CompiledTopology &topo,
                        double base_mbps)
        : topo_(topo)
    {
        net.configure(&topo_, base_mbps);
    }

    void
    start(std::uint32_t id, int src, int dst, Bytes bytes,
          SimTime now)
    {
        expectedLoad +=
            testing::routeOf(topo_, src, dst).size();
        const SimTime finish = net.start(id, src, dst, bytes, now);
        events.push({finish.ns(), id});
        EXPECT_EQ(net.totalLoad(), expectedLoad);
    }

    /** Run until drained; returns the completion time per flow id. */
    std::vector<std::pair<std::uint32_t, SimTime>>
    drain()
    {
        std::vector<std::pair<std::uint32_t, SimTime>> done;
        std::vector<std::uint32_t> finished;
        while (!events.empty()) {
            const auto [ns, id] = events.top();
            events.pop();
            // Leftover events of completed flows are dropped, the
            // way the engine's tfInNet flag drops them.
            if (std::find(finished.begin(), finished.end(), id) !=
                finished.end())
                continue;
            const SimTime now = SimTime::fromNs(ns);
            const auto check = net.onFinishEvent(id, now);
            if (!check.done) {
                if (check.reschedule)
                    events.push({check.retry.ns(), id});
                continue;
            }
            done.emplace_back(id, now);
            finished.push_back(id);
            for (const auto &[flow, finish] :
                 net.pendingReschedules())
                events.push({finish.ns(), flow});
            net.clearPendingReschedules();
        }
        EXPECT_EQ(net.activeFlows(), 0u);
        EXPECT_EQ(net.totalLoad(), 0u);
        return done;
    }

    const CompiledTopology &topo_;
    LinkNetwork net;
    std::uint64_t expectedLoad = 0;
    using Ev = std::pair<std::int64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>>
        events;
};

TEST(LinkNetworkTest, OccupancyConservation)
{
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 8);
    NetHarness h(topo, 1000.0); // 1 B/ns
    h.start(0, 0, 7, 64 * 1024, SimTime::zero());
    h.start(1, 1, 6, 32 * 1024, SimTime::fromNs(100));
    h.start(2, 4, 3, 16 * 1024, SimTime::fromNs(200));
    const auto done = h.drain();
    EXPECT_EQ(done.size(), 3u);
}

TEST(LinkNetworkTest, UncontendedFlowMatchesSerialization)
{
    // 1000 MB/s = 1 B/ns: a lone 4096-byte flow through a
    // full-bisection tree serializes in exactly 4096 ns.
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 4);
    NetHarness h(topo, 1000.0);
    h.start(0, 0, 3, 4096, SimTime::zero());
    const auto done = h.drain();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].second.ns(), 4096);
}

TEST(LinkNetworkTest, FinishPastTheClockIsFatal)
{
    // 1e-12 MB/s is 1e-15 B/ns: 64 KiB would take ~6.6e19 ns, past
    // 2^63. A rate that small is positive, not frozen, so its finish
    // time raises instead of wrapping; 1000x faster still fits.
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 4);
    LinkNetwork slow;
    slow.configure(&topo, 1e-12);
    EXPECT_THROW(slow.start(0, 0, 3, 64 * 1024, SimTime::zero()),
                 FatalError);
    LinkNetwork fits;
    fits.configure(&topo, 1e-9);
    EXPECT_GT(fits.start(0, 0, 3, 64 * 1024, SimTime::zero()).ns(),
              std::int64_t{65'535} * 1'000'000'000'000);
}

TEST(LinkNetworkTest, SharedBottleneckHalvesTheRate)
{
    // Radix-2 tapered tree over 4 nodes: flows 0->2 and 1->3 both
    // cross the leaf0->root and root->leaf1 aggregate links, whose
    // taper-0.5 factor gives them exactly the base capacity. Two
    // equal flows admitted together must each take twice the lone
    // serialization; with full bisection (factor 2) they must not
    // contend at all.
    TopologyConfig tapered = net::topologies::taperedFatTree(2);
    const auto topo = net::compileTopology(tapered, 4);
    NetHarness both(topo, 1000.0);
    both.start(0, 0, 2, 4096, SimTime::zero());
    both.start(1, 1, 3, 4096, SimTime::zero());
    auto done = both.drain();
    ASSERT_EQ(done.size(), 2u);
    for (const auto &[id, finish] : done)
        EXPECT_EQ(finish.ns(), 8192) << "flow " << id;

    const auto full = net::compileTopology(
        net::topologies::fatTree(2), 4);
    NetHarness wide(full, 1000.0);
    wide.start(0, 0, 2, 4096, SimTime::zero());
    wide.start(1, 1, 3, 4096, SimTime::zero());
    done = wide.drain();
    ASSERT_EQ(done.size(), 2u);
    for (const auto &[id, finish] : done)
        EXPECT_EQ(finish.ns(), 4096) << "flow " << id;
}

TEST(LinkNetworkTest, CancelFreesOccupancyAndSpeedsSurvivors)
{
    // Two equal flows share the tapered bottleneck at 0.5 B/ns
    // each. Cancelling one at 2048 ns (resilience rollback seam)
    // must free exactly its route's occupancy and hand the survivor
    // the full link: 3072 bytes remain at 1 B/ns, finish at 5120.
    TopologyConfig tapered = net::topologies::taperedFatTree(2);
    const auto topo = net::compileTopology(tapered, 4);
    LinkNetwork net;
    net.configure(&topo, 1000.0);
    net.start(0, 0, 2, 4096, SimTime::zero());
    net.start(1, 1, 3, 4096, SimTime::zero());
    const std::uint64_t both = testing::routeOf(topo, 0, 2).size() +
        testing::routeOf(topo, 1, 3).size();
    EXPECT_EQ(net.totalLoad(), both);

    net.cancel(1, SimTime::fromNs(2048));
    EXPECT_EQ(net.activeFlows(), 1u);
    EXPECT_EQ(net.totalLoad(), testing::routeOf(topo, 0, 2).size());
    // The survivor's stale armed event (4096, from its 1 B/ns
    // admission) already covers the speedup, so no reschedule is
    // emitted; firing it reports the corrected finish instead.
    EXPECT_TRUE(net.pendingReschedules().empty());
    const auto early = net.onFinishEvent(0, SimTime::fromNs(4096));
    EXPECT_FALSE(early.done);
    ASSERT_TRUE(early.reschedule);
    EXPECT_EQ(early.retry.ns(), 5120);

    const auto check =
        net.onFinishEvent(0, SimTime::fromNs(5120));
    EXPECT_TRUE(check.done);
    EXPECT_EQ(net.totalLoad(), 0u);
}

TEST(LinkNetworkTest, CancelAllDrainsTheNetwork)
{
    // A whole-replay rollback cancels everything in flight; the
    // network must come back drained and immediately reusable.
    const auto topo = net::compileTopology(
        net::topologies::fatTree(2), 8);
    LinkNetwork net;
    net.configure(&topo, 1000.0);
    net.start(0, 0, 7, 64 * 1024, SimTime::zero());
    net.start(1, 1, 6, 32 * 1024, SimTime::fromNs(100));
    net.start(2, 4, 3, 16 * 1024, SimTime::fromNs(200));
    EXPECT_EQ(net.activeFlows(), 3u);

    net.cancelAll();
    EXPECT_EQ(net.activeFlows(), 0u);
    EXPECT_EQ(net.totalLoad(), 0u);
    EXPECT_TRUE(net.pendingReschedules().empty());

    // Reuse after the rollback behaves like a fresh network.
    const SimTime finish =
        net.start(3, 0, 3, 4096, SimTime::fromNs(400));
    EXPECT_EQ(finish.ns(), 400 + 4096);
    const auto check = net.onFinishEvent(3, finish);
    EXPECT_TRUE(check.done);
    EXPECT_EQ(net.totalLoad(), 0u);
}

TEST(LinkNetworkTest, LateArrivalSlowsAndCompletionSpeedsUp)
{
    // One flow runs alone for 2048 ns, shares the fabric with a
    // second for its remaining 2048 bytes (at half rate: 4096 ns),
    // then the second finishes alone at full rate again:
    //   flow 0: 2048 + 4096 = 6144 ns total.
    //   flow 1: 2048 shared bytes + 2048 solo = 6144 + 2048.
    TopologyConfig tapered = net::topologies::taperedFatTree(2);
    const auto topo = net::compileTopology(tapered, 4);
    NetHarness h(topo, 1000.0);
    h.start(0, 0, 2, 4096, SimTime::zero());
    h.start(1, 1, 3, 4096, SimTime::fromNs(2048));
    const auto done = h.drain();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0].first, 0u);
    EXPECT_EQ(done[0].second.ns(), 6144);
    EXPECT_EQ(done[1].first, 1u);
    EXPECT_EQ(done[1].second.ns(), 8192);
}

TEST(EngineSeamTest, FlatBusTopologyIsBitIdentical)
{
    // A platform carrying an explicit flat-bus TopologyConfig is
    // the same struct as one that predates the field; both must
    // take the classic engine path and replay identically.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 5));
    const auto plain = testing::platformAt(256.0);
    auto tagged = plain;
    tagged.topology = net::topologies::flatBus();
    expectIdentical(simulate(bundle.traces, tagged),
                    simulate(bundle.traces, plain));
}

TEST(EngineSeamTest, UncontendedFatTreeMatchesFlatModel)
{
    // One lone remote message: link-shared serialization over a
    // full-bisection tree with zero hop latency degenerates to the
    // flat model's bytes/bandwidth + latency. 1000 MB/s = 1 B/ns
    // keeps both paths' integer rounding exact.
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000));
    auto flat = testing::platformAt(1000.0);
    auto tree = flat;
    tree.topology = net::topologies::fatTree(4);
    const auto a = simulate(bundle.traces, flat);
    const auto b = simulate(bundle.traces, tree);
    EXPECT_EQ(a.totalTime.ns(), b.totalTime.ns());
}

TEST(EngineSeamTest, OverflowingDurationIsFatal)
{
    // 256 KiB at 1e-300 MB/s overflows even a double's nanoseconds.
    // The flat bus's serialization and the network's finish time
    // each raise a FatalError naming the count, where the unchecked
    // conversion priced the transfer as free.
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000));
    auto flat = testing::platformAt(1e-300);
    auto tree = flat;
    tree.topology = net::topologies::fatTree(4);
    for (const auto &platform : {flat, tree}) {
        try {
            simulate(bundle.traces, platform);
            ADD_FAILURE() << "replay finished";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "overflows the 64-bit nanosecond clock"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(EngineSeamTest, HopLatencyAddsPerHop)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000));
    auto tree = testing::platformAt(1000.0);
    tree.topology = net::topologies::fatTree(4);
    const auto base = simulate(bundle.traces, tree);
    // Nodes 0 and 1 share a radix-4 leaf: 2 links, 1 extra hop.
    tree.topology.hopLatencyUs = 3.0;
    const auto slowed = simulate(bundle.traces, tree);
    EXPECT_EQ(slowed.totalTime.ns() - base.totalTime.ns(),
              SimTime::fromUs(3.0).ns());
}

TEST(EngineSeamTest, ContentionNeverBeatsTheFlatModel)
{
    // The flat bus (unlimited buses) serializes every transfer at
    // full bandwidth; link sharing can only slow them down.
    const auto bundle = testing::traceOf(
        8, testing::ringExchange(128 * 1024, 200'000, 4));
    const auto flat = testing::platformAt(1000.0);
    const auto flat_time =
        simulate(bundle.traces, flat).totalTime;
    for (const auto &spec : core::standardTopologies()) {
        auto platform = flat;
        platform.topology = spec.topology;
        const auto result = simulate(bundle.traces, platform);
        EXPECT_GE(result.totalTime.ns(), flat_time.ns())
            << spec.name;
        EXPECT_GT(result.totalTime.ns(), 0) << spec.name;
    }
}

TEST(EngineSeamTest, TopologiesReplayDeterministically)
{
    const auto bundle = testing::traceOf(
        8, testing::ringExchange(96 * 1024, 300'000, 4));
    for (const auto &spec : core::standardTopologies()) {
        auto platform = testing::platformAt(512.0);
        platform.topology = spec.topology;
        const auto reference = simulate(bundle.traces, platform);
        // Repeats, the one-shot path and a reused session agree.
        expectIdentical(simulate(bundle.traces, platform),
                        reference);
        sim::ReplaySession session;
        expectIdentical(session.run(bundle.traces, platform),
                        reference);
        expectIdentical(session.run(bundle.traces, platform),
                        reference);
    }
}

TEST(EngineSeamTest, RendezvousOverTopology)
{
    // Rendezvous protocol (tiny eager threshold) across the
    // contention model: deterministic and deadlock-free. (A ring
    // of blocking rendezvous sends would deadlock on any model;
    // producer/consumer is the protocol-safe shape.)
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 800'000));
    auto platform = sim::platforms::rendezvousCluster(4 * 1024);
    platform.topology = net::topologies::taperedFatTree(2);
    const auto reference = simulate(bundle.traces, platform);
    EXPECT_GT(reference.totalTime.ns(), 0);
    sim::ReplaySession session;
    expectIdentical(session.run(bundle.traces, platform),
                    reference);
}

TEST(EngineSeamTest, SessionReusesAcrossTopologiesAndBandwidths)
{
    // One session sweeping platforms (the campaign pattern): the
    // compiled-topology cache must never leak state between runs.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(48 * 1024, 350'000, 3));
    sim::ReplaySession session;
    for (const double bandwidth : {64.0, 1024.0}) {
        for (const auto &spec : core::standardTopologies()) {
            auto platform = testing::platformAt(bandwidth);
            platform.topology = spec.topology;
            expectIdentical(session.run(bundle.traces, platform),
                            simulate(bundle.traces, platform));
        }
    }
}

// ---------------------------------------------------------------
// Differential fuzz: occupant lists vs. the O(F) reference.
// ---------------------------------------------------------------

/**
 * Everything a fuzz stream mutates, copyable whole so a stream can
 * snapshot it and roll back the way the checkpoint seam does.
 */
struct DiffState
{
    LinkNetwork net;
    testing::ReferenceLinkNetwork ref;
    /** Pending finish events: (time ns, push order, flow id). */
    using Ev = std::tuple<std::int64_t, std::uint64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> events;
    std::vector<std::uint32_t> live;
    SimTime now;
};

/**
 * Seeded operation stream over one topology. The mixed shape:
 * admissions (some with a future admission instant, some reusing
 * ids), finish events in time order, stale early finish events,
 * cancels, cancelAll, link rescales with stalls, reroutes, clock
 * shifts and snapshot/restore, with the clock moving between
 * operations. The burst shape is a collective round's: up to a
 * dozen equal flows admitted at one instant, then every event of the
 * earliest instant fired together, mixed with single and
 * future-instant admissions, cancels, rescales, clock shifts and
 * snapshot/restore; a round may be cut at its own instant by any
 * other call (see cut()). After every operation both networks must
 * report the same reschedules, in the same order, and the same link
 * loads.
 */
class DiffFuzzer
{
  public:
    enum class Shape { mixed, bursts };

    DiffFuzzer(const CompiledTopology &topo, std::uint64_t seed,
               Shape shape = Shape::mixed)
        : topo_(topo), rng_(seed, 0x6e6574), shape_(shape)
    {
        s_.net.configure(&topo_, 1000.0);
        s_.ref.configure(&topo_, 1000.0);
    }

    /** Run `steps` random operations, then recover every link and
     * drain. Stops at the first divergence. */
    void
    run(int steps)
    {
        for (int step = 0; step < steps && ok_; ++step) {
            const std::uint64_t roll = rng_.nextBelow(100);
            if (shape_ == Shape::bursts)
                burstStep(roll);
            else
                mixedStep(roll);
            if (!ok_)
                ADD_FAILURE() << "diverged at step " << step;
        }
        if (ok_)
            drain();
    }

  private:
    void
    mixedStep(std::uint64_t roll)
    {
        if (roll < 30)
            admit();
        else if (roll < 60)
            fireNext();
        else if (roll < 64)
            pokeEarly();
        else if (roll < 70)
            cancelOne();
        else if (roll < 71)
            cancelAll();
        else if (roll < 79)
            rescale();
        else if (roll < 82)
            reroute();
        else if (roll < 85)
            shift(SimTime::fromNs(
                static_cast<std::int64_t>(rng_.nextBelow(5000))));
        else if (roll < 88)
            saved_ = s_;
        else if (roll < 91)
            restore();
        else
            tick();
    }

    void
    burstStep(std::uint64_t roll)
    {
        if (roll < 25)
            burst();
        else if (roll < 60)
            fireInstant();
        else if (roll < 66)
            admit();
        else if (roll < 70)
            cancelOne();
        else if (roll < 73)
            rescale();
        else if (roll < 78)
            shift(SimTime::fromNs(
                static_cast<std::int64_t>(rng_.nextBelow(5000))));
        else if (roll < 83)
            saved_ = s_;
        else if (roll < 88)
            restore();
        else if (roll < 90)
            pokeEarly();
        else
            tick();
    }

    void
    expect(bool same, const std::string &what)
    {
        if (!same && ok_) {
            ADD_FAILURE() << what;
            ok_ = false;
        }
    }

    void
    push(std::uint32_t id, SimTime t)
    {
        if (t != SimTime::max())
            s_.events.emplace(t.ns(), pushes_++, id);
    }

    /** Compare the emitted reschedules and every link's load, then
     * hand the reschedules to the event heap. */
    void
    settle(const char *op)
    {
        const auto a = s_.net.pendingReschedules();
        const auto b = s_.ref.pendingReschedules();
        expect(std::equal(a.begin(), a.end(), b.begin(), b.end()),
               std::string(op) + ": reschedules differ");
        for (const auto &[id, finish] : a)
            push(id, finish);
        s_.net.clearPendingReschedules();
        s_.ref.clearPendingReschedules();
        expect(s_.net.totalLoad() == s_.ref.totalLoad(),
               std::string(op) + ": totalLoad differs");
        expect(s_.net.activeFlows() == s_.ref.activeFlows(),
               std::string(op) + ": activeFlows differs");
        for (std::uint32_t l = 0; l < topo_.linkCount(); ++l)
            expect(s_.net.linkLoad(l) == s_.ref.linkLoad(l),
                   std::string(op) + ": linkLoad differs on link " +
                       std::to_string(l));
    }

    /** Move the clock forward without overtaking a pending event
     * (unless a cut() holds it at a burst's instant). */
    void
    tick()
    {
        if (holdClock_)
            return;
        const auto step =
            static_cast<std::int64_t>(rng_.nextBelow(2000));
        SimTime target = s_.now + SimTime::fromNs(step);
        if (!s_.events.empty()) {
            const SimTime next =
                SimTime::fromNs(std::get<0>(s_.events.top()));
            target = std::max(s_.now, std::min(target, next));
        }
        s_.now = target;
    }

    bool
    isLive(std::uint32_t id) const
    {
        return std::find(s_.live.begin(), s_.live.end(), id) !=
            s_.live.end();
    }

    void
    admit()
    {
        tick();
        admitAt(std::nullopt);
    }

    /** One random flow at `at`, or else at admissionInstant(). */
    void
    admitAt(std::optional<SimTime> at)
    {
        if (s_.live.size() >= 40)
            return;
        // A small id pool forces reuse (stale events of a finished
        // flow then fire early for its successor); a quarter are
        // background-range ids.
        const std::uint32_t id = rng_.nextBelow(4) == 0
            ? (1u << 28) + static_cast<std::uint32_t>(rng_.nextBelow(8))
            : static_cast<std::uint32_t>(rng_.nextBelow(48));
        if (isLive(id))
            return;
        const auto nodes = static_cast<std::uint64_t>(topo_.nodes());
        const int src = static_cast<int>(rng_.nextBelow(nodes));
        int dst = static_cast<int>(rng_.nextBelow(nodes - 1));
        if (dst >= src)
            ++dst;
        const Bytes bytes = 1 + rng_.nextBelow(64 * 1024);
        start(id, src, dst, bytes, at ? *at : admissionInstant());
    }

    /** Now, or for a quarter of draws a rendezvous-style admission
     * ahead of the clock. */
    SimTime
    admissionInstant()
    {
        return rng_.nextBelow(4) == 0
            ? s_.now + SimTime::fromNs(static_cast<std::int64_t>(
                           rng_.nextBelow(800)))
            : s_.now;
    }

    void
    start(std::uint32_t id, int src, int dst, Bytes bytes, SimTime at)
    {
        const SimTime a = s_.net.start(id, src, dst, bytes, at);
        const SimTime b = s_.ref.start(id, src, dst, bytes, at);
        expect(a == b, "start: finish times differ");
        s_.live.push_back(id);
        push(id, a);
        settle("start");
    }

    /**
     * One collective round without moving the clock: 2-12 flows of
     * one size admitted at one instant, node i sending to node
     * i + offset, so equal flows on mirrored routes finish together.
     * A quarter of the admissions are followed by a cut(), so the
     * rest of the round is a second burst at the same instant.
     */
    void
    burst()
    {
        const auto nodes = static_cast<std::uint64_t>(topo_.nodes());
        const Bytes bytes = 1 + rng_.nextBelow(64 * 1024);
        SimTime at = admissionInstant();
        const std::uint64_t first = rng_.nextBelow(nodes);
        const std::uint64_t offset = 1 + rng_.nextBelow(nodes - 1);
        const std::uint64_t count = 2 + rng_.nextBelow(11);
        std::uint32_t id = static_cast<std::uint32_t>(rng_.nextBelow(48));
        for (std::uint64_t k = 0; k < count && s_.live.size() < 40 && ok_;
             ++k) {
            while (isLive(id))
                id = (id + 1) % 48;
            const std::uint64_t src = (first + k) % nodes;
            start(id, static_cast<int>(src),
                  static_cast<int>((src + offset) % nodes), bytes, at);
            if (rng_.nextBelow(4) == 0)
                at = cut(at);
        }
    }

    /**
     * End a burst admitted at `at` with one call that is not another
     * admission at that instant, the clock held where it is: a
     * finish event, a cancel, a rescale, a clock shift, a reroute,
     * an admission at another instant or cancelAll. Returns the
     * instant the round resumes at (`at`, moved by a shift).
     */
    SimTime
    cut(SimTime at)
    {
        holdClock_ = true;
        switch (rng_.nextBelow(7)) {
          case 0:
            pokeEarly();
            break;
          case 1:
            cancelOne();
            break;
          case 2:
            rescale();
            break;
          case 3: {
            const SimTime delta = SimTime::fromNs(
                static_cast<std::int64_t>(rng_.nextBelow(5000)));
            shift(delta);
            at = at + delta;
            break;
          }
          case 4:
            reroute();
            break;
          case 5:
            admitAt(at + SimTime::fromNs(static_cast<std::int64_t>(
                             1 + rng_.nextBelow(800))));
            break;
          default:
            cancelAll();
            break;
        }
        holdClock_ = false;
        return at;
    }

    void
    finish(std::uint32_t id, const char *op)
    {
        const auto a = s_.net.onFinishEvent(id, s_.now);
        const auto b = s_.ref.onFinishEvent(id, s_.now);
        expect(a.done == b.done && a.retry == b.retry &&
                   a.reschedule == b.reschedule,
               std::string(op) + ": FinishCheck differs");
        if (a.done)
            s_.live.erase(
                std::find(s_.live.begin(), s_.live.end(), id));
        else if (a.reschedule)
            push(id, a.retry);
        settle(op);
    }

    /** Fire the earliest pending event; events of flows no longer
     * in flight drop, as the engine's in-flight flag drops them. */
    void
    fireNext()
    {
        if (s_.events.empty())
            return;
        const auto [ns, order, id] = s_.events.top();
        s_.events.pop();
        s_.now = std::max(s_.now, SimTime::fromNs(ns));
        if (isLive(id))
            finish(id, "finish");
    }

    /** Fire every pending event of the earliest instant, as the
     * engine drains one timestamp. */
    void
    fireInstant()
    {
        if (s_.events.empty())
            return;
        const std::int64_t ns = std::get<0>(s_.events.top());
        while (ok_ && !s_.events.empty() &&
               std::get<0>(s_.events.top()) == ns)
            fireNext();
    }

    /** An extra finish event for a live flow, typically early. */
    void
    pokeEarly()
    {
        tick();
        if (!s_.live.empty())
            finish(s_.live[rng_.nextBelow(s_.live.size())], "early");
    }

    void
    cancelOne()
    {
        tick();
        if (s_.live.empty())
            return;
        const std::size_t i = rng_.nextBelow(s_.live.size());
        const std::uint32_t id = s_.live[i];
        s_.live.erase(s_.live.begin() + static_cast<std::ptrdiff_t>(i));
        s_.net.cancel(id, s_.now);
        s_.ref.cancel(id, s_.now);
        settle("cancel");
    }

    void
    cancelAll()
    {
        tick();
        s_.net.cancelAll();
        s_.ref.cancelAll();
        s_.live.clear();
        s_.events = {};
        settle("cancelAll");
    }

    /** Rescale one to three links (scale 0 stalls) and commit at
     * once, as the engine's scenario handler does: an admission or
     * removal asserts that no scale is staged. The last draw once
     * chose whether to commit; it is kept so that every later
     * operation of a seed draws what it always drew. */
    void
    rescale()
    {
        tick();
        static constexpr double scales[] = {0.0, 0.25, 0.5, 1.0, 2.0};
        const std::uint64_t count = 1 + rng_.nextBelow(3);
        for (std::uint64_t k = 0; k < count; ++k) {
            const auto link = static_cast<std::uint32_t>(
                rng_.nextBelow(topo_.linkCount()));
            const double scale = scales[rng_.nextBelow(5)];
            s_.net.setLinkScale(link, scale);
            s_.ref.setLinkScale(link, scale);
        }
        rng_.nextBelow(4);
        s_.net.applyScales(s_.now);
        s_.ref.applyScales(s_.now);
        settle("applyScales");
    }

    void
    reroute()
    {
        tick();
        const auto a = s_.net.rerouteDeadLinks(s_.now);
        const auto b = s_.ref.rerouteDeadLinks(s_.now);
        expect(a.ok == b.ok && a.src == b.src && a.dst == b.dst,
               "rerouteDeadLinks: reports differ");
        settle("reroute");
    }

    /** Checkpoint freeze: flows and pending events slide together. */
    void
    shift(SimTime delta)
    {
        s_.net.shiftFlowClocks(delta);
        s_.ref.shiftFlowClocks(delta);
        decltype(s_.events) shifted;
        for (; !s_.events.empty(); s_.events.pop()) {
            auto ev = s_.events.top();
            std::get<0>(ev) += delta.ns();
            shifted.push(ev);
        }
        s_.events = std::move(shifted);
        s_.now = s_.now + delta;
        settle("shift");
    }

    /** Roll back to the snapshot and re-enter at the current time. */
    void
    restore()
    {
        if (!saved_)
            return;
        const SimTime delta = s_.now - saved_->now;
        s_ = *saved_;
        shift(delta);
    }

    void
    drain()
    {
        for (std::uint32_t l = 0; l < topo_.linkCount(); ++l) {
            s_.net.setLinkScale(l, 1.0);
            s_.ref.setLinkScale(l, 1.0);
        }
        s_.net.applyScales(s_.now);
        s_.ref.applyScales(s_.now);
        settle("recover");
        reroute();
        for (int guard = 0; ok_ && !s_.events.empty() && guard < 100000;
             ++guard)
            fireNext();
        expect(s_.net.activeFlows() == 0 && s_.net.totalLoad() == 0,
               "drain: network not empty");
    }

    const CompiledTopology &topo_;
    CounterRng rng_;
    Shape shape_;
    DiffState s_;
    std::optional<DiffState> saved_;
    std::uint64_t pushes_ = 0;
    bool ok_ = true;
    /** Set while cut() runs: tick() leaves the clock alone. */
    bool holdClock_ = false;
};

void
fuzzAgainstReference(const CompiledTopology &topo)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        DiffFuzzer(topo, seed).run(600);
    }
}

/** The burst shape, on seeds of its own. */
void
fuzzBurstsAgainstReference(const CompiledTopology &topo)
{
    for (std::uint64_t seed = 101; seed <= 116; ++seed) {
        SCOPED_TRACE("burst seed " + std::to_string(seed));
        DiffFuzzer(topo, seed, DiffFuzzer::Shape::bursts).run(600);
    }
}

TEST(LinkNetworkDiffTest, FatTreeMatchesReference)
{
    fuzzAgainstReference(net::compileTopology(
        net::topologies::taperedFatTree(2, 0.5), 8));
}

TEST(LinkNetworkDiffTest, TorusMatchesReference)
{
    TopologyConfig torus = net::topologies::torus2d();
    torus.torusDims = {4, 3};
    fuzzAgainstReference(net::compileTopology(torus, 12));
    // Without wrap links many pairs lose their only path to a dead
    // link: failed reroutes must stay no-ops mid-stream.
    torus.torusWrap = false;
    fuzzAgainstReference(net::compileTopology(torus, 12));
}

TEST(LinkNetworkDiffTest, DragonflyMatchesReference)
{
    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyGroups = 3;
    fly.dragonflyRoutersPerGroup = 2;
    fly.dragonflyNodesPerRouter = 2;
    fuzzAgainstReference(net::compileTopology(fly, 12));
}

TEST(LinkNetworkDiffTest, FatTreeBurstsMatchReference)
{
    fuzzBurstsAgainstReference(net::compileTopology(
        net::topologies::taperedFatTree(2, 0.5), 8));
}

TEST(LinkNetworkDiffTest, TorusBurstsMatchReference)
{
    TopologyConfig torus = net::topologies::torus2d();
    torus.torusDims = {4, 3};
    fuzzBurstsAgainstReference(net::compileTopology(torus, 12));
}

TEST(LinkNetworkDiffTest, DragonflyBurstsMatchReference)
{
    TopologyConfig fly = net::topologies::dragonfly();
    fly.dragonflyGroups = 3;
    fly.dragonflyRoutersPerGroup = 2;
    fly.dragonflyNodesPerRouter = 2;
    fuzzBurstsAgainstReference(net::compileTopology(fly, 12));
}

TEST(LinkNetworkTest, FailedRerouteChangesNothing)
{
    // 3x2 mesh. Flows 1->0 and 2->0 cross router link r1->r0; once
    // it dies both reroute around the grid. Then node 5's ejection
    // link dies: pair (0, 5) is severed, and it comes before (1, 0)
    // and (2, 0) in pair order — a reroute that rebuilt overrides in
    // place would drop their detours while the flows still hold
    // occupancy on them.
    TopologyConfig mesh = net::topologies::torus2d();
    mesh.torusDims = {3, 2};
    mesh.torusWrap = false;
    const auto topo = net::compileTopology(mesh, 6);
    NetHarness h(topo, 1000.0);
    h.start(0, 1, 0, 4096, SimTime::zero());
    h.start(1, 2, 0, 8192, SimTime::zero());

    const SimTime kill = SimTime::fromNs(1000);
    h.net.setLinkScale(testing::routeOf(topo, 1, 0)[1], 0.0);
    h.net.applyScales(kill);
    ASSERT_TRUE(h.net.rerouteDeadLinks(kill).ok);
    for (const auto &[id, finish] : h.net.pendingReschedules())
        h.events.push({finish.ns(), id});
    h.net.clearPendingReschedules();

    const SimTime sever = SimTime::fromNs(2000);
    h.net.setLinkScale(testing::routeOf(topo, 0, 5).back(), 0.0);
    h.net.applyScales(sever);
    EXPECT_TRUE(h.net.pendingReschedules().empty());
    NetHarness twin = h; // never sees the failed reroute

    const auto report = h.net.rerouteDeadLinks(sever);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.src, 0);
    EXPECT_EQ(report.dst, 5);
    EXPECT_TRUE(h.net.pendingReschedules().empty());
    for (int a = 0; a < topo.nodes(); ++a) {
        for (int b = 0; b < topo.nodes(); ++b) {
            const auto got = h.net.routeOf(a, b);
            const auto want = twin.net.routeOf(a, b);
            EXPECT_TRUE(std::equal(got.begin(), got.end(),
                                   want.begin(), want.end()))
                << "route " << a << "->" << b;
        }
    }
    for (std::uint32_t l = 0; l < topo.linkCount(); ++l)
        EXPECT_EQ(h.net.linkLoad(l), twin.net.linkLoad(l)) << l;

    // Intact occupant lists hand out the same speedups when the
    // first flow completes, so both drain identically (and drain()
    // checks totalLoad() returns to 0).
    const auto done = h.drain();
    EXPECT_EQ(done, twin.drain());
    EXPECT_EQ(done.size(), 2u);
}

} // namespace
} // namespace ovlsim
