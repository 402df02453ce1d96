/**
 * @file
 * Tests for the synthetic workload generators (src/gen/):
 * structural pins per family, byte conservation, seed determinism
 * across repeats/sessions/thread counts, config-file round trips
 * (CounterRng-driven fuzz), and the by-construction guarantees —
 * every generated trace validates, compiles, and replays
 * deadlock-free on flat and tapered fabrics.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "core/analysis.hh"
#include "core/transform.hh"
#include "gen/gen.hh"
#include "helpers.hh"
#include "gen/workload_file.hh"
#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "sim/program.hh"
#include "trace/trace_io.hh"
#include "trace/validate.hh"
#include "util/counter_rng.hh"
#include "util/logging.hh"

namespace ovlsim::gen {
namespace {

WorkloadConfig
configOfKind(WorkloadKind kind)
{
    WorkloadConfig config;
    config.kind = kind;
    config.ranks = 24;
    config.iterations = 3;
    // Exercise the stochastic paths everywhere they exist.
    config.computeJitter = 0.2;
    config.gradientBuckets = 4;
    return config;
}

const WorkloadKind allKinds[] = {
    WorkloadKind::stencil,
    WorkloadKind::mlTraining,
    WorkloadKind::fanIn,
    WorkloadKind::dht,
};

std::string
traceText(const trace::TraceSet &traces)
{
    std::ostringstream os;
    trace::writeTraceText(traces, os);
    return os.str();
}

/** Destinations of rank r's blocking sends. */
std::set<Rank>
sendPeers(const trace::TraceSet &traces, Rank r)
{
    std::set<Rank> peers;
    for (const auto &rec : traces.rankTrace(r).records()) {
        if (const auto *s = std::get_if<trace::SendRec>(&rec))
            peers.insert(s->dst);
    }
    return peers;
}

// -- structural pins -------------------------------------------------

TEST(GenStencil, GridFactorizationIsNearSquare)
{
    EXPECT_EQ(stencilGridDims(16, 2), (std::vector<int>{4, 4}));
    EXPECT_EQ(stencilGridDims(24, 3), (std::vector<int>{4, 3, 2}));
    EXPECT_EQ(stencilGridDims(7, 2), (std::vector<int>{7, 1}));
    EXPECT_EQ(stencilGridDims(64, 3), (std::vector<int>{4, 4, 4}));
    EXPECT_EQ(stencilGridDims(1024, 2),
              (std::vector<int>{32, 32}));
}

TEST(GenStencil, NeighborSetsMatchTheProcessGrid)
{
    WorkloadConfig config = configOfKind(WorkloadKind::stencil);
    config.ranks = 16; // 4x4 grid, row-major
    config.stencilDims = 2;
    const auto traces = generateTrace(config, 1);

    // Interior rank (1,1): four neighbours.
    EXPECT_EQ(sendPeers(traces, 5), (std::set<Rank>{1, 4, 6, 9}));
    // Corner rank (0,0): two neighbours.
    EXPECT_EQ(sendPeers(traces, 0), (std::set<Rank>{1, 4}));
    // Edge rank (0,2): three neighbours.
    EXPECT_EQ(sendPeers(traces, 2), (std::set<Rank>{1, 3, 6}));

    // Every exchange carries exactly haloBytes.
    for (const auto &rt : traces.all()) {
        for (const auto &rec : rt.records()) {
            if (const auto *s =
                    std::get_if<trace::SendRec>(&rec)) {
                EXPECT_EQ(s->bytes, config.haloBytes);
            }
        }
    }
}

TEST(GenMlTraining, BucketedAllreducePayloadsSumToGradient)
{
    WorkloadConfig config =
        configOfKind(WorkloadKind::mlTraining);
    config.gradientBytes = 10;
    config.gradientBuckets = 4;
    config.iterations = 2;
    const auto traces = generateTrace(config, 7);

    for (const auto &rt : traces.all()) {
        std::vector<Bytes> payloads;
        for (const auto &rec : rt.records()) {
            if (const auto *g =
                    std::get_if<trace::CollectiveRec>(&rec)) {
                EXPECT_EQ(g->op, trace::CollOp::allReduce);
                payloads.push_back(g->sendBytes);
            }
        }
        // iterations x buckets allreduces; the remainder rides on
        // the last bucket of each step.
        ASSERT_EQ(payloads.size(), 8u);
        EXPECT_EQ(payloads[0], 2u);
        EXPECT_EQ(payloads[3], 4u);
        Bytes step_total = 0;
        for (std::size_t b = 0; b < 4; ++b)
            step_total += payloads[b];
        EXPECT_EQ(step_total, config.gradientBytes);
    }
}

TEST(GenFanIn, DegreesMatchTheRequestSchedule)
{
    WorkloadConfig config = configOfKind(WorkloadKind::fanIn);
    config.ranks = 12;
    config.servers = 3;
    config.requestsPerClient = 4;
    config.iterations = 2;
    const auto traces = generateTrace(config, 3);

    const int clients = config.ranks - config.servers;
    std::size_t server_recvs = 0;
    for (Rank s = 0; s < config.servers; ++s) {
        for (const auto &rec : traces.rankTrace(s).records()) {
            if (std::holds_alternative<trace::RecvRec>(rec))
                ++server_recvs;
        }
        // Servers only ever talk to clients.
        for (const Rank peer : sendPeers(traces, s))
            EXPECT_GE(peer, config.servers);
    }
    EXPECT_EQ(server_recvs,
              static_cast<std::size_t>(
                  clients * config.requestsPerClient *
                  config.iterations));

    // Every client issues exactly requestsPerClient requests per
    // round, all to server ranks.
    for (Rank c = config.servers; c < config.ranks; ++c) {
        std::size_t sends = 0;
        for (const auto &rec : traces.rankTrace(c).records()) {
            if (const auto *s =
                    std::get_if<trace::SendRec>(&rec)) {
                EXPECT_LT(s->dst, config.servers);
                ++sends;
            }
        }
        EXPECT_EQ(sends,
                  static_cast<std::size_t>(
                      config.requestsPerClient *
                      config.iterations));
    }
}

TEST(GenDht, RoutesTouchOnlyActiveNodesAndReplyToOrigin)
{
    WorkloadConfig config = configOfKind(WorkloadKind::dht);
    config.ranks = 16;
    config.churnProbability = 0.3;
    const auto traces = generateTrace(config, 11);

    // Every rank's sends go to other ranks (no self-traffic) and
    // the trace carries some forwarding traffic.
    std::size_t messages = 0;
    for (const auto &rt : traces.all()) {
        for (const auto &rec : rt.records()) {
            if (const auto *s =
                    std::get_if<trace::SendRec>(&rec)) {
                EXPECT_NE(s->dst, rt.rank());
                ++messages;
            }
        }
    }
    EXPECT_GT(messages, 0u);
}

// -- by-construction guarantees --------------------------------------

TEST(Gen, EveryFamilyValidatesLinksAndConservesBytes)
{
    for (const auto kind : allKinds) {
        const auto config = configOfKind(kind);
        const auto traces = generateTrace(config, 5);
        const auto report = trace::validateTraceSet(traces);
        EXPECT_TRUE(report.issues.empty())
            << workloadKindName(kind) << ":\n"
            << report.toString();

        Bytes sent = 0;
        Bytes received = 0;
        std::set<trace::MessageId> ids;
        for (const auto &rt : traces.all()) {
            for (const auto &rec : rt.records()) {
                if (const auto *s =
                        std::get_if<trace::SendRec>(&rec)) {
                    sent += s->bytes;
                    EXPECT_NE(s->message,
                              trace::invalidMessageId);
                    ids.insert(s->message);
                } else if (const auto *r =
                               std::get_if<trace::RecvRec>(
                                   &rec)) {
                    received += r->bytes;
                }
            }
        }
        EXPECT_EQ(sent, received) << workloadKindName(kind);
        // Linked ids are dense and unique across the trace.
        EXPECT_EQ(ids.size(), traces.totalMessages())
            << workloadKindName(kind);
    }
}

TEST(Gen, EveryFamilyCompilesAndReplaysOnFlatAndTaperedFabrics)
{
    const auto flat = sim::platforms::defaultCluster();
    const auto tapered = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    for (const auto kind : allKinds) {
        const auto config = configOfKind(kind);
        const auto traces = generateTrace(config, 17);
        const auto program = sim::compileTrace(traces);
        const auto on_flat = sim::simulate(program, flat);
        const auto on_tapered = sim::simulate(program, tapered);
        EXPECT_GT(on_flat.totalTime.ns(), 0)
            << workloadKindName(kind);
        EXPECT_GT(on_tapered.totalTime.ns(), 0)
            << workloadKindName(kind);
    }
}

TEST(Gen, OverlapMetadataSatisfiesTransformInvariants)
{
    for (const auto kind : allKinds) {
        const auto config = configOfKind(kind);
        const auto bundle = generateWorkload(config, 23);
        for (const auto &[id, info] : bundle.overlap.all()) {
            EXPECT_GE(info.sendInstr, info.prodWindowBegin);
            EXPECT_GE(info.consWindowEnd, info.recvInstr);
            EXPECT_GT(info.blockBytes, 0u);
            EXPECT_GE(info.blockBytes * info.blocks(),
                      info.bytes);
            for (std::size_t b = 0; b < info.blocks(); ++b) {
                EXPECT_GE(info.blockLastStore[b],
                          info.prodWindowBegin);
                EXPECT_LE(info.blockLastStore[b],
                          info.sendInstr);
                EXPECT_GE(info.blockFirstLoad[b],
                          info.recvInstr);
                EXPECT_LE(info.blockFirstLoad[b],
                          info.consWindowEnd);
            }
        }
        // The transform accepts the synthesized profiles and
        // chunks every profiled message.
        core::TransformConfig tc;
        const auto built = core::buildOverlappedTrace(
            bundle.traces, bundle.overlap, tc);
        EXPECT_EQ(built.chunkedMessages, bundle.overlap.size())
            << workloadKindName(kind);
        const auto report =
            trace::validateTraceSet(built.traces);
        EXPECT_TRUE(report.issues.empty())
            << workloadKindName(kind) << ":\n"
            << report.toString();
    }
}

// -- determinism -----------------------------------------------------

TEST(Gen, SameSeedIsBitIdenticalAcrossRepeats)
{
    for (const auto kind : allKinds) {
        const auto config = configOfKind(kind);
        const auto a = traceText(generateTrace(config, 42));
        const auto b = traceText(generateTrace(config, 42));
        EXPECT_EQ(a, b) << workloadKindName(kind);
        const auto c = traceText(generateTrace(config, 43));
        EXPECT_NE(a, c) << workloadKindName(kind);
    }
}

TEST(Gen, KnownSeedPinsAcrossSessions)
{
    // Cross-session pin: a fixed (config, seed) must produce this
    // exact shape forever — a change here means generation is no
    // longer stable across hosts or versions.
    WorkloadConfig config = configOfKind(WorkloadKind::fanIn);
    const auto traces = generateTrace(config, 2026);
    EXPECT_EQ(traces.totalRecords(), 1440u);
    EXPECT_EQ(traces.totalMessages(), 480u);
    const auto first_peers = sendPeers(traces, config.servers);
    EXPECT_FALSE(first_peers.empty());
    // The routing draw itself is pinned: CounterRng is a pure
    // function of (seed, stream, counter).
    EXPECT_EQ(CounterRng(2026, 0).at(0),
              CounterRng(2026, 0).at(0));
}

TEST(Gen, ScalingSweepIsBitIdenticalAcrossThreadCounts)
{
    WorkloadConfig config = configOfKind(WorkloadKind::stencil);
    config.iterations = 2;
    // The gen-scale platform: a 2:1 tapered fat tree with
    // algorithmic collectives.
    auto tapered = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    tapered.bandwidthMBps = 4096.0;
    tapered.collectiveModel = coll::CollectiveModel::algorithmic;
    tapered.collectiveAlgorithms.set(
        trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);
    // Neither ascending nor distinct: replays run costliest first,
    // out of grid order, and the slots must not follow them.
    const std::vector<int> grid{16, 8, 24, 8, 12};
    const auto variants = core::standardVariants(4);

    for (const auto &platform :
         {sim::platforms::defaultCluster(), tapered}) {
        const auto t1 = core::scalingSweep(config, 9, platform, grid,
                                           variants, 1);
        ASSERT_EQ(t1.points.size(), grid.size());
        for (std::size_t i = 0; i < grid.size(); ++i)
            EXPECT_EQ(t1.points[i].ranks, grid[i]);
        // The repeated rank count is the same workload twice.
        EXPECT_EQ(t1.points[1].originalTime.ns(),
                  t1.points[3].originalTime.ns());
        EXPECT_TRUE(t1.points[1].stats == t1.points[3].stats);
        // The sweep grows the machine; the original time must move
        // with it (the points are genuinely different workloads).
        EXPECT_NE(t1.points[1].originalTime.ns(),
                  t1.points[2].originalTime.ns());

        for (const int threads : {2, 8}) {
            const auto tn = core::scalingSweep(config, 9, platform,
                                               grid, variants,
                                               threads);
            EXPECT_TRUE(tn.stats == t1.stats)
                << "threads=" << threads;
            ASSERT_EQ(tn.points.size(), t1.points.size());
            for (std::size_t i = 0; i < t1.points.size(); ++i) {
                const auto &a = t1.points[i];
                const auto &b = tn.points[i];
                EXPECT_EQ(b.ranks, a.ranks);
                EXPECT_EQ(b.sentBytes, a.sentBytes);
                EXPECT_EQ(b.messages, a.messages);
                EXPECT_EQ(b.originalTime.ns(), a.originalTime.ns())
                    << "threads=" << threads << " point " << i;
                EXPECT_EQ(b.originalCommFraction,
                          a.originalCommFraction)
                    << "threads=" << threads << " point " << i;
                EXPECT_EQ(b.variantTimes, a.variantTimes)
                    << "threads=" << threads << " point " << i;
                EXPECT_TRUE(b.stats == a.stats)
                    << "threads=" << threads << " point " << i;
            }
        }
    }
}

// -- campaign drivers ------------------------------------------------

TEST(Gen, GeneratedWorkloadsRunThroughExistingCampaignDrivers)
{
    // The acceptance bar: generated bundles drop into the existing
    // campaign layer unchanged.
    const auto bundle =
        generateWorkload(configOfKind(WorkloadKind::stencil), 31);
    const auto platform = sim::platforms::defaultCluster();
    const std::vector<double> bandwidths{64.0, 1024.0};
    const auto variants = core::standardVariants(4);

    const auto sweep = core::bandwidthSweep(bundle, platform,
                                            bandwidths, variants);
    ASSERT_EQ(sweep.points.size(), bandwidths.size());
    for (const auto &point : sweep.points) {
        EXPECT_GT(point.originalTime.ns(), 0);
        ASSERT_EQ(point.variantTimes.size(), variants.size());
    }

    const auto dht =
        generateWorkload(configOfKind(WorkloadKind::dht), 31);
    const std::vector<core::TopologySpec> topologies{
        {"flat-bus", net::topologies::flatBus()},
        {"fat-tree-taper2",
         net::topologies::taperedFatTree(4, 0.5)},
    };
    const auto topo = core::platformSweep(
        dht,
        testing::atBandwidths(
            testing::withTopologies(platform, topologies), bandwidths),
        variants);
    EXPECT_EQ(topo.points.size(), topologies.size() * bandwidths.size());
}

// -- config validation and file round trips --------------------------

TEST(GenConfig, InvalidParametersAreRejectedByKey)
{
    WorkloadConfig config;
    config.ranks = 1;
    EXPECT_THROW(config.validate(), FatalError);
    try {
        config.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("'ranks'"),
                  std::string::npos);
    }

    config = configOfKind(WorkloadKind::fanIn);
    config.servers = config.ranks;
    try {
        config.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("'servers'"),
                  std::string::npos);
    }

    config = configOfKind(WorkloadKind::stencil);
    config.stencilDims = 5;
    EXPECT_THROW(config.validate(), FatalError);
    config = configOfKind(WorkloadKind::dht);
    config.churnProbability = 1.0;
    EXPECT_THROW(config.validate(), FatalError);
    config = configOfKind(WorkloadKind::mlTraining);
    config.gradientBytes = 2;
    config.gradientBuckets = 4;
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(GenConfig, KindNamesRoundTrip)
{
    for (const auto kind : allKinds)
        EXPECT_EQ(workloadKindFromName(workloadKindName(kind)),
                  kind);
    EXPECT_THROW(workloadKindFromName("mapreduce"), FatalError);
}

TEST(GenConfig, FileParserInheritsKeyValueRobustness)
{
    // Duplicate keys are fatal with file+line, like platform files.
    std::istringstream dup("ranks = 8\nranks = 16\n");
    try {
        readWorkloadConfig(dup, "dup.wl");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("dup.wl line 2"), std::string::npos);
        EXPECT_NE(what.find("duplicate key 'ranks'"),
                  std::string::npos);
    }

    std::istringstream unknown("frobnicate = 1\n");
    EXPECT_THROW(readWorkloadConfig(unknown, "u.wl"), FatalError);
    std::istringstream nan_mips("mips = nan\n");
    EXPECT_THROW(readWorkloadConfig(nan_mips, "n.wl"),
                 FatalError);
    std::istringstream neg("halo_bytes = -4\n");
    EXPECT_THROW(readWorkloadConfig(neg, "neg.wl"), FatalError);
    std::istringstream bad_kind("kind = mapreduce\n");
    EXPECT_THROW(readWorkloadConfig(bad_kind, "k.wl"),
                 FatalError);
}

TEST(GenConfig, RoundTripFuzz)
{
    // CounterRng-driven fuzz: any valid config must survive a
    // write/read round trip with every field bit-exact.
    CounterRng rng(0xf00d);
    for (int i = 0; i < 64; ++i) {
        auto draws = rng.substream(static_cast<std::uint64_t>(i));
        WorkloadConfig config;
        config.kind = allKinds[draws.nextBelow(4)];
        config.name = "fuzz-" + std::to_string(i);
        config.ranks = static_cast<int>(draws.nextInRange(2, 96));
        config.iterations =
            static_cast<int>(draws.nextInRange(1, 6));
        config.mips = draws.nextDouble(100.0, 4000.0);
        config.stencilDims =
            static_cast<int>(draws.nextInRange(1, 4));
        config.haloBytes =
            static_cast<Bytes>(draws.nextInRange(1, 1 << 20));
        config.computePerIteration = static_cast<Instr>(
            draws.nextInRange(0, 10'000'000));
        config.computeJitter = draws.nextDouble(0.0, 0.99);
        config.gradientBuckets =
            static_cast<int>(draws.nextInRange(1, 8));
        config.gradientBytes = static_cast<Bytes>(
            draws.nextInRange(config.gradientBuckets, 1 << 26));
        config.stepInstr = static_cast<Instr>(
            draws.nextInRange(0, 100'000'000));
        config.servers = static_cast<int>(
            draws.nextInRange(1, config.ranks - 1));
        config.requestsPerClient =
            static_cast<int>(draws.nextInRange(1, 8));
        config.requestBytes =
            static_cast<Bytes>(draws.nextInRange(1, 65536));
        config.replyBytes =
            static_cast<Bytes>(draws.nextInRange(1, 1 << 20));
        config.clientInstr =
            static_cast<Instr>(draws.nextInRange(0, 1'000'000));
        config.serverInstr =
            static_cast<Instr>(draws.nextInRange(0, 1'000'000));
        config.churnProbability = draws.nextDouble(0.0, 0.99);
        config.opsPerRound =
            static_cast<int>(draws.nextInRange(1, 6));
        config.storeFraction = draws.nextDouble(0.0, 1.0);
        config.keyBytes =
            static_cast<Bytes>(draws.nextInRange(1, 4096));
        config.valueBytes =
            static_cast<Bytes>(draws.nextInRange(1, 1 << 20));
        config.hopInstr =
            static_cast<Instr>(draws.nextInRange(0, 500'000));

        std::ostringstream os;
        writeWorkloadConfig(config, os);
        std::istringstream is(os.str());
        const auto back = readWorkloadConfig(is, "fuzz.wl");

        EXPECT_EQ(back.kind, config.kind);
        EXPECT_EQ(back.name, config.name);
        EXPECT_EQ(back.ranks, config.ranks);
        EXPECT_EQ(back.iterations, config.iterations);
        EXPECT_EQ(back.mips, config.mips);
        EXPECT_EQ(back.stencilDims, config.stencilDims);
        EXPECT_EQ(back.haloBytes, config.haloBytes);
        EXPECT_EQ(back.computePerIteration,
                  config.computePerIteration);
        EXPECT_EQ(back.computeJitter, config.computeJitter);
        EXPECT_EQ(back.gradientBytes, config.gradientBytes);
        EXPECT_EQ(back.gradientBuckets, config.gradientBuckets);
        EXPECT_EQ(back.stepInstr, config.stepInstr);
        EXPECT_EQ(back.servers, config.servers);
        EXPECT_EQ(back.requestsPerClient,
                  config.requestsPerClient);
        EXPECT_EQ(back.requestBytes, config.requestBytes);
        EXPECT_EQ(back.replyBytes, config.replyBytes);
        EXPECT_EQ(back.clientInstr, config.clientInstr);
        EXPECT_EQ(back.serverInstr, config.serverInstr);
        EXPECT_EQ(back.churnProbability,
                  config.churnProbability);
        EXPECT_EQ(back.opsPerRound, config.opsPerRound);
        EXPECT_EQ(back.storeFraction, config.storeFraction);
        EXPECT_EQ(back.keyBytes, config.keyBytes);
        EXPECT_EQ(back.valueBytes, config.valueBytes);
        EXPECT_EQ(back.hopInstr, config.hopInstr);
    }
}

TEST(GenConfig, WithRankCountPreservesShape)
{
    WorkloadConfig config = configOfKind(WorkloadKind::fanIn);
    config.ranks = 12;
    config.servers = 3; // 1:4 server:rank ratio
    const auto grown = withRankCount(config, 48);
    EXPECT_EQ(grown.ranks, 48);
    EXPECT_EQ(grown.servers, 12);
    const auto shrunk = withRankCount(config, 4);
    EXPECT_EQ(shrunk.ranks, 4);
    EXPECT_EQ(shrunk.servers, 1);

    WorkloadConfig stencil =
        configOfKind(WorkloadKind::stencil);
    const auto big = withRankCount(stencil, 1024);
    EXPECT_EQ(big.ranks, 1024);
    // And the re-targeted workload actually generates.
    const auto traces = generateTrace(withRankCount(stencil, 36),
                                      1);
    EXPECT_EQ(traces.ranks(), 36);
}

TEST(GenConfig, ScalingBelowTwoRanksNamesTheRankCount)
{
    // A fan-in re-targeted below two ranks has no server share to
    // keep: the sweep fails in validate(), naming `ranks`, instead
    // of rescaling the servers over an empty range.
    WorkloadConfig config = configOfKind(WorkloadKind::fanIn);
    config.ranks = 16;
    config.servers = 4;
    for (const int ranks : {1, 0}) {
        try {
            core::scalingSweep(config, 1,
                               sim::platforms::defaultCluster(),
                               {ranks}, core::standardVariants(4));
            FAIL() << "expected FatalError at ranks " << ranks;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("'ranks'"),
                      std::string::npos)
                << err.what();
        }
    }
}

} // namespace
} // namespace ovlsim::gen
