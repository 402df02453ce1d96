/**
 * @file
 * Golden pins of the link-network contention core at scale, on the
 * gen-scale platform: a 4-ary tapered fat tree at 4096 MB/s with
 * algorithmic recursive-doubling allreduce.
 *
 *  - Generated ml-training (two iterations, four gradient buckets of
 *    a 64 MiB gradient, 50M-instruction steps) at 64, 256 and 1024
 *    ranks: the configuration whose 1024-rank replay is dominated by
 *    the network's join/leave bookkeeping. Its traffic is allreduce
 *    schedules only, so the overlapped variants replay to the
 *    original's figures; they are pinned anyway because they run
 *    through their own transformed programs.
 *  - A generated stencil with family defaults at 128 ranks, the
 *    largest stencil point of the gen-scale campaign, whose halo
 *    exchanges keep many flows in flight between collectives.
 *
 * Each point pins the original and both standardVariants(16): total
 * simulated time and the number of events processed (the stencil's
 * recorded from the eager-settle network). Any change to
 * the order in which the network hands out rate changes (and hence
 * the event heap's tie-breaks) or to the per-flow double arithmetic
 * moves these.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/analysis.hh"
#include "core/transform.hh"
#include "gen/gen.hh"
#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"

namespace ovlsim {
namespace {

/** totalTime (ns) and eventsProcessed of one replay. */
struct Pin
{
    std::int64_t totalNs;
    std::uint64_t events;
};

/** ml-training: two iterations, four buckets of a 64 MiB gradient. */
gen::WorkloadConfig
mlTraining()
{
    gen::WorkloadConfig ml;
    ml.kind = gen::WorkloadKind::mlTraining;
    ml.name = "gen-ml";
    ml.iterations = 2;
    ml.gradientBuckets = 4;
    ml.gradientBytes = Bytes(64) * 1024 * 1024;
    ml.stepInstr = 50'000'000;
    return ml;
}

/** A stencil with family defaults. */
gen::WorkloadConfig
stencil()
{
    gen::WorkloadConfig config;
    config.kind = gen::WorkloadKind::stencil;
    config.name = "gen-stencil";
    return config;
}

/** Original, then the two standardVariants(16), of `workload` at one
 * rank count. */
void
expectPinned(const gen::WorkloadConfig &workload, int ranks,
             const std::array<Pin, 3> &pins)
{
    auto platform = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    platform.bandwidthMBps = 4096.0;
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(
        trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);

    const auto bundle =
        gen::generateWorkload(gen::withRankCount(workload, ranks), 1);

    sim::ReplaySession session;
    const auto original = session.run(bundle.traces, platform);
    EXPECT_EQ(original.totalTime.ns(), pins[0].totalNs)
        << ranks << " ranks, original";
    EXPECT_EQ(original.eventsProcessed, pins[0].events)
        << ranks << " ranks, original";

    const auto variants = core::standardVariants(16);
    ASSERT_EQ(variants.size(), 2u);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        const auto built = core::buildOverlappedTrace(
            bundle.traces, bundle.overlap, variants[v].config);
        const auto run = session.run(built.traces, platform);
        EXPECT_EQ(run.totalTime.ns(), pins[v + 1].totalNs)
            << ranks << " ranks, " << variants[v].name;
        EXPECT_EQ(run.eventsProcessed, pins[v + 1].events)
            << ranks << " ranks, " << variants[v].name;
    }
}

TEST(NetScalePinTest, MlTraining64Ranks)
{
    expectPinned(mlTraining(), 64, {{{559136000, 8448},
                                     {559136000, 8448},
                                     {559136000, 8448}}});
}

TEST(NetScalePinTest, MlTraining256Ranks)
{
    expectPinned(mlTraining(), 256, {{{1083552000, 46016},
                                      {1083552000, 46016},
                                      {1083552000, 46016}}});
}

TEST(NetScalePinTest, MlTraining1024Ranks)
{
    expectPinned(mlTraining(), 1024, {{{2132256000, 233152},
                                       {2132256000, 233152},
                                       {2132256000, 233152}}});
}

TEST(NetScalePinTest, Stencil128Ranks)
{
    expectPinned(stencil(), 128, {{{4464502, 5537},
                                   {4171547, 401657},
                                   {4171547, 401657}}});
}

} // namespace
} // namespace ovlsim
