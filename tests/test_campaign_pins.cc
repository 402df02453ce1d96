/**
 * @file
 * Campaign driver pin table: the bit-identity oracle of the sweep
 * schedule.
 *
 * A campaign driver decides which lane replays what and in which
 * order; none of that may reach the answer. This table pins what
 * two drivers computed, per point, on a two-lane pool:
 *
 *  - scalingSweep of the gen-scale families (the ml-training loop
 *    perfbench replays and a stencil with family defaults) at 16,
 *    32 and 64 ranks on the gen-scale platform: a 2:1 tapered fat
 *    tree at 4096 MB/s with algorithmic collectives and
 *    recursive-doubling allreduce, standardVariants(16);
 *  - bandwidthSweep of sweep3d at one iteration over three
 *    bandwidths on the default cluster, standardVariants(16).
 *
 * A row holds the point's key (ranks or MB/s), the original's time
 * in ns and its comm fraction as an exact hex-float, each variant's
 * time, the generated workload's payload bytes and message count
 * (zero for the bandwidth sweep) and every counter of the point's
 * folded EngineStats. The sweep's own fold must equal the fold of
 * its pinned rows.
 *
 * A mismatch prints the replayed row in table syntax, so a
 * deliberate re-pin is a reviewable copy of the printed rows. The
 * scalingSweep rows' rateRecomputes, recomputesSkipped and
 * rearmsSkipped were re-pinned, every other column unedited, when
 * the link network stopped re-deriving bottlenecks that an
 * admission or removal could not move, and again when an admission
 * burst's mins became one pass per lowered link and a removal
 * stopped walking flows that finish at its instant.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "core/analysis.hh"
#include "gen/gen.hh"
#include "net/topology.hh"
#include "sim/platform.hh"
#include "tracer/tracer.hh"

namespace ovlsim {
namespace {

constexpr int kThreads = 2;

/** What one point pins. */
struct Row
{
    double key;
    std::int64_t originalNs;
    double commFraction;
    std::int64_t realNs;
    std::int64_t idealNs;
    std::int64_t sentBytes;
    std::uint64_t messages;
    obs::EngineStats stats;

    bool operator==(const Row &) const = default;
};

template <typename Point>
Row
rowOf(double key, const Point &p, std::int64_t sent_bytes,
      std::uint64_t messages)
{
    return {key,
            p.originalTime.ns(),
            p.originalCommFraction,
            p.variantTimes.at(0).ns(),
            p.variantTimes.at(1).ns(),
            sent_bytes,
            messages,
            p.stats};
}

/** `row` in table syntax. */
std::string
format(const Row &row)
{
    const obs::EngineStats &s = row.stats;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "        {%g, %" PRId64 ", %a, %" PRId64 ", %" PRId64
        ", %" PRId64 ", %" PRIu64 ",\n"
        "         {%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
        ", %" PRIu64 ", %" PRIu64 "}},\n",
        row.key, row.originalNs, row.commFraction, row.realNs,
        row.idealNs, row.sentBytes, row.messages, s.heapPushes,
        s.heapPops, s.channelProbes, s.queueScanSteps,
        s.scenarioScanSteps, s.arenaHighWater, s.rateRecomputes,
        s.recomputesSkipped, s.rearmsTaken, s.rearmsSkipped,
        s.scenarioEvents, s.collSteps, s.rollbackReworkNs,
        s.snapshotBytes);
    return buf;
}

/** Compare replayed rows and the sweep's fold against the pins. */
void
expectTable(const std::vector<Row> &replayed,
            const obs::EngineStats &folded,
            const std::vector<Row> &pins)
{
    std::string table;
    for (const Row &row : replayed)
        table += format(row);
    ASSERT_EQ(replayed.size(), pins.size())
        << "the whole table replayed as\n"
        << table;
    obs::EngineStats pinnedFold;
    for (std::size_t i = 0; i < pins.size(); ++i) {
        EXPECT_TRUE(replayed[i] == pins[i])
            << "point " << i << " replayed as\n"
            << format(replayed[i]);
        pinnedFold.merge(pins[i].stats);
    }
    EXPECT_TRUE(folded == pinnedFold) << folded.toString();
}

sim::PlatformConfig
genScalePlatform()
{
    auto platform = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(4, 0.5));
    platform.bandwidthMBps = 4096.0;
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.collectiveAlgorithms.set(
        trace::CollOp::allReduce, coll::Algorithm::recursiveDoubling);
    return platform;
}

void
expectScalingTable(const gen::WorkloadConfig &workload,
                   const std::vector<Row> &pins)
{
    const auto sweep = core::scalingSweep(
        workload, 1, genScalePlatform(), {16, 32, 64},
        core::standardVariants(16), kThreads);
    std::vector<Row> rows;
    for (const auto &point : sweep.points)
        rows.push_back(rowOf(point.ranks, point, point.sentBytes,
                             point.messages));
    expectTable(rows, sweep.stats, pins);
}

TEST(CampaignPinTest, ScalingSweepOfMlTraining)
{
    gen::WorkloadConfig ml;
    ml.kind = gen::WorkloadKind::mlTraining;
    ml.name = "gen-ml";
    ml.iterations = 2;
    ml.gradientBuckets = 4;
    ml.gradientBytes = Bytes(64) * 1024 * 1024;
    ml.stepInstr = 50'000'000;
    expectScalingTable(ml, {
        {16, 296864000, 0x1.5387cbadfcbe6p-1, 296864000, 296864000, 0, 0,
         {4080, 4080, 0, 0, 0, 512, 1536, 3840, 0, 0, 0, 3072, 0, 0}},
        {32, 428000000, 0x1.885fb37072d78p-1, 428000000, 428000000, 0, 0,
         {10416, 10416, 0, 0, 0, 1280, 3840, 24576, 0, 0, 0, 7680, 0, 0}},
        {64, 559136000, 0x1.a46e1e44f2cc4p-1, 559136000, 559136000, 0, 0,
         {25344, 25344, 0, 0, 0, 3072, 9216, 82944, 0, 0, 0, 18432, 0, 0}},
    });
}

TEST(CampaignPinTest, ScalingSweepOfStencil)
{
    gen::WorkloadConfig stencil;
    stencil.kind = gen::WorkloadKind::stencil;
    stencil.name = "gen-stencil";
    expectScalingTable(stencil, {
        {16, 4458503, 0x1.754eb9b8a2745p-4, 4160001, 4160001, 6291456, 192,
         {26314, 26314, 12672, 0, 0, 3072, 38121, 417979, 5967, 25818, 0, 0, 0, 0}},
        {32, 4458501, 0x1.7490e8436e849p-4, 4160001, 4160001, 13631488, 416,
         {49738, 49738, 27456, 0, 0, 6656, 80717, 1118300, 6212, 60777, 0, 0, 0, 0}},
        {64, 4464503, 0x1.7c395400acbp-4, 4171547, 4171547, 29360128, 896,
         {380050, 380050, 59136, 0, 0, 14336, 448091, 3733639, 288494, 130029, 0, 0, 0, 0}},
    });
}

TEST(CampaignPinTest, BandwidthSweepOfSweep3d)
{
    const auto &app = apps::findApp("sweep3d");
    auto params = app.defaults();
    params.iterations = 1;
    tracer::TracerConfig config;
    config.appName = "sweep3d";
    const auto bundle = tracer::traceApplication(
        params.ranks, app.program(params), config);

    const auto sweep = core::bandwidthSweep(
        bundle, sim::platforms::defaultCluster(), {16.0, 256.0, 4096.0},
        core::standardVariants(16), kThreads);
    std::vector<Row> rows;
    for (const auto &point : sweep.points)
        rows.push_back(rowOf(point.bandwidthMBps, point, 0, 0));
    expectTable(rows, sweep.stats, {
        {16, 49804304, 0x1.6aac693c02c63p-1, 50204328, 33207735, 0, 0,
         {26935, 26935, 22272, 52691, 0, 5376, 0, 0, 0, 0, 0, 0, 0, 0}},
        {256, 14333776, 0x1.727ca80f28af2p-2, 14235310, 8044637, 0, 0,
         {27509, 27509, 22272, 17954, 0, 5376, 0, 0, 0, 0, 0, 0, 0, 0}},
        {4096, 13220026, 0x1.517cdd096f98cp-2, 13144896, 7965128, 0, 0,
         {27691, 27691, 22272, 11441, 0, 5376, 0, 0, 0, 0, 0, 0, 0, 0}},
    });
}

} // namespace
} // namespace ovlsim
