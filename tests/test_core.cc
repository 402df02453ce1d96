/**
 * @file
 * Tests for the analysis layer: bandwidth grids, variants, sweeps,
 * the bisections and iso-performance. The overlap speedup at the
 * intermediate bandwidth is read from a one-point bandwidthSweep,
 * the way the paper benches read it.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/analysis.hh"
#include "tests/helpers.hh"
#include "util/logging.hh"

namespace ovlsim::core {
namespace {

tracer::TraceBundle
ringBundle()
{
    return testing::traceOf(
        4, testing::ringExchange(128 * 1024, 800'000, 2));
}

TEST(BandwidthGridTest, LogSpacedAndInclusive)
{
    const auto grid = logBandwidthGrid(1.0, 1000.0, 1);
    ASSERT_GE(grid.size(), 4u);
    EXPECT_DOUBLE_EQ(grid.front(), 1.0);
    EXPECT_NEAR(grid.back(), 1000.0, 1e-6);
    for (std::size_t i = 1; i < grid.size(); ++i)
        EXPECT_GT(grid[i], grid[i - 1]);
    EXPECT_THROW(logBandwidthGrid(0.0, 10.0, 1), PanicError);
    // An inverted or empty range is a user's typo (`--hi 0.5`), not
    // a broken invariant.
    EXPECT_THROW(logBandwidthGrid(10.0, 1.0, 1), FatalError);
    EXPECT_THROW(logBandwidthGrid(10.0, 10.0, 1), FatalError);
}

TEST(StandardVariantsTest, RealAndIdeal)
{
    const auto variants = standardVariants(8);
    ASSERT_EQ(variants.size(), 2u);
    EXPECT_EQ(variants[0].name, "overlap-real");
    EXPECT_EQ(variants[0].config.pattern, PatternModel::real);
    EXPECT_EQ(variants[1].name, "overlap-ideal");
    EXPECT_EQ(variants[1].config.pattern,
              PatternModel::idealLinear);
    EXPECT_EQ(variants[0].config.chunks, 8u);
}

TEST(BandwidthSweepTest, OriginalTimesMonotoneNonIncreasing)
{
    const auto bundle = ringBundle();
    const auto grid = logBandwidthGrid(4.0, 4096.0, 1);
    const auto sweep =
        bandwidthSweep(bundle, sim::platforms::defaultCluster(),
                       grid, standardVariants(8));

    ASSERT_EQ(sweep.points.size(), grid.size());
    for (std::size_t i = 1; i < sweep.points.size(); ++i) {
        EXPECT_LE(sweep.points[i].originalTime.ns(),
                  sweep.points[i - 1].originalTime.ns());
    }
}

TEST(BandwidthSweepTest, SpeedupAccessorsAndBounds)
{
    const auto bundle = ringBundle();
    const auto sweep = bandwidthSweep(
        bundle, sim::platforms::defaultCluster(),
        {64.0, 512.0}, standardVariants(8));
    for (const auto &point : sweep.points) {
        ASSERT_EQ(point.variantTimes.size(), 2u);
        for (std::size_t v = 0; v < 2; ++v) {
            EXPECT_GT(point.speedup(v), 0.5);
            EXPECT_LT(point.speedup(v), 10.0);
        }
    }
}

TEST(IntermediateBandwidthTest, BalancesCommAndCompute)
{
    const auto bundle = ringBundle();
    const auto platform = sim::platforms::defaultCluster();
    const double mbps = findIntermediateBandwidth(
        bundle.traces, platform, 0.25, 1 << 20);

    auto at = platform;
    at.bandwidthMBps = mbps;
    const auto result = sim::simulate(bundle.traces, at);
    EXPECT_NEAR(result.commFraction(),
                result.computeFraction(), 0.08);
}

TEST(MinBandwidthTest, FindsThresholdBandwidth)
{
    const auto bundle = ringBundle();
    const auto platform = sim::platforms::defaultCluster();

    auto fast = platform;
    fast.bandwidthMBps = 4096.0;
    const auto fast_time =
        sim::simulate(bundle.traces, fast).totalTime;
    // Allow 10% slack over the fast execution.
    const auto target = SimTime::fromNs(
        fast_time.ns() + fast_time.ns() / 10);

    const double mbps = minBandwidthForTime(
        bundle.traces, platform, target, 0.5, 4096.0);
    ASSERT_GT(mbps, 0.5);

    auto at = platform;
    at.bandwidthMBps = mbps;
    EXPECT_LE(sim::simulate(bundle.traces, at).totalTime.ns(),
              target.ns());
    // Slightly below the threshold the target must be missed
    // (unless the search bottomed out).
    at.bandwidthMBps = mbps / 1.5;
    EXPECT_GT(sim::simulate(bundle.traces, at).totalTime.ns(),
              target.ns());
}

TEST(IsoPerformanceTest, OverlappedNeedsLessBandwidth)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(512 * 1024, 2'000'000, 16));

    TransformConfig ideal;
    ideal.pattern = PatternModel::idealLinear;
    const auto iso =
        isoPerformance(bundle, sim::platforms::defaultCluster(),
                       ideal, 16384.0, 0.05, 0.25);

    EXPECT_GT(iso.originalTime.ns(), 0);
    EXPECT_GT(iso.originalRequiredBandwidth, 0.0);
    EXPECT_GT(iso.overlappedRequiredBandwidth, 0.0);
    EXPECT_LE(iso.overlappedRequiredBandwidth,
              iso.originalRequiredBandwidth);
    EXPECT_GE(iso.reductionFactor(), 1.0);

    // A reference at or below the search floor is a user's value
    // (`network_dimensioning --reference 0.005`), not a broken
    // invariant.
    EXPECT_THROW(isoPerformance(bundle, sim::platforms::defaultCluster(),
                                ideal, 0.25, 0.05, 0.25),
                 FatalError);
}

TEST(StudyTest, SpeedupAboveOneAtIntermediateBandwidth)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000, 16));
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps =
        findIntermediateBandwidth(bundle.traces, platform);

    TransformConfig ideal;
    ideal.pattern = PatternModel::idealLinear;
    const auto sweep = bandwidthSweep(bundle, platform,
                                      {platform.bandwidthMBps},
                                      {{"overlap-ideal", ideal}});
    EXPECT_GT(sweep.points[0].speedup(0), 1.2);
}

} // namespace
} // namespace ovlsim::core
