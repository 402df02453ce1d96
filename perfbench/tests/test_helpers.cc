/**
 * @file
 * Tests of the campaign benchmark's own helpers: the statistics it
 * reports, the span tree's self times, and the digest of simulated
 * outputs, which must not depend on repeats, on the pool's lane
 * count, or on whether the campaign ran through the public drivers
 * or as traced per-layer calls.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

#include "bench_stats.hh"
#include "campaigns.hh"
#include "traced.hh"

using namespace perfbench;

TEST(Stats, MedianOfOddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// Expected values from Python's statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    const auto four = quartiles({4.0, 3.0, 2.0, 1.0});
    EXPECT_DOUBLE_EQ(four.q1, 1.25);
    EXPECT_DOUBLE_EQ(four.q2, 2.5);
    EXPECT_DOUBLE_EQ(four.q3, 3.75);

    const auto two = quartiles({1.0, 2.0});
    EXPECT_DOUBLE_EQ(two.q1, 0.75);
    EXPECT_DOUBLE_EQ(two.q2, 1.5);
    EXPECT_DOUBLE_EQ(two.q3, 2.25);

    const auto ten =
        quartiles({3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0});
    EXPECT_DOUBLE_EQ(ten.q1, 1.75);
    EXPECT_DOUBLE_EQ(ten.q2, 3.5);
    EXPECT_DOUBLE_EQ(ten.q3, 5.25);

    const auto three = quartiles({30.0, 10.0, 20.0});
    EXPECT_DOUBLE_EQ(three.q1, 10.0);
    EXPECT_DOUBLE_EQ(three.q3, 30.0);

    const auto one = quartiles({7.0});
    EXPECT_DOUBLE_EQ(one.q1, 7.0);
    EXPECT_DOUBLE_EQ(one.q3, 7.0);
}

std::vector<double>
ramp(int n)
{
    std::vector<double> values;
    for (int i = n; i >= 1; --i)
        values.push_back(static_cast<double>(i));
    return values;
}

TEST(Stats, HighestTailNeedsTenSamplesBeyondIt)
{
    EXPECT_FALSE(highestTail(ramp(19)).has_value());

    const auto twenty = highestTail(ramp(20));
    ASSERT_TRUE(twenty.has_value());
    EXPECT_DOUBLE_EQ(twenty->percentile, 50.0);
    EXPECT_DOUBLE_EQ(twenty->value, 10.0);

    const auto forty = highestTail(ramp(40));
    ASSERT_TRUE(forty.has_value());
    EXPECT_DOUBLE_EQ(forty->percentile, 75.0);
    EXPECT_DOUBLE_EQ(forty->value, 30.0);

    const auto hundred = highestTail(ramp(100));
    ASSERT_TRUE(hundred.has_value());
    EXPECT_DOUBLE_EQ(hundred->percentile, 90.0);
    EXPECT_DOUBLE_EQ(hundred->value, 90.0);

    const auto thousand = highestTail(ramp(1000));
    ASSERT_TRUE(thousand.has_value());
    EXPECT_DOUBLE_EQ(thousand->percentile, 99.0);
    EXPECT_DOUBLE_EQ(thousand->value, 990.0);

    // A smaller threshold reaches further into the tail.
    const auto loose = highestTail(ramp(100), 1);
    ASSERT_TRUE(loose.has_value());
    EXPECT_DOUBLE_EQ(loose->percentile, 99.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // root [0,100) with overlapping children [10,30) and [20,50), a
    // disjoint child [60,70), and a grandchild [12,18) under the
    // first child.
    const std::vector<Interval> spans{
        {0, 100, -1}, {10, 30, 0}, {20, 50, 0}, {60, 70, 0}, {12, 18, 1}};
    const auto self = selfTimes(spans);
    EXPECT_EQ(self[0], 100 - 40 - 10);
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[3], 10);
    EXPECT_EQ(self[4], 6);
}

TEST(Spans, LeakingChildShowsAsNegativeSelfTime)
{
    const auto self = selfTimes({{0, 10, -1}, {5, 25, 0}});
    EXPECT_EQ(self[0], -10);
}

TEST(Spans, NestedTracerSpansAddUpToLanesTimesWall)
{
    Tracer tracer(2);
    const int point = tracer.addPoint();
    for (int lane = 0; lane < 2; ++lane) {
        Scope outer(&tracer, lane, Layer::point, point);
        {
            Scope inner(&tracer, lane, Layer::replay, point);
            inner.work = 5;
        }
        Scope second(&tracer, lane, Layer::compile, point);
    }
    tracer.finish();
    ASSERT_EQ(tracer.merged().size(), 2u + 6u);
    EXPECT_LT(selfTimeError(tracer), 1e-12);
    ASSERT_TRUE(writeSpans(tracer, "spans_test.json"));
    std::ifstream in("spans_test.json");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::size_t events = 0;
    for (std::size_t at = 0;
         (at = text.find("\"ph\": \"X\"", at)) != std::string::npos; ++at)
        ++events;
    EXPECT_EQ(events, tracer.merged().size());
    EXPECT_NE(text.find("\"name\": \"replay\""), std::string::npos);
    // Top-level spans hang off their lane's root; children off them.
    for (const Span &span : tracer.merged()) {
        if (span.layer == Layer::point) {
            EXPECT_EQ(span.parent, span.lane);
        }
        if (span.layer == Layer::replay) {
            EXPECT_EQ(tracer.merged()[span.parent].layer, Layer::point);
            EXPECT_EQ(span.work, 5u);
        }
    }
}

TEST(Digest, Fnv1aKnownValues)
{
    EXPECT_EQ(hex64(fnv1a("")), "cbf29ce484222325");
    EXPECT_EQ(hex64(fnv1a("a")), "af63dc4c8601ec8c");
}

class WorkloadDigest : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadDigest, StableAcrossRepeatsLanesAndTracing)
{
    auto workload = makeWorkload(GetParam(), 7, smallSpec());
    ASSERT_NE(workload, nullptr);
    workload->setup(nullptr);

    const Records one = workload->campaign(1);
    ASSERT_EQ(one.size(), workload->points());
    const std::string digest = simDigest(one);
    EXPECT_EQ(simDigest(workload->campaign(1)), digest);
    EXPECT_EQ(simDigest(workload->campaign(2)), digest);

    for (const int lanes : {1, 2}) {
        Tracer tracer(lanes);
        const Records traced = workload->tracedCampaign(lanes, tracer);
        tracer.finish();
        ASSERT_EQ(traced.size(), one.size());
        for (std::size_t i = 0; i < one.size(); ++i) {
            EXPECT_EQ(traced[i].label, one[i].label);
            EXPECT_EQ(traced[i].outputs, one[i].outputs) << one[i].label;
        }
        EXPECT_LT(selfTimeError(tracer), 1e-9);
        const Metrics metrics =
            layerMetrics(Tracer(1), tracer, obs::cacheReport());
        double events = 0.0;
        for (const auto &[name, value] : metrics) {
            if (name == "engine.events")
                events = value;
        }
        EXPECT_GT(events, 0.0);
    }

    // A fresh set-up rebuilds identical inputs.
    workload->setup(nullptr);
    EXPECT_EQ(simDigest(workload->campaign(2)), digest);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadDigest,
                         ::testing::Values("paper-r1", "gen-scale",
                                           "faults-ckpt"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(Workloads, SeedReachesOnlyTheFaultCampaign)
{
    auto a = makeWorkload("faults-ckpt", 1, smallSpec());
    auto b = makeWorkload("faults-ckpt", 2, smallSpec());
    a->setup(nullptr);
    b->setup(nullptr);
    EXPECT_NE(simDigest(a->campaign(2)), simDigest(b->campaign(2)));

    auto c = makeWorkload("gen-scale", 1, smallSpec());
    auto d = makeWorkload("gen-scale", 2, smallSpec());
    c->setup(nullptr);
    d->setup(nullptr);
    EXPECT_EQ(simDigest(c->campaign(2)), simDigest(d->campaign(2)));
    EXPECT_EQ(makeWorkload("no-such-workload", 1), nullptr);
}
