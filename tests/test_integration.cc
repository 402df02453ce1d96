/**
 * @file
 * Integration tests: the full Figure-1 pipeline — application ->
 * tracing tool -> original + overlapped traces -> replay ->
 * visualization — including file round trips.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/app.hh"
#include "core/analysis.hh"
#include "sim/engine.hh"
#include "tests/helpers.hh"
#include "trace/trace_io.hh"
#include "trace/validate.hh"
#include "viz/ascii_gantt.hh"
#include "viz/paraver.hh"

namespace ovlsim {
namespace {

tracer::TraceBundle
traceApp(const std::string &name, int iterations = 2)
{
    const auto &app = apps::findApp(name);
    auto params = app.defaults();
    params.iterations = iterations;
    tracer::TracerConfig config;
    config.appName = name;
    return tracer::traceApplication(params.ranks,
                                    app.program(params), config);
}

TEST(PipelineTest, BtIdealOverlapSpeedsUpAtIntermediateBandwidth)
{
    const auto bundle = traceApp("nas-bt");
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps =
        core::findIntermediateBandwidth(bundle.traces, platform);

    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;
    core::TransformConfig real;
    real.pattern = core::PatternModel::real;

    const auto sweep = core::bandwidthSweep(
        bundle, platform, {platform.bandwidthMBps},
        {{"overlap-ideal", ideal}, {"overlap-real", real}});
    const double ideal_speedup = sweep.points[0].speedup(0);
    const double real_speedup = sweep.points[0].speedup(1);
    // Paper R1/R2: ideal restructuring achieves a significant
    // speedup, the measured (real) pattern is negligible.
    EXPECT_GT(ideal_speedup, 1.2);
    EXPECT_LT(real_speedup, 1.15);
    EXPECT_GT(real_speedup, 0.95);
}

TEST(PipelineTest, SweepBenefitsGrowThenShrinkWithBandwidth)
{
    const auto bundle = traceApp("specfem");
    const auto base = sim::platforms::defaultCluster();
    const auto sweep = core::bandwidthSweep(
        bundle, base,
        core::logBandwidthGrid(1.0, 65536.0, 1),
        core::standardVariants());

    // At the extremes the ideal benefit vanishes (network- or
    // compute-dominated); in between it must peak visibly.
    double peak = 0.0;
    for (const auto &point : sweep.points)
        peak = std::max(peak, point.speedup(1));
    EXPECT_GT(peak, 1.3);
    EXPECT_LT(sweep.points.front().speedup(1), peak);
    EXPECT_LT(sweep.points.back().speedup(1), peak * 0.85);
}

TEST(PipelineTest, TraceFilesRoundTripThroughDisk)
{
    const auto bundle = traceApp("pop", 1);
    const std::string dir = ::testing::TempDir();
    const std::string trace_path = dir + "ovl_it_trace.txt";
    const std::string overlap_path = dir + "ovl_it_overlap.txt";

    trace::writeTraceFile(bundle.traces, trace_path);
    trace::writeOverlapFile(bundle.overlap, overlap_path);

    const auto traces = trace::readTraceFile(trace_path);
    const auto overlap = trace::readOverlapFile(overlap_path);

    EXPECT_TRUE(trace::validateTraceSet(traces).valid());
    EXPECT_EQ(overlap.size(), bundle.overlap.size());

    // Replaying the reloaded traces reproduces the same time.
    const auto platform = sim::platforms::defaultCluster();
    EXPECT_EQ(sim::simulate(traces, platform).totalTime.ns(),
              sim::simulate(bundle.traces, platform)
                  .totalTime.ns());

    // The overlapped trace built from reloaded metadata matches
    // the one built from in-memory metadata.
    core::TransformConfig config;
    const auto from_disk =
        core::buildOverlappedTrace(traces, overlap, config);
    const auto from_memory = core::buildOverlappedTrace(
        bundle.traces, bundle.overlap, config);
    EXPECT_EQ(
        sim::simulate(from_disk.traces, platform).totalTime.ns(),
        sim::simulate(from_memory.traces, platform)
            .totalTime.ns());
}

TEST(PipelineTest, WholePipelineIsDeterministic)
{
    const auto a = traceApp("alya", 1);
    const auto b = traceApp("alya", 1);
    std::ostringstream sa;
    std::ostringstream sb;
    trace::writeTraceText(a.traces, sa);
    trace::writeTraceText(b.traces, sb);
    EXPECT_EQ(sa.str(), sb.str());

    std::ostringstream oa;
    std::ostringstream ob;
    trace::writeOverlapText(a.overlap, oa);
    trace::writeOverlapText(b.overlap, ob);
    EXPECT_EQ(oa.str(), ob.str());
}

TEST(PipelineTest, TimelinesVisualizeBothExecutions)
{
    const auto bundle = traceApp("nas-bt", 1);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = 64.0;
    platform.captureTimeline = true;

    const auto original = sim::simulate(bundle.traces, platform);
    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;
    const auto overlapped = sim::simulate(
        core::buildOverlappedTrace(bundle.traces, bundle.overlap, ideal)
            .traces,
        platform);

    viz::GanttOptions options;
    options.width = 72;
    const auto gantt_orig =
        viz::renderGantt(original.timeline, options);
    const auto gantt_over =
        viz::renderGantt(overlapped.timeline, options);
    EXPECT_NE(gantt_orig, gantt_over);
    EXPECT_NE(gantt_orig.find('#'), std::string::npos);

    const std::string base =
        ::testing::TempDir() + "ovl_it_paraver";
    viz::writeParaverFiles(original.timeline, base);
    std::ifstream prv(base + ".prv");
    EXPECT_TRUE(prv.good());
}

TEST(PipelineTest, EveryAppSupportsTheFullStudy)
{
    for (const auto *app : apps::appRegistry()) {
        auto params = app->defaults();
        params.iterations = 1;
        tracer::TracerConfig config;
        config.appName = app->name();
        const auto bundle = tracer::traceApplication(
            params.ranks, app->program(params), config);

        core::TransformConfig ideal;
        ideal.pattern = core::PatternModel::idealLinear;
        const auto point =
            core::bandwidthSweep(bundle, testing::platformAt(128.0),
                                 {128.0}, {{"overlap-ideal", ideal}})
                .points[0];

        EXPECT_GT(point.originalTime.ns(), 0) << app->name();
        EXPECT_GT(point.variantTimes[0].ns(), 0) << app->name();
        EXPECT_LE(point.variantTimes[0].ns(),
                  point.originalTime.ns() * 11 / 10)
            << app->name();
    }
}

} // namespace
} // namespace ovlsim
