/**
 * @file
 * Experiment F1 (paper Figure 1): the environment itself.
 *
 * Exercises the full pipeline the figure depicts — application runs
 * on one virtual machine per process, the tracing tool emits the
 * original and the potential (overlapped) traces, the Dimemas-like
 * simulator reconstructs both time-behaviours on a configurable
 * platform, and the Paraver-like back end renders them for visual
 * comparison. Artifacts (trace files, .prv/.pcf timelines) are
 * written to the working directory.
 */

#include <cstdio>
#include <iostream>

#include "bench/bench_common.hh"
#include "core/potential.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "viz/ascii_gantt.hh"
#include "viz/paraver.hh"
#include "viz/profile.hh"

using namespace ovlsim;
using namespace ovlsim::bench;

namespace {

int
toolMain(int argc, char **argv)
{
    // Accepts --threads like every bench; its two replays need no
    // lanes.
    parseThreads(argc, argv);
    std::printf("F1: the simulation environment of Figure 1, end "
                "to end (NAS-BT proxy, 1 iteration)\n\n");

    // Stage 1: application on per-process virtual machines, traced.
    const auto bundle = traceApp("nas-bt", 1);
    std::printf("[tracing tool] original trace:\n%s\n",
                trace::computeTraceStats(bundle.traces)
                    .toString()
                    .c_str());
    trace::writeTraceFile(bundle.traces, "fig1_original.trace");
    trace::writeOverlapFile(bundle.overlap,
                            "fig1_overlap.meta");
    std::printf("[tracing tool] wrote fig1_original.trace and "
                "fig1_overlap.meta\n\n");

    // Static potential analysis from the measured profiles alone.
    std::printf("[analysis] %s\n",
                core::analyzePotential(bundle.overlap)
                    .toString()
                    .c_str());

    // Stage 2: the tool's potential (overlapped) trace.
    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;
    const auto overlapped = core::buildOverlappedTrace(
        bundle.traces, bundle.overlap, ideal);
    std::printf("[transformation] %zu messages split into %zu "
                "chunk transfers (%s)\n\n",
                overlapped.chunkedMessages,
                overlapped.totalChunks, ideal.label().c_str());

    // Stage 3: Dimemas-like reconstruction on a configurable
    // platform, near the intermediate bandwidth. The original is
    // lowered once for the bisection and its replay.
    const auto original_program = sim::compileTrace(bundle.traces);
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = core::findIntermediateBandwidth(
        original_program, platform);
    platform.captureTimeline = true;
    std::printf("[replay] platform: %.2f MB/s, %.1f us latency, "
                "%s buses\n\n",
                platform.bandwidthMBps, platform.latencyUs,
                platform.buses == 0
                    ? "unlimited"
                    : strformat("%d", platform.buses).c_str());

    const auto original_result =
        sim::simulate(original_program, platform);
    const auto overlapped_result =
        sim::simulate(overlapped.traces, platform);

    // Stage 4: Paraver-like visualization of both behaviours.
    viz::GanttOptions options;
    options.width = 96;
    options.legend = false;
    options.title = "original (non-overlapped):";
    std::printf("%s\n",
                viz::renderGantt(original_result.timeline,
                                 options)
                    .c_str());
    options.title = "overlapped (ideal pattern):";
    options.legend = true;
    std::printf("%s\n",
                viz::renderGantt(overlapped_result.timeline,
                                 options)
                    .c_str());

    std::printf("%s\n",
                viz::renderComparison("original",
                                      original_result,
                                      "overlapped",
                                      overlapped_result)
                    .c_str());

    viz::writeParaverFiles(original_result.timeline,
                           "fig1_original");
    viz::writeParaverFiles(overlapped_result.timeline,
                           "fig1_overlapped");
    std::printf("[paraver] wrote fig1_original.prv/.pcf and "
                "fig1_overlapped.prv/.pcf\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
