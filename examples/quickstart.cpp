/**
 * @file
 * Quickstart: the whole environment in one page.
 *
 * Writes a tiny two-rank MPI-like program against the VM API, traces
 * it with the tracing tool, builds the overlapped "potential" trace,
 * replays both on a configurable platform and prints the comparison
 * — the paper's Figure-1 pipeline in miniature.
 *
 *   ./quickstart [--bandwidth <MB/s>] [--chunks <n>]
 */

#include <cstdio>
#include <iostream>

#include "core/transform.hh"
#include "sim/engine.hh"
#include "tracer/tracer.hh"
#include "util/options.hh"
#include "viz/ascii_gantt.hh"
#include "viz/profile.hh"

using namespace ovlsim;

namespace {

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("bandwidth", "64", "network bandwidth, MB/s");
    options.declare("chunks", "16", "chunks per message");
    options.parse(argc, argv);

    // 1. An application: rank 0 produces a 256 KiB array while
    //    computing, sends it; rank 1 receives and consumes it
    //    while computing. Loads/stores on the registered buffer
    //    are tracked exactly as the paper's Valgrind tool tracks
    //    memory activity.
    const Bytes bytes = 256 * 1024;
    const Instr work = 1'000'000; // ~1 ms at 1000 MIPS
    const auto program = [&](vm::VmContext &ctx) {
        const auto buf = ctx.allocBuffer("payload", bytes);
        if (ctx.rank() == 0) {
            // Produce progressively: each eighth of the buffer is
            // stored after its share of the computation.
            ctx.computeStore(buf, 0, bytes,
                             static_cast<double>(work) / bytes,
                             8);
            ctx.send(buf, 0, bytes, 1, 42);
        } else {
            ctx.recv(buf, 0, bytes, 0, 42);
            // Consume progressively while computing.
            ctx.computeLoad(buf, 0, bytes,
                            static_cast<double>(work) / bytes,
                            8);
        }
    };

    // 2. Trace it (original trace + production/consumption
    //    profiles from one run).
    const auto bundle = tracer::traceApplication(2, program);

    // 3. Configure the platform and replay the original and the
    //    overlapped execution.
    auto platform = sim::platforms::defaultCluster();
    platform.bandwidthMBps = options.getDouble("bandwidth", Sign::positive);
    platform.captureTimeline = true;

    core::TransformConfig overlap; // real measured pattern
    overlap.chunks =
        static_cast<std::size_t>(options.getInt("chunks", 1));

    const auto original = sim::simulate(bundle.traces, platform);
    const auto overlapped = sim::simulate(
        core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                   overlap)
            .traces,
        platform);

    // 4. Compare, quantitatively and visually.
    std::printf("platform: %.1f MB/s, %.1f us latency\n\n",
                platform.bandwidthMBps, platform.latencyUs);
    std::printf("%s\n",
                viz::renderComparison("original", original,
                                      "overlapped", overlapped)
                    .c_str());

    viz::GanttOptions gantt;
    gantt.width = 72;
    gantt.legend = false;
    gantt.title = "original:";
    std::printf("%s\n",
                viz::renderGantt(original.timeline, gantt)
                    .c_str());
    gantt.title = "overlapped:";
    gantt.legend = true;
    std::printf("%s",
                viz::renderGantt(overlapped.timeline, gantt)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
