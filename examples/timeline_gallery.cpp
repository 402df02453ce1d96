/**
 * @file
 * Timeline gallery: visually inspect the effect of overlap, the way
 * the paper uses Paraver.
 *
 * Renders the original, real-pattern and ideal-pattern executions of
 * one application as ASCII Gantt charts and writes Paraver .prv/.pcf
 * files for each, loadable in the actual BSC Paraver tool.
 *
 *   ./timeline_gallery --app nas-bt [--bandwidth 0 (=intermediate)]
 *                      [--width 100] [--prefix gallery]
 */

#include <cstdio>
#include <iostream>

#include "apps/app.hh"
#include "bench/bench_common.hh"
#include "util/options.hh"
#include "viz/ascii_gantt.hh"
#include "viz/paraver.hh"
#include "viz/profile.hh"

using namespace ovlsim;

namespace {

int
toolMain(int argc, char **argv)
{
    Options options;
    options.declare("app", "nas-bt", "application to visualize");
    options.declare("bandwidth", "0",
                    "bandwidth MB/s; 0 = intermediate");
    options.declare("width", "100", "gantt width in columns");
    options.declare("prefix", "gallery",
                    "paraver output file prefix");
    options.parse(argc, argv);

    const auto &app = apps::findApp(options.getString("app"));
    const auto bundle = bench::traceApp(app.name(), 1);

    auto platform = sim::platforms::defaultCluster();
    platform.captureTimeline = true;
    double bandwidth = options.getDouble("bandwidth", Sign::nonNegative);
    if (bandwidth <= 0.0)
        bandwidth =
            core::findIntermediateBandwidth(bundle.traces, platform);
    platform.bandwidthMBps = bandwidth;
    std::printf("%s at %.2f MB/s\n\n", app.name().c_str(),
                bandwidth);

    core::TransformConfig real;
    real.pattern = core::PatternModel::real;
    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;

    struct Entry
    {
        std::string name;
        sim::SimResult result;
    };
    const auto overlapped = [&](const core::TransformConfig &config) {
        return sim::simulate(
            core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                       config)
                .traces,
            platform);
    };
    const Entry entries[] = {
        {"original", sim::simulate(bundle.traces, platform)},
        {"overlap-real", overlapped(real)},
        {"overlap-ideal", overlapped(ideal)},
    };

    viz::GanttOptions gantt;
    gantt.width =
        static_cast<std::size_t>(options.getInt("width", 1, 10000));
    const std::string prefix = options.getString("prefix");

    for (const auto &entry : entries) {
        gantt.title = entry.name + " ("
            + humanTime(entry.result.totalTime) + "):";
        gantt.legend = &entry == &entries[2];
        std::printf("%s\n",
                    viz::renderGantt(entry.result.timeline,
                                     gantt)
                        .c_str());
        const std::string base = prefix + "_" + entry.name;
        viz::writeParaverFiles(entry.result.timeline, base);
    }
    std::printf("paraver traces written with prefix '%s_*'\n\n",
                prefix.c_str());

    std::printf("state profile of the original execution:\n%s",
                viz::renderStateProfile(entries[0].result)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
