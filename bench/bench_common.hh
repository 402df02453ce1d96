/**
 * @file
 * Shared plumbing for the experiment harness binaries.
 *
 * Every bench regenerates one of the paper's result families: it
 * prints the rows/series the paper reports and mirrors them to a CSV
 * file next to the binary for replotting.
 */

#ifndef OVLSIM_BENCH_BENCH_COMMON_HH
#define OVLSIM_BENCH_BENCH_COMMON_HH

#include <climits>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "core/analysis.hh"
#include "sim/engine.hh"
#include "tracer/tracer.hh"
#include "util/options.hh"
#include "util/strings.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace ovlsim::bench {

/**
 * Parse the shared bench command line and return the lane count for
 * the campaign drivers: `--threads N` in [0, INT_MAX], where 0 (the
 * default) means all hardware cores. Every experiment driver runs
 * the same campaign regardless of N — parallelism never changes
 * results, only wall-clock.
 */
inline int
parseThreads(int argc, const char *const *argv)
{
    Options options;
    options.declare("threads", "0",
                    "worker threads for replay campaigns "
                    "(0 = all hardware cores)");
    options.parse(argc, argv);
    return ThreadPool::resolveThreads(
        static_cast<int>(options.getInt("threads", 0, INT_MAX)));
}

/** The six applications of the paper's evaluation, in its order. */
inline const std::vector<std::string> &
paperApps()
{
    static const std::vector<std::string> apps{
        "nas-bt", "nas-cg", "pop", "alya", "specfem", "sweep3d"};
    return apps;
}

/** Paper-reported ideal-pattern speedup at intermediate bandwidth
 * (Sec. III), in percent. */
inline double
paperIntermediateSpeedupPct(const std::string &app)
{
    if (app == "nas-bt") return 30.0;
    if (app == "nas-cg") return 10.0;
    if (app == "pop") return 10.0;
    if (app == "alya") return 40.0;
    if (app == "specfem") return 65.0;
    if (app == "sweep3d") return 160.0;
    return 0.0;
}

/** Trace an application with its default parameters. */
inline tracer::TraceBundle
traceApp(const std::string &name, int iterations = 0)
{
    const auto &app = apps::findApp(name);
    auto params = app.defaults();
    if (iterations > 0)
        params.iterations = iterations;
    tracer::TracerConfig config;
    config.appName = name;
    return tracer::traceApplication(params.ranks,
                                    app.program(params), config);
}

/** Speedup of b over a as a percentage (+30 = 30% faster). */
inline double
speedupPct(SimTime original, SimTime overlapped)
{
    if (overlapped.ns() <= 0)
        return 0.0;
    return (static_cast<double>(original.ns()) /
                static_cast<double>(overlapped.ns()) -
            1.0) *
        100.0;
}

/** Format a speedup percentage. */
inline std::string
pct(double value)
{
    return strformat("%+.1f%%", value);
}

/** Format a bandwidth in MB/s. */
inline std::string
mbps(double value)
{
    return strformat("%.2f", value);
}

} // namespace ovlsim::bench

#endif // OVLSIM_BENCH_BENCH_COMMON_HH
