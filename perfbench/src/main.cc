/**
 * @file
 * Campaign benchmark driver.
 *
 *   campaign_bench --workload paper-r1|gen-scale|faults-ckpt
 *                  [--seed 1] [--seconds 24] [--trace 0|1]
 *                  [--reference-dir perfbench/reference]
 *                  [--spans-out FILE] [--write-reference]
 *
 * --trace 0 (end to end): splits the --seconds window over fresh
 * child processes of this binary, one after another. Each child
 * times the set-up several times, then runs closed-loop campaigns
 * through the public drivers, one in flight at a time on a pool of
 * two lanes, until its slice has passed; its first campaign is a
 * cold one. The parent pools the samples.
 * --trace 1: one process runs the set-up and campaigns as explicit
 * per-layer calls under spans, alternating with untraced campaigns,
 * reports per-layer figures, and writes the spans of the median
 * traced campaign to --spans-out once it has finished. Either way every campaign point's
 * simulated outputs are checked against the checked-in reference
 * (or, for a seed without one, against the process's first
 * campaign), and the last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.hh"
#include "campaigns.hh"
#include "obs/stats.hh"
#include "traced.hh"
#include "util/strings.hh"

extern char **environ;

namespace {

using namespace perfbench;
using ovlsim::strformat;

/** Campaign pool width: two of the host's four cores, leaving
 * headroom on a shared machine. */
constexpr int kLanes = 2;
/** Set-ups timed per end-to-end process. */
constexpr int kSetupRepeats = 10;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 24.0;
    bool trace = false;
    std::string referenceDir = "perfbench/reference";
    /** Traced runs: Chrome trace-event file for the spans. */
    std::string spansOut;
    bool writeReference = false;
    /** Internal: run one end-to-end slice in this process. */
    bool child = false;
    /** Internal: compute paper_err_pp in this slice. */
    bool paperError = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "campaign_bench: %s\nusage: campaign_bench --workload "
                 "paper-r1|gen-scale|faults-ckpt [--seed N] [--seconds S] "
                 "[--trace 0|1] [--reference-dir DIR] [--spans-out FILE] "
                 "[--write-reference]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--write-reference") {
            args.writeReference = true;
            continue;
        }
        if (key == "--child") {
            args.child = true;
            continue;
        }
        if (key == "--paper-error") {
            args.paperError = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        try {
            if (key == "--workload")
                args.workload = value;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (key == "--reference-dir")
                args.referenceDir = value;
            else if (key == "--spans-out")
                args.spansOut = value;
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + key).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (args.seconds <= 0.0)
        usage("--seconds must be positive");
    return args;
}

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------ reference

/** Per-point digests a campaign must reproduce. */
struct Reference
{
    std::vector<std::pair<std::string, std::string>> points;
    std::string simDigest;
    /** Loaded from the checked-in file (else taken from the run). */
    bool checkedIn = false;

    static Reference
    of(const Records &records)
    {
        Reference ref;
        for (const auto &record : records)
            ref.points.emplace_back(record.label, record.digest());
        ref.simDigest = perfbench::simDigest(records);
        return ref;
    }

    /** Points of `records` whose outputs differ (a point missing on
     * either side counts as differing). */
    std::size_t
    mismatches(const Records &records) const
    {
        std::size_t bad = records.size() > points.size()
            ? records.size() - points.size()
            : 0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (i >= records.size() || records[i].label != points[i].first ||
                records[i].digest() != points[i].second)
                ++bad;
        }
        return bad;
    }
};

std::string
referencePath(const Args &args, const Workload &workload)
{
    std::string path = args.referenceDir + "/" + workload.name();
    if (workload.seedSensitive())
        path += "-seed" + std::to_string(args.seed);
    return path + ".txt";
}

std::optional<Reference>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    Reference ref;
    ref.checkedIn = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label;
        std::string digest;
        fields >> label >> digest;
        if (label == "sim_digest")
            ref.simDigest = digest;
        else
            ref.points.emplace_back(label, digest);
    }
    return ref;
}

bool
writeReferenceFile(const std::string &path, const Workload &workload,
                   std::uint64_t seed, const Records &records)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "# campaign_bench reference: " << workload.name();
    if (workload.seedSensitive())
        out << " seed " << seed;
    out << "\n# point-label fnv1a-of-simulated-outputs\n";
    for (const auto &record : records)
        out << record.label << ' ' << record.digest() << '\n';
    out << "sim_digest " << simDigest(records) << '\n';
    return static_cast<bool>(out);
}

// --------------------------------------------------------------- output

struct MetricInfo
{
    const char *name;
    const char *unit;
    /** What an end-to-end figure means; for a per-layer figure, the
     * end-to-end metric and workload it should move. */
    const char *about;
};

const std::vector<MetricInfo> &
endToEndMetrics()
{
    static const std::vector<MetricInfo> metrics{
        {"points_per_s", "1/s", "campaign points retired per host second"},
        {"cold_campaign_s", "s", "first campaign in a fresh process"},
        {"setup_s", "s", "building the inputs before the first campaign"},
        {"peak_rss_mb", "MB", "peak host RSS of this process"},
        {"match_frac", "frac",
         "share of campaign points matching the reference"},
        {"paper_err_pp", "pp",
         "mean |simulated - paper| R2 ideal speedup over six apps"},
    };
    return metrics;
}

const std::vector<MetricInfo> &
perLayerMetrics()
{
    static const char *const kRates = "points_per_s on all three";
    static const std::vector<MetricInfo> metrics{
        {"tracer.s", "s", "setup_s on paper-r1, faults-ckpt"},
        {"tracer.records", "count", "setup_s on paper-r1, faults-ckpt"},
        {"gen.s", "s", "points_per_s on gen-scale"},
        {"gen.records", "count", "points_per_s on gen-scale"},
        {"transform.s", "s", "points_per_s, cold_campaign_s on paper-r1"},
        {"transform.records_out", "count",
         "points_per_s, cold_campaign_s on paper-r1"},
        {"transform.ns_per_record_out", "ns",
         "points_per_s, cold_campaign_s on paper-r1"},
        {"compile.s", "s", "points_per_s, cold_campaign_s on paper-r1"},
        {"compile.ops", "count",
         "points_per_s, cold_campaign_s on paper-r1"},
        {"compile.ns_per_op", "ns",
         "points_per_s, cold_campaign_s on paper-r1"},
        {"engine.replay_s", "s", kRates},
        {"engine.events", "count", kRates},
        {"engine.ns_per_event", "ns", kRates},
        {"engine.heap_pushes", "count", kRates},
        {"engine.channel_probes", "count", kRates},
        {"engine.arena_high_water", "count",
         "points_per_s on all three; peak_rss_mb on gen-scale"},
        {"bus.queue_ratio", "ratio",
         "points_per_s on paper-r1; no move on gen-scale"},
        {"net.rate_recomputes", "count",
         "points_per_s on gen-scale; no move on paper-r1, faults-ckpt"},
        {"net.recomputes_skipped", "count",
         "points_per_s on gen-scale; no move on paper-r1, faults-ckpt"},
        {"net.visits_per_event", "count",
         "points_per_s on gen-scale; no move on paper-r1, faults-ckpt"},
        {"net.useful_recompute_frac", "frac",
         "points_per_s on gen-scale; no move on paper-r1, faults-ckpt"},
        {"net.ns_per_event.r64", "ns", "points_per_s on gen-scale"},
        {"net.ns_per_event.r1024", "ns", "points_per_s on gen-scale"},
        {"net.scale_ratio", "ratio", "points_per_s on gen-scale"},
        {"net.topo_cache_hit_rate", "frac", "points_per_s on gen-scale"},
        {"coll.steps", "count", "points_per_s on gen-scale"},
        {"coll.sched_cache_hit_rate", "frac", "points_per_s on gen-scale"},
        {"scen.events", "count",
         "points_per_s on faults-ckpt; no move on paper-r1"},
        {"res.generate_s", "s",
         "points_per_s on faults-ckpt; no move on paper-r1"},
        {"res.checkpoints", "count", "points_per_s on faults-ckpt"},
        {"res.restarts", "count", "points_per_s on faults-ckpt"},
        {"res.rework_sim_s", "s", "points_per_s on faults-ckpt (simulated)"},
        {"res.fault_scale_ratio", "ratio", "points_per_s on faults-ckpt"},
        {"pool.busy_s", "s", "points_per_s on gen-scale, paper-r1"},
        {"pool.idle_frac", "frac", "points_per_s on gen-scale, paper-r1"},
        {"pool.efficiency", "frac", "points_per_s on gen-scale, paper-r1"},
        {"obs.trace_overhead_frac", "frac",
         "cost of the traced run over the untraced campaign"},
        {"mismatch_frac", "frac", "match_frac on the same workload"},
        {"trace.self_time_err", "frac",
         "span-tree consistency: |sum of self times - lanes x wall|"},
    };
    return metrics;
}

double
lookup(const Metrics &metrics, const std::string &name)
{
    for (const auto &[key, value] : metrics) {
        if (key == name)
            return value;
    }
    return 0.0;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<MetricInfo> &infos, const Metrics &metrics)
{
    for (const auto &info : infos)
        std::printf("  %-28s %14.6g %-6s  => %s\n", info.name,
                    lookup(metrics, info.name), info.unit, info.about);
    std::string json = std::string("{\"correct\": ") +
        (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < infos.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      lookup(metrics, infos[i].name));
        json += std::string(i == 0 ? "" : ", ") + "\"" + infos[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            infos[i].unit + "\"}";
    }
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** A campaign's outcome against the reference. */
struct Outcome
{
    double wallS = 0.0;
    std::size_t failed = 0;
    Records records;
};

/** Run one campaign through `run`, time it and check its points.
 * A throwing campaign fails every point. */
template <typename Run>
Outcome
checked(Workload &workload, std::optional<Reference> &reference, Run run)
{
    Outcome outcome;
    const double start = nowS();
    try {
        outcome.records = run();
    } catch (const std::exception &err) {
        std::fprintf(stderr, "campaign threw: %s\n", err.what());
        outcome.wallS = nowS() - start;
        outcome.failed = workload.points();
        return outcome;
    }
    outcome.wallS = nowS() - start;
    if (!reference)
        reference = Reference::of(outcome.records);
    outcome.failed = reference->mismatches(outcome.records);
    return outcome;
}

void
printReferenceStatus(std::FILE *out, const Reference &reference,
                     const Records &last, const std::string &path,
                     std::uint64_t seed)
{
    std::fprintf(out, "sim_digest %s (seed %llu; reference %s: %s)\n",
                simDigest(last).c_str(),
                static_cast<unsigned long long>(seed),
                reference.checkedIn ? path.c_str() : "none",
                reference.checkedIn ? reference.simDigest.c_str()
                                    : "first campaign of this run");
}

/** Median, quartiles and sample count; for times (`tail`) also the
 * highest percentile with at least ten samples beyond it. */
void
printSpread(const char *what, const std::vector<double> &values,
            const char *unit, bool tail = true)
{
    const Quartiles q = quartiles(values);
    std::printf("%s: median %.6g %s, quartiles [%.6g, %.6g], n=%zu",
                what, q.q2, unit, q.q1, q.q3, values.size());
    const auto point = tail ? highestTail(values) : std::nullopt;
    if (point)
        std::printf(", p%g %.6g", point->percentile, point->value);
    else if (tail)
        std::printf(", no tail percentile (< 10 samples beyond p50)");
    std::printf("\n");
}

// ------------------------------------------------------------- the runs

/**
 * One end-to-end slice, run in a child process: time the set-up
 * kSetupRepeats times, then run campaigns (the first one cold)
 * until --seconds have passed, and print the raw samples as
 * "child KEY VALUE..." lines on stdout for the parent to pool. The
 * human-readable report goes to stderr.
 */
int
runChild(const Args &args, Workload &workload)
{
    std::vector<double> setupS;
    for (int r = 0; r < kSetupRepeats; ++r) {
        const double start = nowS();
        workload.setup(nullptr);
        setupS.push_back(nowS() - start);
    }

    const std::string path = referencePath(args, workload);
    std::optional<Reference> reference = loadReference(path);
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<double> walls;
    Records last;
    double rss = 0.0;
    const double start = nowS();
    do {
        Outcome outcome = checked(workload, reference, [&] {
            return workload.campaign(kLanes);
        });
        attempted += workload.points();
        failed += outcome.failed;
        walls.push_back(outcome.wallS);
        last = std::move(outcome.records);
        // The heap creeps by a few MB per campaign, so the peak is
        // read after a fixed count (the cold and one warm campaign),
        // not after however many the slice happened to fit.
        if (walls.size() == 2)
            rss = peakRssMb();
    } while (nowS() - start < args.seconds || walls.size() < 2);

    if (args.writeReference) {
        if (!writeReferenceFile(path, workload, args.seed, last)) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    }
    printReferenceStatus(stderr, *reference, last, path, args.seed);

    const bool digestOk = !reference->checkedIn ||
        simDigest(last) == reference->simDigest;
    auto list = [](const char *key, const std::vector<double> &values) {
        std::printf("child %s", key);
        for (const double v : values)
            std::printf(" %.17g", v);
        std::printf("\n");
    };
    list("setup_s", setupS);
    list("campaign_s", walls);
    list("rss_mb", {rss});
    if (args.paperError)
        list("paper_err_pp", {paperErrorPp()});
    std::printf("child points %zu\nchild attempted %zu\nchild failed %zu\n"
                "child correct %d\nchild sim_digest %s\n",
                workload.points(), attempted, failed, failed == 0 && digestOk ? 1 : 0,
                simDigest(last).c_str());
    return 0;
}

/** Run `argv` as a child process and return its stdout; false if it
 * could not start or did not exit with 0. Waits for the child. */
bool
runProcess(const std::vector<std::string> &argv, std::string &out)
{
    int fds[2] = {-1, -1};
    if (pipe(fds) != 0)
        return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char *> cargv;
    for (const auto &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, cargv[0], &actions, nullptr,
                                    cargv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (spawned != 0) {
        close(fds[0]);
        return false;
    }
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0 ||
           (n < 0 && errno == EINTR)) {
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * End-to-end run: fresh child processes, one after another, each
 * measuring an equal slice of --seconds. Every child's first
 * campaign is a cold one, so cold_campaign_s is a median over
 * processes; the warm campaigns and set-up repeats are pooled. Short
 * campaigns (paper-r1 and faults-ckpt, ~1.3 s on two lanes) split
 * the window six ways; gen-scale's ~7 s campaigns afford two slices
 * of a cold and a warm campaign. A slice always holds two campaigns,
 * so more gen-scale slices would stretch the run past its window.
 */
int
runEndToEnd(const Args &args, const char *self, Workload &workload)
{
    const int processes = workload.name() == "gen-scale" ? 2 : 6;
    double points = 0.0;
    std::vector<double> setupS;
    std::vector<double> coldS;
    std::vector<double> warmS;
    std::vector<double> rssMb;
    double paperErr = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    std::vector<std::string> digests;
    for (int p = 0; p < processes; ++p) {
        std::vector<std::string> argv{
            self, "--child", "--workload", args.workload, "--seed",
            std::to_string(args.seed), "--seconds",
            strformat("%.17g", args.seconds / processes),
            "--reference-dir", args.referenceDir};
        if (p == 0)
            argv.push_back("--paper-error");
        std::string out;
        if (!runProcess(argv, out)) {
            std::fprintf(stderr, "child process %d failed\n", p);
            return 1;
        }
        std::istringstream lines(out);
        std::string line;
        while (std::getline(lines, line)) {
            std::istringstream fields(line);
            std::string tag;
            std::string key;
            fields >> tag >> key;
            if (tag != "child")
                continue;
            if (key == "sim_digest") {
                std::string digest;
                fields >> digest;
                digests.push_back(digest);
                continue;
            }
            std::vector<double> values;
            for (double v = 0.0; fields >> v;)
                values.push_back(v);
            if (values.empty())
                continue;
            if (key == "setup_s")
                setupS.insert(setupS.end(), values.begin(), values.end());
            else if (key == "campaign_s") {
                coldS.push_back(values.front());
                warmS.insert(warmS.end(), values.begin() + 1, values.end());
            } else if (key == "rss_mb")
                rssMb.push_back(values.front());
            else if (key == "points")
                points = values.front();
            else if (key == "paper_err_pp")
                paperErr = values.front();
            else if (key == "attempted")
                attempted += static_cast<std::size_t>(values.front());
            else if (key == "failed")
                failed += static_cast<std::size_t>(values.front());
            else if (key == "correct")
                correct = correct && values.front() != 0.0;
        }
    }
    if (coldS.size() != static_cast<std::size_t>(processes) ||
        digests.size() != coldS.size() || attempted == 0) {
        std::fprintf(stderr, "incomplete output from the child processes\n");
        return 1;
    }
    // Every process must reproduce the same campaign.
    for (const auto &digest : digests)
        correct = correct && digest == digests.front();

    std::vector<double> rates;
    for (const double w : warmS)
        rates.push_back(points / w);
    std::printf("workload %s: %g points per campaign; %d processes, %zu "
                "warm campaigns on %d lanes (closed loop, one in flight)\n",
                workload.name().c_str(), points, processes,
                warmS.size(), kLanes);
    printSpread("points_per_s (warm campaigns)", rates, "1/s", false);
    printSpread("warm campaign wall", warmS, "s");
    printSpread("cold campaign wall", coldS, "s");
    printSpread("setup", setupS, "s");
    std::printf("sim_digest %s\n", digests.front().c_str());

    Metrics metrics;
    setMetric(metrics, "points_per_s", median(rates));
    setMetric(metrics, "cold_campaign_s", median(coldS));
    setMetric(metrics, "setup_s", median(setupS));
    setMetric(metrics, "peak_rss_mb", median(rssMb));
    setMetric(metrics, "match_frac",
              1.0 - static_cast<double>(failed) /
                      static_cast<double>(attempted));
    setMetric(metrics, "paper_err_pp", paperErr);
    printResult(correct && failed == 0, attempted, failed,
                endToEndMetrics(), metrics);
    return 0;
}

int
runTraced(const Args &args, Workload &workload)
{
    Tracer setupTracer(1);
    workload.setup(&setupTracer);
    setupTracer.finish();

    const std::string path = referencePath(args, workload);
    std::optional<Reference> reference = loadReference(path);
    std::size_t attempted = 0;
    std::size_t failed = 0;
    auto untraced = [&] {
        Outcome outcome = checked(workload, reference, [&] {
            return workload.campaign(kLanes);
        });
        attempted += workload.points();
        failed += outcome.failed;
        return outcome.wallS;
    };

    // The first campaign warms the process (and is the reference for
    // a seed without a checked-in one); then traced and untraced
    // campaigns alternate.
    untraced();
    struct TracedCampaign
    {
        std::unique_ptr<Tracer> tracer;
        std::vector<obs::CacheReportRow> cacheDelta;
        Records records;
    };
    std::vector<TracedCampaign> traced;
    std::vector<double> tracedWalls;
    std::vector<double> untracedWalls;
    const double start = nowS();
    do {
        TracedCampaign run;
        run.tracer = std::make_unique<Tracer>(kLanes);
        const auto before = obs::cacheReport();
        Outcome outcome = checked(workload, reference, [&] {
            return workload.tracedCampaign(kLanes, *run.tracer);
        });
        run.tracer->finish();
        run.cacheDelta = obs::cacheReport();
        for (std::size_t i = 0; i < before.size(); ++i) {
            run.cacheDelta[i].hits -= before[i].hits;
            run.cacheDelta[i].misses -= before[i].misses;
        }
        attempted += workload.points();
        failed += outcome.failed;
        tracedWalls.push_back(
            static_cast<double>(run.tracer->wallNs()) * 1e-9);
        run.records = std::move(outcome.records);
        traced.push_back(std::move(run));
        untracedWalls.push_back(untraced());
    } while (nowS() - start < args.seconds);

    // Figures of the traced campaign with the median wall time.
    std::vector<std::size_t> order(traced.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return tracedWalls[a] < tracedWalls[b];
    });
    const TracedCampaign &pick = traced[order[(order.size() - 1) / 2]];
    Metrics metrics =
        layerMetrics(setupTracer, *pick.tracer, pick.cacheDelta);
    workload.probes(*pick.tracer, metrics);
    setMetric(metrics, "obs.trace_overhead_frac",
              median(tracedWalls) / median(untracedWalls) - 1.0);
    setMetric(metrics, "mismatch_frac",
              static_cast<double>(failed) / static_cast<double>(attempted));
    double selfErr = 0.0;
    for (const auto &run : traced)
        selfErr = std::max(selfErr, selfTimeError(*run.tracer));
    setMetric(metrics, "trace.self_time_err", selfErr);

    std::printf("workload %s traced: %zu traced + %zu untraced campaigns "
                "on %d lanes, %zu spans in the median one\n",
                workload.name().c_str(), traced.size(),
                untracedWalls.size() + 1, kLanes,
                pick.tracer->merged().size());
    printSpread("traced campaign wall", tracedWalls, "s");
    printSpread("untraced campaign wall", untracedWalls, "s");
    printReferenceStatus(stdout, *reference, traced.back().records, path,
                         args.seed);
    if (!args.spansOut.empty()) {
        if (!writeSpans(*pick.tracer, args.spansOut)) {
            std::fprintf(stderr, "cannot write %s\n", args.spansOut.c_str());
            return 1;
        }
        std::printf("spans written to %s\n", args.spansOut.c_str());
    }

    const bool digestOk = !reference->checkedIn ||
        simDigest(traced.back().records) == reference->simDigest;
    // Self times must add up to lanes x wall within 3%, or the spans
    // do not nest and the per-layer split cannot be trusted.
    printResult(failed == 0 && digestOk && selfErr < 0.03, attempted, failed,
                perLayerMetrics(), metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    auto workload = makeWorkload(args.workload, args.seed);
    if (workload == nullptr)
        usage(("unknown workload " + args.workload).c_str());
    try {
        if (args.trace)
            return runTraced(args, *workload);
        // --write-reference records one in-process campaign.
        if (args.child || args.writeReference)
            return runChild(args, *workload);
        return runEndToEnd(args, argv[0], *workload);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "campaign_bench: %s\n", err.what());
        return 1;
    }
}
