/**
 * @file
 * Micro benchmark of the four figures the campaign benchmark
 * (perfbench/) cannot price. Each row keeps the workload of an old
 * M-key, so figures stay comparable with BENCH_engine.json:
 *
 *   compile      (M2) sim::compileTrace of sweep3d-x8, ns per op
 *   net          (M5) sweep3d-x8 replayed on the 2:1 tapered radix-4
 *                fat tree at 4096 MB/s, ns per event
 *   net-degrade  (M7) net, whole fabric at bw 0.25 / lat 2.0 over
 *                the middle half of the run, ns per event
 *   net-ckpt     (M8) net under fail-stop faults with
 *                checkpoint/restart, ns per event
 *
 * Every row shares one loop: set the row up, run it once untimed,
 * then time whole compiles or replays for a fixed window and report
 * the mean cost per unit.
 *
 *   bench_micro          all four rows: a table, then one JSON line
 *   bench_micro ROW      one row: one JSON line
 *
 * scripts/ab_check.py gates each row on the median ratio of
 * alternating parent/change pairs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>

#include "bench/bench_common.hh"
#include "res/fault_model.hh"

using namespace ovlsim;
using namespace ovlsim::bench;

namespace {

/**
 * Timing window per row. ab_check.py compares one window of each
 * side at a time: 0.5 s windows alternated per row kept A/A median
 * pair ratios of identical binaries within 0.97-1.04 over 20-40
 * pairs on a 4-vCPU host, where 20 s between the two sides of a
 * pair let them drift to 0.88.
 */
constexpr double windowSeconds = 0.5;

/** What one compile or replay did. */
struct Work
{
    std::uint64_t units = 0;
    std::uint64_t restarts = 0;
};

/** A row, set up: one whole compile or replay per call. */
using Job = std::function<Work()>;

struct Row
{
    const char *name;
    const char *oldKey;
    const char *unit;
    Job (*setup)();
};

Job
compileJob()
{
    auto traces = std::make_shared<trace::TraceSet>(
        traceApp("sweep3d", 8).traces);
    return [traces] {
        return Work{sim::compileTrace(*traces).totalOps()};
    };
}

/** The net rows' replay; `nominal` is its scenario-free total time. */
struct NetReplay
{
    std::shared_ptr<const sim::ReplayProgram> program;
    std::shared_ptr<sim::ReplaySession> session;
    sim::PlatformConfig platform;
    SimTime nominal;

    Job
    job() const
    {
        return [r = *this] {
            const auto result = r.session->run(*r.program, r.platform);
            return Work{result.eventsProcessed, result.restarts};
        };
    }
};

NetReplay
netReplay()
{
    NetReplay r;
    r.program = sim::compileShared(traceApp("sweep3d", 8).traces);
    r.session = std::make_shared<sim::ReplaySession>();
    r.platform = sim::platforms::defaultCluster();
    r.platform.bandwidthMBps = 4096.0;
    r.platform.topology = net::topologies::taperedFatTree(4, 0.5);
    r.nominal = r.session->run(*r.program, r.platform).totalTime;
    return r;
}

Job
netDegradeJob()
{
    NetReplay r = netReplay();
    scen::ScenarioEvent degrade;
    degrade.time = SimTime::fromNs(r.nominal.ns() / 4);
    degrade.kind = scen::ScenEventKind::degrade;
    degrade.target = scen::ScenTarget::all;
    degrade.bandwidthFactor = 0.25;
    degrade.latencyFactor = 2.0;
    scen::ScenarioEvent recover;
    recover.time = SimTime::fromNs(3 * (r.nominal.ns() / 4));
    recover.kind = scen::ScenEventKind::recover;
    recover.target = scen::ScenTarget::all;
    r.platform.scenario.events = {degrade, recover};
    return r.job();
}

Job
netCkptJob()
{
    NetReplay r = netReplay();
    const double nominal_us = r.nominal.toUs();
    r.platform.checkpointIntervalUs = nominal_us / 5.0;
    r.platform.checkpointCostUs = nominal_us / 200.0;
    r.platform.restartCostUs = nominal_us / 50.0;
    // A per-node MTBF equal to the run length makes the machine
    // essentially certain to fail, so every replay pays rollbacks.
    // The faults hit the lower half of the machine (8 of sweep3d's
    // 16 nodes), as M8 always has, so the figure stays comparable.
    const int nodes = (r.program->ranks() + r.platform.cpusPerNode - 1) /
        r.platform.cpusPerNode;
    res::FaultModel model;
    for (int n = 0; n < nodes / 2; ++n) {
        res::FaultProcess proc;
        proc.target = scen::ScenTarget::node;
        proc.nodeA = n;
        proc.effect = res::FaultEffect::failStop;
        proc.mtbfUs = nominal_us;
        model.processes.push_back(proc);
    }
    r.platform.scenario = res::generateScenario(model, 1, r.nominal * 4);
    Job job = r.job();
    if (job().restarts == 0)
        std::abort(); // the rollback path must be on the clock
    return job;
}

constexpr Row rows[] = {
    {"compile", "M2", "op", compileJob},
    {"net", "M5", "event", [] { return netReplay().job(); }},
    {"net-degrade", "M7", "event", netDegradeJob},
    {"net-ckpt", "M8", "event", netCkptJob},
};

struct Figure
{
    const Row *row;
    Work perRun;
    std::uint64_t runs = 0;
    double nsPerUnit = 0.0;
};

Figure
measure(const Row &row)
{
    const Job job = row.setup();
    Figure f{&row, job()};
    std::uint64_t units = 0;
    double elapsed = 0.0;
    const auto start = std::chrono::steady_clock::now();
    do {
        units += job().units;
        ++f.runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    } while (elapsed < windowSeconds);
    f.nsPerUnit = elapsed * 1e9 / static_cast<double>(units);
    return f;
}

std::string
toJson(const Figure &f)
{
    return strformat(
        "{\"row\": \"%s\", \"old_key\": \"%s\", \"unit\": \"%s\", "
        "\"ns_per_unit\": %.3f, \"units_per_run\": %llu, "
        "\"restarts_per_run\": %llu, \"runs\": %llu}",
        f.row->name, f.row->oldKey, f.row->unit, f.nsPerUnit,
        static_cast<unsigned long long>(f.perRun.units),
        static_cast<unsigned long long>(f.perRun.restarts),
        static_cast<unsigned long long>(f.runs));
}

int
toolMain(int argc, char **argv)
{
    if (argc == 2) {
        for (const Row &row : rows) {
            if (argv[1] == std::string(row.name)) {
                std::printf("%s\n", toJson(measure(row)).c_str());
                return 0;
            }
        }
    }
    if (argc > 1) {
        std::fprintf(stderr, "usage: bench_micro [ROW]\nrows:");
        for (const Row &row : rows)
            std::fprintf(stderr, " %s", row.name);
        std::fprintf(stderr, "\n");
        return 2;
    }

    std::printf("%-12s %-4s %12s %-9s %10s %8s %6s\n", "row", "old",
                "ns/unit", "unit", "units/run", "restarts", "runs");
    std::string json;
    for (const Row &row : rows) {
        const Figure f = measure(row);
        std::printf("%-12s %-4s %12.2f %-9s %10llu %8llu %6llu\n",
                    row.name, row.oldKey, f.nsPerUnit, row.unit,
                    static_cast<unsigned long long>(f.perRun.units),
                    static_cast<unsigned long long>(f.perRun.restarts),
                    static_cast<unsigned long long>(f.runs));
        json += (json.empty() ? "[" : ", ") + toJson(f);
    }
    std::printf("%s]\n", json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runMain(toolMain, argc, argv);
}
