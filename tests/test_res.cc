/**
 * @file
 * Resilience engine: the counter-based RNG, stochastic fault
 * models, the checkpoint/restart cost model and the failure-rate
 * campaign driver.
 *
 * Key contracts pinned here:
 *  - CounterRng draw N is a pure hash of (key, stream, N): random
 *    access equals sequential draws and substreams are independent
 *    of caller order,
 *  - generateScenario is a pure function of (model, seed, horizon)
 *    and fail-stop processes emit every renewal up to the horizon;
 *    an availability trace expands to a pinned event list, its
 *    reader names the file and line of every malformed line (a
 *    repeated PERIODICITY included), and a model's `trace` process
 *    resolves next to the model file and round-trips,
 *  - closed-form restart accounting: with interval I, cost C and
 *    restart cost R, one fail-stop at t costs exactly the work
 *    since the last checkpoint plus R on top of the failure-free
 *    checkpointed time (132 us and 142 us pins below, worked out
 *    by hand on the integer clock); two-level checkpointing
 *    restores machine-wide failures from the global slot at the
 *    global cost (125/137/156 us pins) and a flow finishing after
 *    a restart pays exactly the re-applied degraded capacity,
 *  - every PR-7 mode restriction is lifted: timeline capture,
 *    algorithmic collectives and non-fail-stop scenario events all
 *    replay to completion under a positive checkpoint interval,
 *    with rollback splicing first-class restart intervals into the
 *    captured timeline; only an interval that rounds to zero
 *    simulated time remains fatal,
 *  - a zero checkpoint interval keeps PR-6 fail-stop semantics
 *    (FailureError) and leaves failure-free replays bit-identical,
 *  - checkpointed replays with in-flight routed transfers roll
 *    back, conserve link occupancy (engine-internal assert) and
 *    stay bit-identical across runs; a seeded fuzz harness pits
 *    checkpointing against random fault streams and asserts the
 *    same, 200 streams deep, each round's time, end-time hash
 *    and counters pinned,
 *  - the everything-on combination pins time, events, checkpoint
 *    counts, end-time hash, all 14 EngineStats counters and a
 *    digest of the captured timeline on the tapered fat tree and
 *    the flat bus, and one session replaying
 *    routed, flat, routed meets the fresh-session pins each time,
 *  - a platform that fails faster than it recovers exhausts the
 *    (platform-keyed) restart_budget and surfaces as a
 *    FailureError naming the budget, not a hang,
 *  - resilienceSweep grids are bit-identical across thread counts
 *    and report dead runs as data (failedFraction plus a
 *    structured FailureDiagnosis per dead seed), never throws;
 *    protocolSweep's swept optimal interval lands within one grid
 *    step of res::dalyInterval's analytic prediction,
 *  - FailureError propagates through bandwidthSweep without
 *    wedging the thread pool, also when only the slow points of a
 *    grid fail and the fast ones finish first.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hh"
#include "helpers.hh"
#include "net/topology.hh"
#include "obs/stats.hh"
#include "res/fault_model.hh"
#include "scen/scenario.hh"
#include "sim/engine.hh"
#include "sim/platform_file.hh"
#include "sim/timeline.hh"
#include "util/counter_rng.hh"
#include "viz/ascii_gantt.hh"

namespace ovlsim {
namespace {

using scen::FailSemantics;
using scen::ScenarioEvent;
using scen::ScenEventKind;
using scen::ScenTarget;
using testing::expectIdentical;

/** One rank computing a single `instr` burst (100'000 instructions
 * at the tracer's default 1000 MIPS = exactly 100 us). */
tracer::TraceBundle
singleBurst(Instr instr)
{
    return testing::traceOf(
        1, [instr](vm::VmContext &ctx) { ctx.compute(instr); });
}

/** Default cluster with the checkpoint/restart cost model set. */
sim::PlatformConfig
ckptPlatform(double interval_us, double cost_us, double restart_us)
{
    auto platform = sim::platforms::defaultCluster();
    platform.checkpointIntervalUs = interval_us;
    platform.checkpointCostUs = cost_us;
    platform.restartCostUs = restart_us;
    return platform;
}

ScenarioEvent
nodeFail(double us, int node)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::fail;
    ev.target = ScenTarget::node;
    ev.nodeA = node;
    ev.semantics = FailSemantics::failStop;
    return ev;
}

// ---------------------------------------------------------------
// Counter-based RNG.
// ---------------------------------------------------------------

TEST(CounterRngTest, RandomAccessMatchesSequentialDraws)
{
    CounterRng rng(42, 7);
    const CounterRng probe(42, 7);
    for (std::uint64_t n = 0; n < 64; ++n)
        EXPECT_EQ(rng.next(), probe.at(n)) << "draw " << n;

    // A fresh instance with the same address replays the sequence.
    CounterRng again(42, 7);
    EXPECT_EQ(again.next(), probe.at(0));
}

TEST(CounterRngTest, StreamsAndSubstreamsAreIndependentOfOrder)
{
    // Drawing from one stream never disturbs another, so the values
    // a consumer sees cannot depend on which lane expanded first.
    CounterRng a(1, 0);
    CounterRng b(1, 1);
    const std::uint64_t b0 = CounterRng(1, 1).at(0);
    for (int i = 0; i < 10; ++i)
        a.next();
    EXPECT_EQ(b.next(), b0);

    // substream() is a pure derivation and distinct from the parent.
    const CounterRng parent(9, 3);
    EXPECT_EQ(parent.substream(5).at(0), parent.substream(5).at(0));
    EXPECT_NE(parent.substream(5).at(0), parent.substream(6).at(0));
    EXPECT_NE(parent.substream(5).at(0), parent.at(0));
}

TEST(CounterRngTest, ExponentialDrawsArePositiveWithTheRightMean)
{
    CounterRng rng(2026, 0);
    const double mean = 500.0;
    double sum = 0.0;
    const int draws = 1 << 14;
    for (int i = 0; i < draws; ++i) {
        const double x = rng.nextExponential(mean);
        ASSERT_GT(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / draws, mean, mean * 0.05);
}

// ---------------------------------------------------------------
// Stochastic fault models.
// ---------------------------------------------------------------

res::FaultModel
mixedModel()
{
    res::FaultModel model;
    res::FaultProcess node_fail;
    node_fail.target = ScenTarget::node;
    node_fail.nodeA = 0;
    node_fail.effect = res::FaultEffect::failStop;
    node_fail.mtbfUs = 400.0;
    model.processes.push_back(node_fail);

    res::FaultProcess link_degrade;
    link_degrade.target = ScenTarget::link;
    link_degrade.nodeA = 1;
    link_degrade.nodeB = 2;
    link_degrade.effect = res::FaultEffect::degrade;
    link_degrade.degradeFactor = 0.25;
    link_degrade.mtbfUs = 300.0;
    link_degrade.mttrUs = 50.0;
    model.processes.push_back(link_degrade);
    return model;
}

TEST(FaultModelTest, GenerateScenarioIsAPureFunction)
{
    const auto model = mixedModel();
    const SimTime horizon = SimTime::fromUs(5000.0);
    const auto a = res::generateScenario(model, 11, horizon);
    const auto b = res::generateScenario(model, 11, horizon);
    EXPECT_TRUE(a.events == b.events);
    ASSERT_FALSE(a.events.empty());

    const auto other = res::generateScenario(model, 12, horizon);
    EXPECT_FALSE(a.events == other.events);
}

TEST(FaultModelTest, FailStopProcessesEmitEveryRenewalUpToTheHorizon)
{
    // Under checkpoint/restart every renewal is its own rollback,
    // so the expansion keeps the whole stream (without
    // checkpointing only the first event matters — it terminates
    // the replay before the rest can fire).
    res::FaultModel model;
    res::FaultProcess proc;
    proc.target = ScenTarget::node;
    proc.nodeA = 3;
    proc.effect = res::FaultEffect::failStop;
    proc.mtbfUs = 100.0; // Dozens of renewals fit the horizon.
    model.processes.push_back(proc);

    const SimTime horizon = SimTime::fromUs(10000.0);
    const auto config = res::generateScenario(model, 5, horizon);
    ASSERT_GT(config.events.size(), 10u);
    SimTime prev;
    for (const auto &ev : config.events) {
        EXPECT_EQ(ev.kind, ScenEventKind::fail);
        EXPECT_EQ(ev.semantics, FailSemantics::failStop);
        EXPECT_EQ(ev.nodeA, 3);
        EXPECT_LT(ev.time.ns(), horizon.ns());
        EXPECT_GT(ev.time.ns(), prev.ns());
        prev = ev.time;
    }
}

TEST(FaultModelTest, ModelFileRoundTrips)
{
    // Seeds span the whole unsigned 64-bit range, 2^63 and up too.
    for (const std::uint64_t seed :
         {std::uint64_t{77}, std::uint64_t{1} << 63,
          ~std::uint64_t{0}}) {
        SCOPED_TRACE(seed);
        auto model = mixedModel();
        model.seed = seed;
        model.horizonUs = 12345.0;

        std::ostringstream out;
        res::writeFaultModel(model, out);
        std::istringstream in(out.str());
        const auto parsed = res::readFaultModel(in);
        EXPECT_TRUE(parsed == model);
    }
}

TEST(FaultModelTest, ReaderRejectsMalformedLinesNamingSourceAndLine)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        std::istringstream in(text);
        try {
            res::readFaultModel(in, "test.faults");
            ADD_FAILURE() << "expected a parse error for: " << text;
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(needle),
                      std::string::npos)
                << err.what();
        }
    };
    // 64-bit node ids must not wrap into small valid ones.
    expectError("process node 4294967299 fail-stop mtbf_us 100\n",
                "test.faults line 1");
    expectError("seed = 1\n"
                "process link 0 4294967297 fail-stop mtbf_us 100\n",
                "test.faults line 2");
    expectError("process node 0 explode mtbf_us 100\n",
                "test.faults line 1");
    expectError("process node x fail-stop mtbf_us 100\n",
                "test.faults line 1");
    // A repeated key is a typo, not last-one-wins.
    expectError("seed = 1\nseed = 2\n",
                "test.faults line 2: duplicate key 'seed' (first set "
                "on line 1)");
    expectError("horizon_us = 5\n\nhorizon_us = 7\n",
                "test.faults line 3: duplicate key 'horizon_us' "
                "(first set on line 1)");
    expectError("process node 0 fail-stop mtbf_us 100 mtbf_us 200\n",
                "test.faults line 1: duplicate process key 'mtbf_us'");
    expectError("process node 0 stall mttr_us 5 mtbf_us 100 "
                "mttr_us 6\n",
                "test.faults line 1: duplicate process key 'mttr_us'");
    // Seeds are unsigned: no sign, nothing past 2^64 - 1.
    expectError("seed = -1\n", "test.faults line 1: negative value '-1'");
    expectError("seed = 18446744073709551616\n", "test.faults line 1");
    expectError("seed = +7\n", "test.faults line 1");
}

TEST(FaultModelTest, MachineWideProcessesAreFailStopOnlyAndRoundTrip)
{
    // `process all` is the machine-wide crash the global level of
    // two-level checkpointing recovers from.
    std::istringstream text("process all fail-stop mtbf_us 50000\n");
    auto model = res::readFaultModel(text);
    ASSERT_EQ(model.processes.size(), 1u);
    EXPECT_EQ(model.processes[0].target, ScenTarget::all);
    EXPECT_EQ(model.processes[0].effect, res::FaultEffect::failStop);
    EXPECT_EQ(model.processes[0].mtbfUs, 50000.0);

    std::ostringstream out;
    res::writeFaultModel(model, out);
    std::istringstream in(out.str());
    EXPECT_TRUE(res::readFaultModel(in) == model);

    const auto config =
        res::generateScenario(model, 3, SimTime::fromUs(200000.0));
    ASSERT_FALSE(config.events.empty());
    EXPECT_EQ(config.events[0].target, ScenTarget::all);
    EXPECT_EQ(config.events[0].semantics, FailSemantics::failStop);

    // There is no machine-wide repair: stall/degrade (and traces)
    // on `all` are nonsense and must say so.
    auto bad = model;
    bad.processes[0].effect = res::FaultEffect::stall;
    bad.processes[0].mttrUs = 10.0;
    EXPECT_THROW(bad.validate(), FatalError);

    // A horizon past the nanosecond clock is refused by its key
    // before it is converted.
    auto far = model;
    far.horizonUs = 1e300;
    try {
        res::generateScenario(far);
        ADD_FAILURE() << "expected horizon_us = 1e300 to be fatal";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("horizon_us"),
                  std::string::npos)
            << err.what();
    }
}

/** The message of the FatalError reading `text` as availability
 * trace `t.trace` raises; empty if it parses. */
std::string
availabilityTraceError(const std::string &text)
{
    std::istringstream in(text);
    double period = 0.0;
    try {
        res::readAvailabilityTrace(in, "t.trace", period);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

TEST(FaultModelTest, AvailabilityTraceErrorsNameSourceAndLine)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        const std::string what = availabilityTraceError(text);
        EXPECT_NE(what.find(needle), std::string::npos)
            << "for: " << text << "got: " << what;
    };
    expectError("0 1.0\nPERIODICITY 1000\n",
                "t.trace line 1: availability trace must start with "
                "`PERIODICITY <us>`");
    expectError("PERIODICITY\n", "t.trace line 1: expected "
                                 "`PERIODICITY <us>`");
    expectError("PERIODICITY 1000\n0 1.0\n500 0.5 7\n",
                "t.trace line 3: expected `<time_us> <value>`");
    expectError("# comment\nPERIODICITY 1000\n\n0 up\n",
                "t.trace line 4");
    expectError("PERIODICITY often\n0 1.0\n", "t.trace line 1");
    expectError("PERIODICITY 1000\n",
                "t.trace: availability trace has no points");

    // Through a model file, the error names the model's line and
    // the trace file's.
    const std::string dir = ::testing::TempDir() + "res_bad_trace";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/bad.trace") << "PERIODICITY 1000\n0 1 1\n";
    std::ofstream(dir + "/m.faults")
        << "seed = 1\nprocess node 0 trace bad.trace\n";
    try {
        res::readFaultModelFile(dir + "/m.faults");
        ADD_FAILURE() << "expected the malformed trace to be fatal";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(
                      dir + "/m.faults line 2: " + dir +
                      "/bad.trace line 2: expected"),
                  std::string::npos)
            << err.what();
    }
}

TEST(FaultModelTest, AvailabilityTraceRejectsARepeatedPeriodicity)
{
    // Not last-one-wins: the second header would silently reshape
    // every point before it.
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n0 1.0\n"
                                     "PERIODICITY 600\n500 0.5\n"),
              "t.trace line 3: duplicate key 'PERIODICITY' (first set "
              "on line 1)");
}

TEST(FaultModelTest, AvailabilityTracePointsAreCheckedOnTheirLine)
{
    // The period and every point are checked where they are read, so
    // the error names the trace's line rather than the model's.
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n0 1.0\n500 2\n"),
              "t.trace line 3: value 2 is not a capacity fraction in "
              "[0, 1]");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n0 -0.5\n"),
              "t.trace line 2: negative value '-0.5'");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n0 1\n1000 0\n"),
              "t.trace line 3: time 1000 is not inside the period "
              "[0, 1000)");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n-1 1\n"),
              "t.trace line 2: negative value '-1'");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n500 1\n500 0\n"),
              "t.trace line 3: time 500 is not after the previous "
              "point's");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n# dip\n400 1\n"
                                     "300 0.5\n"),
              "t.trace line 4: time 300 is not after the previous "
              "point's");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 0\n0 1\n"),
              "t.trace line 1: value '0' must be positive");
    EXPECT_EQ(availabilityTraceError("PERIODICITY 1000\n0 1\n999.5 0\n"),
              "");

    // Through a model file the error leads with the model's line.
    const std::string dir = ::testing::TempDir() + "res_bad_point";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/a.trace") << "PERIODICITY 1000\n0 1\n500 2\n";
    std::ofstream(dir + "/m.faults")
        << "seed = 1\nprocess node 0 trace a.trace\n";
    try {
        res::readFaultModelFile(dir + "/m.faults");
        ADD_FAILURE() << "expected the out-of-range value to be fatal";
    } catch (const FatalError &err) {
        EXPECT_EQ(std::string(err.what()),
                  dir + "/m.faults line 2: " + dir +
                      "/a.trace line 3: value 2 is not a capacity "
                      "fraction in [0, 1]");
    }

    // validate() keeps the same checks for models built in code.
    res::FaultProcess proc;
    proc.target = ScenTarget::node;
    proc.nodeA = 0;
    proc.tracePath = "a.trace";
    proc.periodicityUs = 1000.0;
    proc.trace = {{0.0, 1.0}, {500.0, 2.0}};
    EXPECT_THROW(proc.validate(), FatalError);
}

TEST(FaultModelTest, TraceProcessResolvesNextToTheModelAndRoundTrips)
{
    const std::string dir = ::testing::TempDir() + "res_trace_model";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/link.trace")
        << "PERIODICITY 1000\n0 1.0\n500 0.5\n700 0\n";
    std::ofstream(dir + "/m.faults")
        << "process link 0 1 trace link.trace\n";

    const auto model = res::readFaultModelFile(dir + "/m.faults");
    ASSERT_EQ(model.processes.size(), 1u);
    const res::FaultProcess &proc = model.processes[0];
    EXPECT_EQ(proc.target, ScenTarget::link);
    EXPECT_EQ(proc.nodeA, 0);
    EXPECT_EQ(proc.nodeB, 1);
    EXPECT_EQ(proc.tracePath, "link.trace");
    EXPECT_EQ(proc.periodicityUs, 1000.0);
    const std::vector<res::AvailabilityPoint> points{
        {0.0, 1.0}, {500.0, 0.5}, {700.0, 0.0}};
    EXPECT_EQ(proc.trace, points);

    // The writer references the trace by path; read back from the
    // same directory it is the same model.
    std::ostringstream out;
    res::writeFaultModel(model, out);
    EXPECT_NE(out.str().find("process link 0 1 trace link.trace\n"),
              std::string::npos)
        << out.str();
    std::istringstream in(out.str());
    auto back = res::readFaultModel(in, "written", dir);
    back.sourcePath = model.sourcePath;
    EXPECT_TRUE(back == model);
}

TEST(FaultModelTest, AvailabilityTraceExpansionMatchesItsPin)
{
    // Each 1,000 us period degrades to half at +100, recovers and
    // stalls at +300 and recovers at +600. The 2,500 us horizon
    // cuts the third period's outage, which recovers at the next
    // period boundary.
    std::istringstream text("PERIODICITY 1000\n100 0.5\n300 0\n600 1\n");
    res::FaultProcess proc;
    proc.target = ScenTarget::node;
    proc.nodeA = 2;
    proc.trace =
        res::readAvailabilityTrace(text, "pin.trace", proc.periodicityUs);
    res::FaultModel model;
    model.processes.push_back(proc);
    const auto config =
        res::generateScenario(model, 9, SimTime::fromUs(2500.0));

    const auto degrade = ScenEventKind::degrade;
    const auto recover = ScenEventKind::recover;
    const auto fail = ScenEventKind::fail;
    const std::vector<std::pair<double, ScenEventKind>> pin{
        {100, degrade},  {300, recover},  {300, fail},
        {600, recover},  {1100, degrade}, {1300, recover},
        {1300, fail},    {1600, recover}, {2100, degrade},
        {2300, recover}, {2300, fail},    {3000, recover}};
    ASSERT_EQ(config.events.size(), pin.size());
    for (std::size_t i = 0; i < pin.size(); ++i) {
        const scen::ScenarioEvent &ev = config.events[i];
        EXPECT_EQ(ev.time, SimTime::fromUs(pin[i].first)) << i;
        EXPECT_EQ(ev.kind, pin[i].second) << i;
        EXPECT_EQ(ev.target, ScenTarget::node) << i;
        EXPECT_EQ(ev.nodeA, 2) << i;
        if (ev.kind == degrade) {
            EXPECT_EQ(ev.bandwidthFactor, 0.5) << i;
        }
        if (ev.kind == fail) {
            EXPECT_EQ(ev.semantics, FailSemantics::stall) << i;
        }
    }
}

TEST(FaultModelTest, DalyIntervalMatchesTheClosedForm)
{
    // tau* = sqrt(2 C M) - C: sqrt(2 * 20 * 1000) = 200, minus the
    // cost. Exact in double arithmetic.
    EXPECT_DOUBLE_EQ(res::dalyInterval(1000.0, 20.0), 180.0);
    EXPECT_DOUBLE_EQ(res::dalyInterval(50000.0, 0.0), 0.0);
    // Below the validity bound (M < C/2) the guard returns the
    // degenerate sqrt(2 C M) instead of a negative interval.
    EXPECT_DOUBLE_EQ(res::dalyInterval(10.0, 100.0),
                     std::sqrt(2000.0));
    EXPECT_THROW(res::dalyInterval(0.0, 5.0), FatalError);
    EXPECT_THROW(res::dalyInterval(100.0, -1.0), FatalError);
}

// ---------------------------------------------------------------
// Checkpoint/restart cost model: closed-form pins.
//
// All pins use a single rank computing one 100 us burst at 1000
// MIPS, interval I = 60 us (or 30), cost C = 5 us, restart R = 7 us,
// worked out by hand on the integer-ns clock.
// ---------------------------------------------------------------

TEST(CheckpointRestartTest, FailureFreeRunChargesOneFreezePerCheckpoint)
{
    // I = 30, C = 5 over a 100 us burst: checkpoints at machine
    // progress 30, 60 and 90 each freeze the machine for 5 us, so
    // the rank finishes at exactly 100 + 3 * 5 = 115 us.
    const auto bundle = singleBurst(100'000);
    const auto result =
        sim::simulate(bundle.traces, ckptPlatform(30.0, 5.0, 7.0));
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(115.0).ns());
    EXPECT_EQ(result.checkpoints, 3u);
    EXPECT_EQ(result.restarts, 0u);
}

TEST(CheckpointRestartTest, RestartReplaysWorkSinceTheLastCheckpoint)
{
    // I = 60, C = 5, R = 7, fail-stop at machine progress 80.
    // Failure-free checkpointed time is 100 + C = 105 us (one
    // checkpoint fits the run). The failure at 80 rolls back to the
    // checkpoint cut at 60, so the replay pays the 20 us of work
    // since it plus R: 105 + 20 + 7 = 132 us.
    auto platform = ckptPlatform(60.0, 5.0, 7.0);
    platform.scenario.events.push_back(nodeFail(80.0, 0));
    const auto bundle = singleBurst(100'000);

    const auto free_run =
        sim::simulate(bundle.traces, ckptPlatform(60.0, 5.0, 7.0));
    EXPECT_EQ(free_run.totalTime.ns(), SimTime::fromUs(105.0).ns());
    EXPECT_EQ(free_run.checkpoints, 1u);

    const auto result = sim::simulate(bundle.traces, platform);
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(132.0).ns());
    EXPECT_EQ(result.checkpoints, 1u);
    EXPECT_EQ(result.restarts, 1u);
    // Work is charged once from the surviving run's perspective.
    ASSERT_EQ(result.perRank.size(), 1u);
    EXPECT_EQ(result.perRank[0].computeTime.ns(),
              SimTime::fromUs(100.0).ns());
}

TEST(CheckpointRestartTest, FailureBeforeTheFirstCheckpointRestartsFromZero)
{
    // The same machine failing at 30 us — before any checkpoint —
    // rolls back to time zero: 30 us wasted + R = 7, restart at 37,
    // the full burst replays and the (re-armed) checkpoint at 97
    // freezes 5 us: 37 + 100 + 5 = 142 us.
    auto platform = ckptPlatform(60.0, 5.0, 7.0);
    platform.scenario.events.push_back(nodeFail(30.0, 0));
    const auto bundle = singleBurst(100'000);

    const auto result = sim::simulate(bundle.traces, platform);
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(142.0).ns());
    EXPECT_EQ(result.checkpoints, 1u);
    EXPECT_EQ(result.restarts, 1u);
}

// ---------------------------------------------------------------
// Hierarchical two-level checkpointing.
//
// Local I = 30 / C = 5 / R = 7, global I = 90 / C = 10 / R = 21
// over the 100 us burst, worked out event by event on the integer
// clock. Checkpoint chains: local freezes at wall 30, 65 and 110;
// the global event (compiled 90, shifted by the two local freezes)
// coincides with the local successor at wall 100 and wins the tie
// (earlier heap sequence), freezing 10 and imaging both slots at
// 110. Failure-free total: 100 + 5 + 5 + 10 + 5 = 125 us.
// ---------------------------------------------------------------

sim::PlatformConfig
twoLevelPlatform()
{
    auto platform = ckptPlatform(30.0, 5.0, 7.0);
    platform.checkpointGlobalIntervalUs = 90.0;
    platform.checkpointGlobalCostUs = 10.0;
    platform.restartGlobalCostUs = 21.0;
    return platform;
}

ScenarioEvent
machineFail(double us)
{
    ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = ScenEventKind::fail;
    ev.target = ScenTarget::all;
    ev.semantics = FailSemantics::failStop;
    return ev;
}

TEST(TwoLevelCheckpointTest, FailureFreeRunPaysBothFreezeChains)
{
    const auto bundle = singleBurst(100'000);
    const auto result =
        sim::simulate(bundle.traces, twoLevelPlatform());
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(125.0).ns());
    EXPECT_EQ(result.checkpoints, 4u);
    EXPECT_EQ(result.restarts, 0u);
}

TEST(TwoLevelCheckpointTest, NodeFailureRestoresFromTheLocalSlot)
{
    // The fail compiled at 95 fires at wall 120 (after +25 us of
    // freezes); the newest local image is the one cut at machine
    // progress 90 (anchor 115). Wasted work 95 - 90 = 5 plus the
    // local restart 7 on top of the failure-free 125: 137 us.
    auto platform = twoLevelPlatform();
    platform.scenario.events.push_back(nodeFail(95.0, 0));
    const auto result =
        sim::simulate(singleBurst(100'000).traces, platform);
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(137.0).ns());
    EXPECT_EQ(result.checkpoints, 4u);
    EXPECT_EQ(result.restarts, 1u);
}

TEST(TwoLevelCheckpointTest, MachineWideFailureRestoresFromTheGlobalSlot)
{
    // The same failure instant machine-wide restores the *global*
    // image — same progress cut (90) but an older anchor (110), the
    // 21 us global restart, and one extra local freeze fits before
    // the finish: 125 + 5 + 21 + 5 = 156 us.
    auto platform = twoLevelPlatform();
    platform.scenario.events.push_back(machineFail(95.0));
    const auto result =
        sim::simulate(singleBurst(100'000).traces, platform);
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(156.0).ns());
    EXPECT_EQ(result.checkpoints, 5u);
    EXPECT_EQ(result.restarts, 1u);
}

// ---------------------------------------------------------------
// Rollback-aware timeline capture.
// ---------------------------------------------------------------

TEST(CheckpointRestartTest, TimelineSpliceRecordsWasteAndRestart)
{
    // The 132 us scenario (I = 60, C = 5, R = 7, fail compiled at
    // 80) with capture on: the fail fires at wall 85 (one freeze
    // shifts it by 5), so the ahead-recorded [0, 100] compute burst
    // is truncated at the cut and a first-class restart interval
    // [85, 92] is spliced in.
    auto platform = ckptPlatform(60.0, 5.0, 7.0);
    platform.captureTimeline = true;
    platform.scenario.events.push_back(nodeFail(80.0, 0));
    const auto bundle = singleBurst(100'000);
    const auto result = sim::simulate(bundle.traces, platform);
    EXPECT_EQ(result.totalTime.ns(), SimTime::fromUs(132.0).ns());
    EXPECT_EQ(result.restarts, 1u);

    const auto &tl = result.timeline;
    EXPECT_EQ(
        tl.timeInState(0, sim::RankState::compute).ns(),
        SimTime::fromUs(85.0).ns());
    EXPECT_EQ(
        tl.timeInState(0, sim::RankState::restart).ns(),
        SimTime::fromUs(7.0).ns());
    ASSERT_EQ(tl.intervals(0).size(), 2u);
    auto it = tl.intervals(0).begin();
    EXPECT_EQ(it->state, sim::RankState::compute);
    EXPECT_EQ(it->begin.ns(), 0);
    EXPECT_EQ(it->end.ns(), SimTime::fromUs(85.0).ns());
    ++it;
    EXPECT_EQ(it->state, sim::RankState::restart);
    EXPECT_EQ(it->begin.ns(), SimTime::fromUs(85.0).ns());
    EXPECT_EQ(it->end.ns(), SimTime::fromUs(92.0).ns());

    // The Gantt renderer shows the restart as its own glyph.
    const auto gantt = viz::renderGantt(tl);
    EXPECT_NE(gantt.find('X'), std::string::npos);
}

// ---------------------------------------------------------------
// Degrade windows across a rollback (satellite: closed form).
// ---------------------------------------------------------------

TEST(CheckpointRestartTest, RestartedFlowPaysTheReappliedDegrade)
{
    // Flat bus at 100 MB/s, checkpoint cuts every 150 us at zero
    // freeze cost, restart 50 us. A half-capacity degrade fires at
    // 100 and never recovers; rank 0 computes 200 us and then sends
    // 1 MB (20 ms at the degraded rate). The fail at 250 rolls back
    // to the cut at 150 — *before* the send began — so the restored
    // machine re-prices the transfer from scratch against the
    // re-applied degrade (restored active-window flag). The whole
    // replay is the degraded failure-free run shifted by exactly
    // wasted work (250 - 150 = 100) plus the restart (50).
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 200'000));
    auto nominal_platform = testing::platformAt(100.0);
    nominal_platform.checkpointIntervalUs = 150.0;
    nominal_platform.checkpointCostUs = 0.0;
    nominal_platform.restartCostUs = 50.0;
    ScenarioEvent degrade;
    degrade.kind = ScenEventKind::degrade;
    degrade.target = ScenTarget::all;
    degrade.time = SimTime::fromUs(100.0);
    degrade.bandwidthFactor = 0.5;
    nominal_platform.scenario.events.push_back(degrade);
    const auto nominal =
        sim::simulate(bundle.traces, nominal_platform);
    EXPECT_EQ(nominal.restarts, 0u);

    auto failing = nominal_platform;
    failing.scenario.events.push_back(nodeFail(250.0, 1));
    const auto result = sim::simulate(bundle.traces, failing);
    EXPECT_EQ(result.restarts, 1u);
    EXPECT_EQ(result.totalTime.ns(),
              nominal.totalTime.ns() + SimTime::fromUs(150.0).ns());
    ASSERT_EQ(result.perRank.size(), nominal.perRank.size());
    for (std::size_t r = 0; r < result.perRank.size(); ++r) {
        EXPECT_EQ(result.perRank[r].bytesSent,
                  nominal.perRank[r].bytesSent)
            << "rank " << r;
    }
}

// ---------------------------------------------------------------
// Bit-identity seams around the cost model.
// ---------------------------------------------------------------

TEST(CheckpointRestartTest, ZeroIntervalKeepsFailStopSemantics)
{
    // Cost/restart values without a positive interval change
    // nothing: fail-stop still terminates with the PR-6 diagnosis.
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 400'000));
    auto platform = testing::platformAt(256.0);
    platform.checkpointCostUs = 5.0;
    platform.restartCostUs = 7.0;
    platform.scenario.events.push_back(nodeFail(10.0, 0));
    try {
        sim::simulate(bundle.traces, platform);
        FAIL() << "fail-stop without checkpointing must throw";
    } catch (const scen::FailureError &err) {
        EXPECT_EQ(err.diagnosis().time.ns(),
                  SimTime::fromUs(10.0).ns());
        EXPECT_NE(err.diagnosis().event.find("fail"),
                  std::string::npos);
    }
}

TEST(CheckpointRestartTest, IdleCostFieldsLeaveReplaysBitIdentical)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    const auto base = testing::platformAt(512.0);
    auto idle = base;
    idle.checkpointCostUs = 5.0;
    idle.restartCostUs = 7.0;
    expectIdentical(sim::simulate(bundle.traces, base),
                    sim::simulate(bundle.traces, idle));
}

TEST(CheckpointRestartTest, UnfiredCheckpointLeavesRankTimesUntouched)
{
    // An interval beyond the completion time takes no checkpoint
    // and perturbs no rank observable (the pending checkpoint event
    // itself is the only extra event processed). The second input
    // is a rendezvous transfer matched at 200 us whose handshake
    // puts its begin at 210 us, on a fabric degraded from 198 us to
    // 205 us: the degrade has ended by the begin, so the 1 MB at
    // 1000 MB/s pays nominal time, 210 + 1000 + 8 us.
    const auto ring = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    trace::TraceSet late("late-recover", 2);
    late.rankTrace(0).append(trace::SendRec{1, 1, 1'000'000, 1});
    late.rankTrace(1).append(trace::CpuBurst{200'000});
    late.rankTrace(1).append(trace::RecvRec{0, 1, 1'000'000, 1});
    auto rendezvous = testing::platformAt(1000.0);
    rendezvous.eagerThreshold = 1024;
    rendezvous.rendezvousOverheadUs = 10.0;
    ScenarioEvent degrade;
    degrade.kind = ScenEventKind::degrade;
    degrade.time = SimTime::fromUs(198.0);
    degrade.bandwidthFactor = 0.5;
    ScenarioEvent recover;
    recover.kind = ScenEventKind::recover;
    recover.time = SimTime::fromUs(205.0);
    rendezvous.scenario.events = {degrade, recover};

    const std::pair<const trace::TraceSet *, sim::PlatformConfig>
        inputs[] = {{&ring.traces, testing::platformAt(512.0)},
                    {&late, rendezvous}};
    for (const auto &[traces, base] : inputs) {
        SCOPED_TRACE(traces->name());
        auto unfired = base;
        unfired.checkpointIntervalUs = 1e9;
        const auto a = sim::simulate(*traces, base);
        const auto b = sim::simulate(*traces, unfired);
        EXPECT_EQ(b.checkpoints, 0u);
        EXPECT_EQ(a.totalTime.ns(), b.totalTime.ns());
        ASSERT_EQ(a.perRank.size(), b.perRank.size());
        for (std::size_t r = 0; r < a.perRank.size(); ++r) {
            EXPECT_EQ(a.perRank[r].endTime.ns(),
                      b.perRank[r].endTime.ns());
            EXPECT_EQ(a.perRank[r].computeTime.ns(),
                      b.perRank[r].computeTime.ns());
            EXPECT_EQ(a.perRank[r].bytesSent, b.perRank[r].bytesSent);
        }
    }
    EXPECT_EQ(sim::simulate(late, rendezvous).totalTime.ns(),
              1'218'000);
}

// ---------------------------------------------------------------
// Rollback with communication in flight.
// ---------------------------------------------------------------

TEST(CheckpointRestartTest, RoutedInFlightTransfersRollBackDeterministically)
{
    // 512 KB ring payloads serialize for ~1 ms on the tapered tree,
    // so the fail-stop at 500 us lands with transfers in flight;
    // the rollback cancels them (the engine asserts the LinkNetwork
    // drains to zero occupancy) and the replay still completes.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(512 * 1024, 400'000, 2));
    auto platform = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(2));
    platform.checkpointIntervalUs = 200.0;
    platform.checkpointCostUs = 10.0;
    platform.restartCostUs = 20.0;

    const auto nominal = sim::simulate(bundle.traces, platform);
    EXPECT_EQ(nominal.restarts, 0u);

    platform.scenario.events.push_back(nodeFail(500.0, 1));
    const auto a = sim::simulate(bundle.traces, platform);
    EXPECT_GE(a.restarts, 1u);
    EXPECT_GT(a.totalTime.ns(), nominal.totalTime.ns());

    // Restarted replays stay deterministic run to run.
    const auto b = sim::simulate(bundle.traces, platform);
    expectIdentical(a, b);
}

TEST(CheckpointRestartTest, FlatBusRollbackIsDeterministicToo)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(1'000'000, 400'000));
    auto platform = ckptPlatform(150.0, 5.0, 10.0);
    platform.bandwidthMBps = 100.0; // 10 ms serialization.
    platform.scenario.events.push_back(nodeFail(400.0, 1));

    const auto a = sim::simulate(bundle.traces, platform);
    EXPECT_GE(a.restarts, 1u);
    const auto b = sim::simulate(bundle.traces, platform);
    expectIdentical(a, b);
}

/** Four ranks: compute, barrier, a long compute, barrier. */
tracer::TraceBundle
everythingOnBundle()
{
    return testing::traceOf(4, [](vm::VmContext &ctx) {
        ctx.compute(200'000);
        ctx.barrier();
        ctx.compute(1'000'000);
        ctx.barrier();
    });
}

/**
 * `platform` with every feature a checkpoint images turned on:
 * checkpointing, algorithmic collectives, degrade/recover,
 * stall/recover, background traffic and timeline capture, with a
 * fail-stop at 700 us.
 */
sim::PlatformConfig
everythingOnPlatform(sim::PlatformConfig platform)
{
    platform.checkpointIntervalUs = 150.0;
    platform.checkpointCostUs = 5.0;
    platform.restartCostUs = 15.0;
    platform.collectiveModel = coll::CollectiveModel::algorithmic;
    platform.captureTimeline = true;

    auto &events = platform.scenario.events;
    ScenarioEvent degrade;
    degrade.kind = ScenEventKind::degrade;
    degrade.target = ScenTarget::all;
    degrade.time = SimTime::fromUs(100.0);
    degrade.bandwidthFactor = 0.5;
    events.push_back(degrade);
    ScenarioEvent recover_degrade;
    recover_degrade.kind = ScenEventKind::recover;
    recover_degrade.target = ScenTarget::all;
    recover_degrade.time = SimTime::fromUs(400.0);
    events.push_back(recover_degrade);
    ScenarioEvent background;
    background.kind = ScenEventKind::background;
    background.target = ScenTarget::route;
    background.nodeA = 0;
    background.nodeB = 3;
    background.time = SimTime::fromUs(250.0);
    background.bytes = 256 * 1024;
    events.push_back(background);
    ScenarioEvent stall;
    stall.kind = ScenEventKind::fail;
    stall.target = ScenTarget::node;
    stall.nodeA = 2;
    stall.time = SimTime::fromUs(500.0);
    stall.semantics = FailSemantics::stall;
    events.push_back(stall);
    ScenarioEvent recover_stall;
    recover_stall.kind = ScenEventKind::recover;
    recover_stall.target = ScenTarget::node;
    recover_stall.nodeA = 2;
    recover_stall.time = SimTime::fromUs(550.0);
    events.push_back(recover_stall);
    events.push_back(nodeFail(700.0, 1));
    return platform;
}

sim::PlatformConfig
routedEverythingOn()
{
    return everythingOnPlatform(sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(2)));
}

sim::PlatformConfig
flatEverythingOn()
{
    return everythingOnPlatform(sim::platforms::defaultCluster());
}

TEST(CheckpointRestartTest, EverythingOnPlatformReplaysDeterministically)
{
    // The acceptance combination: checkpointing + algorithmic
    // collectives + degrade/recover + stall/recover + background
    // traffic + timeline capture, with a fail-stop mid-run. Every
    // one of these was a run-start fatal before checkpoints imaged
    // the whole machine.
    const auto bundle = everythingOnBundle();
    const auto platform = routedEverythingOn();

    const auto a = sim::simulate(bundle.traces, platform);
    EXPECT_GE(a.restarts, 1u);
    EXPECT_GE(a.checkpoints, 3u);
    // Every surviving rank pays the spliced restart interval.
    EXPECT_EQ(
        a.timeline.timeInState(0, sim::RankState::restart).ns(),
        static_cast<std::int64_t>(a.restarts) *
            SimTime::fromUs(15.0).ns());
    EXPECT_NE(viz::renderGantt(a.timeline).find('X'),
              std::string::npos);

    // Bit-identical across repeats (each simulate() call is its own
    // session, so this is also the cross-session guarantee).
    const auto b = sim::simulate(bundle.traces, platform);
    expectIdentical(a, b);
}

// ---------------------------------------------------------------
// Counter pins of the checkpoint path.
// ---------------------------------------------------------------

/** One FNV-1a step over the eight little-endian bytes of `v`. */
void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= v & 0xffu;
        h *= 0x100000001b3ULL;
        v >>= 8;
    }
}

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;

/** FNV-1a over the little-endian bytes of the 14 EngineStats
 * counters, in declaration order. */
std::uint64_t
countersHash(const obs::EngineStats &s)
{
    const std::uint64_t counters[] = {
        s.heapPushes,        s.heapPops,          s.channelProbes,
        s.queueScanSteps,    s.scenarioScanSteps, s.arenaHighWater,
        s.rateRecomputes,    s.recomputesSkipped, s.rearmsTaken,
        s.rearmsSkipped,     s.scenarioEvents,    s.collSteps,
        s.rollbackReworkNs,  s.snapshotBytes};
    std::uint64_t h = fnvBasis;
    for (const std::uint64_t v : counters)
        fnvMix(h, v);
    return h;
}

/**
 * FNV-1a over a captured timeline: each rank's interval count and
 * intervals (begin, end, state) in rank order, then every comm
 * event's fields and every checkpoint mark, in recorded order.
 */
std::uint64_t
timelineHash(const sim::Timeline &t)
{
    const auto ns = [](SimTime time) {
        return static_cast<std::uint64_t>(time.ns());
    };
    std::uint64_t h = fnvBasis;
    for (Rank r = 0; r < t.ranks(); ++r) {
        fnvMix(h, t.intervals(r).size());
        for (const sim::StateInterval &iv : t.intervals(r)) {
            fnvMix(h, ns(iv.begin));
            fnvMix(h, ns(iv.end));
            fnvMix(h, static_cast<std::uint64_t>(iv.state));
        }
    }
    for (const sim::CommEvent &c : t.comms()) {
        for (const std::uint64_t v :
             {static_cast<std::uint64_t>(c.message),
              static_cast<std::uint64_t>(c.src),
              static_cast<std::uint64_t>(c.dst),
              static_cast<std::uint64_t>(c.tag),
              static_cast<std::uint64_t>(c.bytes), ns(c.sendPost),
              ns(c.transferStart), ns(c.arrival), ns(c.recvComplete)})
            fnvMix(h, v);
    }
    for (const sim::CheckpointMark &mark : t.checkpoints()) {
        fnvMix(h, ns(mark.at));
        fnvMix(h, mark.global ? 1u : 0u);
    }
    return h;
}

/** What a checkpointed replay computed, down to every counter. */
struct CkptPin
{
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t checkpoints;
    std::uint64_t restarts;
    std::uint64_t endHash;
    obs::EngineStats stats;
    /** timelineHash of the captured timeline. */
    std::uint64_t timelineHash;
};

void
expectPinned(const sim::SimResult &r, const CkptPin &pin)
{
    EXPECT_EQ(r.totalTime.ns(), pin.totalNs);
    EXPECT_EQ(r.eventsProcessed, pin.events);
    EXPECT_EQ(r.checkpoints, pin.checkpoints);
    EXPECT_EQ(r.restarts, pin.restarts);
    EXPECT_EQ(testing::endTimeHash(r), pin.endHash);
    EXPECT_TRUE(r.stats == pin.stats) << r.stats.toString();
    EXPECT_EQ(timelineHash(r.timeline), pin.timelineHash)
        << std::hex << timelineHash(r.timeline);
}

/**
 * The everything-on combination on the tapered fat tree and on the
 * flat bus, each replayed in a fresh session. Recorded from the
 * engine whose checkpoint image mirrored the imaged members field
 * by field; the fat tree's rate recomputes and repeat visits were
 * re-pinned (36/64 -> 27/73) when the link network stopped
 * re-deriving bottlenecks a change could not move, and again (to
 * 23/46, rearms skipped 9 -> 5) when an admission burst's mins
 * became one pass per lowered link and a removal stopped walking
 * flows that finish at its instant; snapshotBytes grew by the
 * network's per-link listed flags, 12 bytes on each of the 10
 * images and restores (24504 -> 24624). snapshotBytes
 * pins how much state every image and restore copies, so a member
 * that leaves or joins the image, or a network left over from an
 * earlier replay, moves it. The timeline digests were recorded
 * from the timeline that kept its intervals in a chunked node
 * arena; both replays capture through their rollback, so they hold
 * the rollback cut (truncateAt) and the restart splice.
 */
const CkptPin routedEverythingOnPin = {
    1387000, 62, 8, 1, 0xe70cd2e675cedbddULL,
    {69, 62, 0, 0, 0, 16, 23, 46, 1, 5, 7, 32, 115000, 24624},
    0xdc558c038fe59e50ULL};
const CkptPin flatEverythingOnPin = {
    2504000, 68, 15, 1, 0x060a54533a9de82dULL,
    {74, 68, 0, 4, 37, 16, 0, 0, 0, 0, 7, 32, 115000, 27416},
    0x6dd8543e4d23dd8cULL};

TEST(CheckpointPinTest, EverythingOnCombinationMatchesItsPins)
{
    const auto bundle = everythingOnBundle();
    {
        SCOPED_TRACE("tapered fat tree");
        expectPinned(sim::simulate(bundle.traces, routedEverythingOn()),
                     routedEverythingOnPin);
    }
    {
        SCOPED_TRACE("flat bus");
        expectPinned(sim::simulate(bundle.traces, flatEverythingOn()),
                     flatEverythingOnPin);
    }
}

TEST(CheckpointPinTest, OneSessionReplaysRoutedFlatRoutedAtFreshPins)
{
    // A session keeps its engine, and with it the link network the
    // routed replay configured. The flat-bus replay in between must
    // image no trace of that network, and the routed replay after
    // it must image exactly what a fresh session does.
    const auto bundle = everythingOnBundle();
    sim::ReplaySession session;
    {
        SCOPED_TRACE("routed, first");
        expectPinned(session.run(bundle.traces, routedEverythingOn()),
                     routedEverythingOnPin);
    }
    {
        SCOPED_TRACE("flat bus, second");
        expectPinned(session.run(bundle.traces, flatEverythingOn()),
                     flatEverythingOnPin);
    }
    {
        SCOPED_TRACE("routed, third");
        expectPinned(session.run(bundle.traces, routedEverythingOn()),
                     routedEverythingOnPin);
    }
}

// ---------------------------------------------------------------
// Seeded fuzz: checkpoints against random fault streams.
// ---------------------------------------------------------------

/** totalTime (ns) and end-time hash of one fuzz round's first
 * replay. */
struct FuzzPin
{
    std::int64_t totalNs;
    std::uint64_t endHash;
};

/**
 * The 200 rounds of CheckpointFuzzTest in round order, recorded from
 * the engine whose flat-bus pricing rescanned the whole compiled
 * scenario on every transfer.
 */
const FuzzPin fuzzPins[200] = {
    {125276, 0xcc09fa5fec6aef1dULL}, {611726, 0xe45b52fab4bd31faULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {236738, 0x791ccd2fa7366bf5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {243972, 0x9084744b2297c425ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {167943, 0xefab0d030a549bc9ULL}, {251923, 0xffd97c485701faa5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {217374, 0x4f0bfc5b45d375b5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {271019, 0x01c5054a3eb753e9ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {184329, 0x7e57cce2b0db27a5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {128276, 0xd7b3807df020b69dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {139276, 0xc662970aa2c5c325ULL}, {209211, 0xeff8bee45b4da385ULL},
    {276160, 0x4e47ab0a3ca497c5ULL}, {129276, 0xae2d4918c3529885ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {130276, 0x518d9b8a60e05585ULL},
    {193025, 0xe113bdb50d7f60a9ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {132276, 0x8deec35bf0043405ULL}, {133276, 0x6447024a787149e5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {148548, 0xff15cac452c993c5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {137664, 0xd3744d47257ea855ULL}, {232067, 0xd878bfdecde55ce5ULL},
    {127276, 0x5d80371e63d7cccdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {347773, 0x2f014d52335a5d99ULL},
    {225379, 0xda09b01f03e6b179ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {234014, 0x00f1dbab3bd37f7cULL},
    {127276, 0x5d80371e63d7cccdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {134276, 0x2d8183ea1483fac5ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {325806, 0x27208b90865ba685ULL}, {126276, 0xffe7abd5bea21dcdULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {127276, 0x5d80371e63d7cccdULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {272734, 0xf8a5cb06819512fdULL}, {334644, 0xa40314791ea3f825ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {194609, 0x9028622e9a3c1b39ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {165615, 0xd1fb3d3214c4775dULL},
    {126276, 0xffe7abd5bea21dcdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {146862, 0xdb103d44ad05d661ULL}, {218820, 0xc679ff3a21f8b1b5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {133276, 0x6447024a787149e5ULL}, {307021, 0x050a02bd11fd9fc5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {133276, 0x6447024a787149e5ULL},
    {134276, 0x2d8183ea1483fac5ULL}, {151621, 0x74891f47f1fe09f4ULL},
    {132276, 0x8deec35bf0043405ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {218809, 0x18fd69272d9c1ab5ULL}, {364936, 0x59fa13ce48666501ULL},
    {171621, 0xffb461cc46287285ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {132276, 0x8deec35bf0043405ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {318363, 0x66872001edbf98fdULL},
    {218556, 0xd6518f88df073a75ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {174001, 0x027799e95337fcf5ULL},
    {133276, 0x6447024a787149e5ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {291141, 0xf6d61a4b59b26a8dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {184353, 0x4702fb14db3de029ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {127276, 0x5d80371e63d7cccdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {134276, 0x2d8183ea1483fac5ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {182183, 0x6cdc6f864a233d51ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {127276, 0x5d80371e63d7cccdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {248468, 0x99ad7585bf191fbdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {200910, 0xd1bc86c485aeb8c5ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {291893, 0x6882d375e8518fa9ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {246773, 0x8b09a6712c1fa93dULL}, {143276, 0x72d330d79dad5c7dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {184197, 0xd2b8b673ef3f4195ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {133276, 0x6447024a787149e5ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {270216, 0x1d63a1426fc48405ULL},
    {146276, 0xfa674ca3e420e19dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {129276, 0xae2d4918c3529885ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {182205, 0x5bf0c68b85b9580dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {172344, 0xa978de53d4f0130dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {128276, 0xd7b3807df020b69dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {179321, 0xb53376e974065329ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {130276, 0x518d9b8a60e05585ULL},
    {149621, 0xa6d3b89c30d888e9ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {131276, 0x6849a9d467aacd25ULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {126276, 0xffe7abd5bea21dcdULL}, {134276, 0x2d8183ea1483fac5ULL},
    {328905, 0x64d022f563eaac75ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {133276, 0x6447024a787149e5ULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {127276, 0x5d80371e63d7cccdULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {210310, 0xa9ee0ad9177c67bdULL},
    {125276, 0xcc09fa5fec6aef1dULL}, {125276, 0xcc09fa5fec6aef1dULL},
    {257757, 0x732d4683ccff55c5ULL}, {181174, 0x7655e21863088751ULL}
};

/**
 * countersHash of each CheckpointFuzzTest round's first replay, in
 * round order: all 14 counters, snapshotBytes and heapPushes
 * included. Recorded from the engine whose checkpoint image
 * mirrored the imaged members field by field; the 100 routed
 * rounds were re-pinned when an admission burst's mins became one
 * pass per lowered link (their recomputesSkipped, and snapshotBytes
 * by the network's per-link listed flags).
 */
const std::uint64_t fuzzCounterPins[200] = {
    0xe89f862d6388a704ULL, 0xf5c3438634099915ULL, 0x841d2f66205ae9acULL,
    0x1ea964f1d806a7bfULL, 0x56deed0dcd8d24a8ULL, 0x088665bae4543707ULL,
    0x8b5d16b0a5c8abb2ULL, 0x351a3116211457cdULL, 0x060cbab9dcfbd706ULL,
    0x67abdd27e3a4122fULL, 0xe89f862d6388a704ULL, 0x9054296964b7e929ULL,
    0x11d9a6089d329fa5ULL, 0xf76daeebf3a32c25ULL, 0x7dbbb388add67926ULL,
    0xc42aa2693776aa88ULL, 0x99981692b9acbf78ULL, 0xfc1f687e0ff39c88ULL,
    0x17f25aecb00b13e7ULL, 0x9054296964b7e929ULL, 0xe89f862d6388a704ULL,
    0x18aec4575d59f0c8ULL, 0x8631c1cd1a0f918bULL, 0xde7548ff13ed837fULL,
    0x5151ecead643d233ULL, 0x9054296964b7e929ULL, 0x098ef14c6eb6b1d7ULL,
    0x9cf8ddf84fa547bbULL, 0xd64e7859f575b3ceULL, 0x28898e6182dd3334ULL,
    0xa7d607dc2a4f6f9dULL, 0xca8a807734596982ULL, 0xb7b5cc85e89fc2d4ULL,
    0x9f435af2466c09deULL, 0x3b028a03c1b6de56ULL, 0x5eb417a30f58dc96ULL,
    0x9677e9ca741cbe78ULL, 0xfb63334ab1029ff2ULL, 0x1c6f7b8743cc841eULL,
    0xf97f05e29f721544ULL, 0xb72bed7610887a85ULL, 0x0bc91d42f907d924ULL,
    0xf6c82d5b6417e68aULL, 0x8370118b49cbbe4aULL, 0xfe69a98948f889aaULL,
    0x77d476d0e9044819ULL, 0x126cd5c20dc8c036ULL, 0x28403a7e25cc04a6ULL,
    0x63737e687cf463d6ULL, 0x3ce311cf64d6b320ULL, 0x6356f112c0639007ULL,
    0xd2f47279e1f3464bULL, 0x379ab05b5f7fa8d6ULL, 0xf935b1ff4260e6b6ULL,
    0x858c6121ea27aad1ULL, 0xba5314aca1cbb443ULL, 0x6f3487ffb79a50ceULL,
    0x9054296964b7e929ULL, 0x1c6f7b8743cc841eULL, 0xfcd9f0770cd7a511ULL,
    0x6b75242a1a375a74ULL, 0x9226a6303811b1d2ULL, 0x8aaa67f258761ffcULL,
    0x9054296964b7e929ULL, 0xcb77159cfe158252ULL, 0x8600758e10381ddbULL,
    0x5fb5e18ab3027eb2ULL, 0xb5557d844a217f28ULL, 0x1c6f7b8743cc841eULL,
    0xf935b1ff4260e6b6ULL, 0x166225ca92ab01c6ULL, 0xb029a5933c4549c8ULL,
    0x22d0f764b650f4a4ULL, 0xfdc837d758c657aeULL, 0x599647d80c26dd98ULL,
    0x5c99720a2e8a270aULL, 0xd06df38e5822bd52ULL, 0x4e027fc048533cd5ULL,
    0xf0c65f5d05a5182fULL, 0x5c99720a2e8a270aULL, 0x5fb5e18ab3027eb2ULL,
    0xbd83bc300ee9fd73ULL, 0x35da74b29f5f2e61ULL, 0x14494ae5b5a32cb2ULL,
    0x55dfb574a67e857dULL, 0xde7548ff13ed837fULL, 0x126cd5c20dc8c036ULL,
    0x929ded0b9dd7e74dULL, 0xe89f862d6388a704ULL, 0x3dee9a3b9106349aULL,
    0x8aaa67f258761ffcULL, 0xe4c7eb32f11d5529ULL, 0x3000ad458bc565e2ULL,
    0xf6b31c758347e663ULL, 0x0a9fca161e7d07d5ULL, 0xc66ce900e4a3e11fULL,
    0x98e016a22925178cULL, 0xa8655d380cde98d0ULL, 0xb72bed7610887a85ULL,
    0x9ab0d51a300698e6ULL, 0x56deed0dcd8d24a8ULL, 0xc2aae8932775b7d4ULL,
    0x22d0f764b650f4a4ULL, 0xf4ec800a890ca44cULL, 0x22d0f764b650f4a4ULL,
    0xe5cfa7a5441c2b54ULL, 0xe7612718a06a132dULL, 0xf6b31c758347e663ULL,
    0x790662d5a48f8b29ULL, 0x73956f9c309eedd0ULL, 0x3b028a03c1b6de56ULL,
    0x85db208ca786d336ULL, 0xce344011839ad9a0ULL, 0x8427fa46c8105c8aULL,
    0x437b97fdec7f630fULL, 0xf935b1ff4260e6b6ULL, 0xd41075e65038adc0ULL,
    0xc2aae8932775b7d4ULL, 0x1e38726217647867ULL, 0x5c99720a2e8a270aULL,
    0xb0b41e81173058e4ULL, 0x726fa68c21776e8dULL, 0x3b028a03c1b6de56ULL,
    0x20e77c3afb133dc7ULL, 0x5fb5e18ab3027eb2ULL, 0x088665bae4543707ULL,
    0xfc01c9e5cdf43ee5ULL, 0x088665bae4543707ULL, 0xe9a4faeb30c64f75ULL,
    0x9188bfff9ce363f8ULL, 0xf1d137dfe38d3bf5ULL, 0xf97f05e29f721544ULL,
    0x939d5d07a5b2e4d2ULL, 0xd0f4837133d1bc5dULL, 0x098ef14c6eb6b1d7ULL,
    0x47134d36d380e8a2ULL, 0xfe69a98948f889aaULL, 0xe46a53480d9d436cULL,
    0xa739b2c72a58ba6fULL, 0xb3a4b2219ed0615cULL, 0xc588e1e0656acbffULL,
    0xfdc837d758c657aeULL, 0xb82b250f379719b0ULL, 0x28898e6182dd3334ULL,
    0x22d0f764b650f4a4ULL, 0xe409a6df3e1c4655ULL, 0x60c4b40ea597d04aULL,
    0x351a3116211457cdULL, 0x01c06396798c531fULL, 0x9054296964b7e929ULL,
    0x1c6f7b8743cc841eULL, 0xefbe12b8ee56cc87ULL, 0xe772adf50722fb2eULL,
    0x3aeab85ce481f797ULL, 0x098ef14c6eb6b1d7ULL, 0x66f0bb0d45b18f3eULL,
    0x92a02aa81a7149f3ULL, 0x5c99720a2e8a270aULL, 0x56deed0dcd8d24a8ULL,
    0x961b45d7b348d4f0ULL, 0xc27cde2e00366f5aULL, 0x551d71c7e4a53e9aULL,
    0x15e966336d607a43ULL, 0x5c99720a2e8a270aULL, 0x841d2f66205ae9acULL,
    0x9188bfff9ce363f8ULL, 0x2a7fc929193af1dbULL, 0xd786f851f858b743ULL,
    0x22d0f764b650f4a4ULL, 0x4e01228d0faa6cf3ULL, 0x56deed0dcd8d24a8ULL,
    0xc42aa2693776aa88ULL, 0xb0b41e81173058e4ULL, 0x9f435af2466c09deULL,
    0xed65b8845b2dc40cULL, 0x73956f9c309eedd0ULL, 0x31ba2b8fc22cb25aULL,
    0xc724241ab83aa461ULL, 0xfae44e9423b6b480ULL, 0x9cf8ddf84fa547bbULL,
    0xe8c9b7fe5ab05d15ULL, 0xc3cd9874b8cc1cc0ULL, 0x5209ced2a242b43eULL,
    0xfdc837d758c657aeULL, 0x57bc04af370f0910ULL, 0x5c99720a2e8a270aULL,
    0xb0cdd301899db149ULL, 0xf97f05e29f721544ULL, 0x3000ad458bc565e2ULL,
    0x73956f9c309eedd0ULL, 0xd06df38e5822bd52ULL, 0xd786f851f858b743ULL,
    0xcb6966ac02bdc27bULL, 0x6d90c36647a87c09ULL, 0x3b028a03c1b6de56ULL,
    0xc900012fdb666701ULL, 0x89fdb431bdade028ULL, 0xcf1f3295bdd2eba5ULL,
    0x4f8524c755aa0803ULL, 0x4f6f11d127813b08ULL
};

TEST(CheckpointFuzzTest, RandomFaultStreamsReplayDeterministically)
{
    // 200 seeded rounds of random fault models (fail-stop, stall,
    // degrade over nodes, links and the whole machine) expanded and
    // replayed twice under random checkpoint cost models, on the
    // flat bus and on a routed fabric alternately. The engine's
    // always-on conservation asserts (occupancy drained to zero on
    // cancel, restored occupancy equal to the snapshot's, sent
    // bytes never increased by a rollback) fire on every rollback;
    // the test adds the bit-identity contract on top and pins each
    // round's first replay against fuzzPins and fuzzCounterPins.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(16 * 1024, 50'000, 1));
    const auto routed_base = sim::platforms::topologyCluster(
        net::topologies::taperedFatTree(2));

    for (std::uint64_t round = 0; round < 200; ++round) {
        CounterRng rng(2026, round);
        const bool routed = (round & 1) != 0;

        res::FaultModel model;
        const std::uint64_t nprocs = 1 + rng.next() % 3;
        for (std::uint64_t p = 0; p < nprocs; ++p) {
            // One process per node (index p): recover events match
            // by scope, so a stall's repair on a node that another
            // process fail-stops would ambiguously pair with the
            // crash — a stream compileScenario rightly rejects.
            res::FaultProcess proc;
            switch (rng.next() % 4u) {
              case 0:
                proc.target = ScenTarget::node;
                proc.nodeA = static_cast<int>(p);
                proc.effect = res::FaultEffect::failStop;
                break;
              case 1:
                proc.target = ScenTarget::node;
                proc.nodeA = static_cast<int>(p);
                proc.effect = res::FaultEffect::stall;
                break;
              case 2:
                proc.target = ScenTarget::all;
                proc.effect = res::FaultEffect::failStop;
                break;
              default:
                // Node-scoped degrades hit the NIC links, which
                // every topology has (some pairs on the tapered
                // tree share a switch and own no fabric links, so a
                // bare link scope would not always resolve).
                proc.target = ScenTarget::node;
                proc.nodeA = static_cast<int>(p);
                proc.effect = res::FaultEffect::degrade;
                proc.degradeFactor =
                    0.25 + static_cast<double>(rng.next() % 50) /
                               100.0;
                break;
            }
            proc.mtbfUs =
                100.0 + static_cast<double>(rng.next() % 2000);
            if (proc.effect != res::FaultEffect::failStop)
                proc.mttrUs =
                    20.0 + static_cast<double>(rng.next() % 200);
            model.processes.push_back(proc);
        }

        auto platform =
            routed ? routed_base : testing::platformAt(256.0);
        platform.checkpointIntervalUs =
            50.0 + static_cast<double>(rng.next() % 400);
        platform.checkpointCostUs =
            static_cast<double>(rng.next() % 10);
        platform.restartCostUs =
            static_cast<double>(rng.next() % 20);
        if (rng.next() % 2 == 0) {
            platform.checkpointGlobalIntervalUs =
                2.0 * platform.checkpointIntervalUs;
            platform.checkpointGlobalCostUs =
                static_cast<double>(rng.next() % 20);
            platform.restartGlobalCostUs =
                static_cast<double>(rng.next() % 40);
        }
        platform.scenario = res::generateScenario(
            model, rng.next(), SimTime::fromUs(3000.0));

        const auto a = sim::simulate(bundle.traces, platform);
        const auto b = sim::simulate(bundle.traces, platform);
        SCOPED_TRACE("fuzz round " + std::to_string(round));
        expectIdentical(a, b);
        EXPECT_EQ(a.totalTime.ns(), fuzzPins[round].totalNs);
        EXPECT_EQ(testing::endTimeHash(a), fuzzPins[round].endHash);
        EXPECT_EQ(countersHash(a.stats), fuzzCounterPins[round]);
    }
}

// ---------------------------------------------------------------
// Guard rails.
// ---------------------------------------------------------------

TEST(CheckpointRestartTest, RestartBudgetExhaustionIsAFailureNotAHang)
{
    // Failures every microsecond against a 100 us burst: the
    // machine fails faster than it recovers and the replay must
    // surface the platform's restart_budget, not spin forever.
    auto platform = ckptPlatform(60.0, 5.0, 7.0);
    platform.restartBudget = 64;
    for (int i = 0; i <= 500; ++i)
        platform.scenario.events.push_back(
            nodeFail(1.0 + static_cast<double>(i), 0));
    const auto bundle = singleBurst(100'000);
    try {
        sim::simulate(bundle.traces, platform);
        FAIL() << "restart budget exhaustion must throw";
    } catch (const scen::FailureError &err) {
        // The error names the failing knobs: the budget itself, the
        // observed MTBF and the checkpoint interval.
        EXPECT_NE(err.diagnosis().event.find("restart_budget (64)"),
                  std::string::npos)
            << err.diagnosis().event;
        EXPECT_NE(err.diagnosis().event.find("checkpoint_interval"),
                  std::string::npos);
    }
}

TEST(CheckpointRestartTest, LiftedModeRestrictionsReplayToCompletion)
{
    // PR 7 fataled on timeline capture, algorithmic collectives and
    // non-fail-stop scenario events under a positive checkpoint
    // interval; all three restrictions are lifted.
    const auto bundle = singleBurst(100'000);

    // Timeline capture rides along (115 us failure-free pin holds).
    auto capture = ckptPlatform(30.0, 5.0, 7.0);
    capture.captureTimeline = true;
    const auto captured = sim::simulate(bundle.traces, capture);
    EXPECT_EQ(captured.totalTime.ns(), SimTime::fromUs(115.0).ns());
    EXPECT_EQ(captured.checkpoints, 3u);
    EXPECT_GT(captured.timeline.span().ns(), 0);

    // Algorithmic collectives checkpoint their live schedules.
    const auto coll_bundle =
        testing::traceOf(4, [](vm::VmContext &ctx) {
            ctx.compute(50'000);
            ctx.barrier();
        });
    auto algo = ckptPlatform(60.0, 5.0, 7.0);
    algo.collectiveModel = coll::CollectiveModel::algorithmic;
    const auto a = sim::simulate(coll_bundle.traces, algo);
    EXPECT_GT(a.totalTime.ns(), 0);
    expectIdentical(a, sim::simulate(coll_bundle.traces, algo));

    // Non-fail-stop scenario events snapshot their active effect;
    // with no communication the degrade changes nothing and the
    // 115 us compute pin survives.
    auto degrade = ckptPlatform(30.0, 5.0, 7.0);
    ScenarioEvent ev;
    ev.kind = ScenEventKind::degrade;
    ev.target = ScenTarget::all;
    ev.time = SimTime::fromUs(1.0);
    ev.bandwidthFactor = 0.5;
    degrade.scenario.events.push_back(ev);
    EXPECT_EQ(sim::simulate(bundle.traces, degrade).totalTime.ns(),
              SimTime::fromUs(115.0).ns());

    // An interval that rounds to zero nanoseconds still cannot
    // schedule — the one restriction that remains.
    auto tiny = ckptPlatform(1e-6, 5.0, 7.0);
    EXPECT_THROW(sim::simulate(bundle.traces, tiny), FatalError);
}

// ---------------------------------------------------------------
// Failure propagation through the campaign drivers (satellite).
// ---------------------------------------------------------------

TEST(FailurePropagationTest, BandwidthSweepRethrowsFailureError)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 400'000));
    auto doomed = testing::platformAt(256.0);
    doomed.scenario.events.push_back(nodeFail(10.0, 0));
    EXPECT_THROW(core::bandwidthSweep(bundle, doomed, {256.0, 512.0},
                                      core::standardVariants(), 2),
                 scen::FailureError);
}

TEST(FailurePropagationTest, SweepRethrowsWhenOnlySlowPointsFail)
{
    // A fail-stop at 2 ms: every replay at 4096 and 16384 MB/s ends
    // by 0.9 ms, before it fires; every replay at 16 MB/s runs past
    // 16 ms and dies. Healthy and doomed replays share the lanes,
    // and the doomed ones must still surface.
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 400'000));
    auto platform = testing::platformAt(256.0);
    platform.scenario.events.push_back(nodeFail(2000.0, 0));
    const auto variants = core::standardVariants();
    const std::vector<double> fast{4096.0, 16384.0};
    const auto healthy = core::bandwidthSweep(
        bundle, testing::platformAt(256.0), fast, variants);
    for (const int threads : {1, 2, 8}) {
        EXPECT_THROW(core::bandwidthSweep(bundle, platform,
                                          {16.0, 4096.0, 16384.0},
                                          variants, threads),
                     scen::FailureError)
            << threads << " threads";
        const auto survived = core::bandwidthSweep(
            bundle, platform, fast, variants, threads);
        ASSERT_EQ(survived.points.size(), fast.size());
        for (std::size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(survived.points[i].originalTime,
                      healthy.points[i].originalTime);
            EXPECT_EQ(survived.points[i].variantTimes,
                      healthy.points[i].variantTimes);
        }
    }
}

// ---------------------------------------------------------------
// The resilience campaign driver.
// ---------------------------------------------------------------

void
expectSameResilienceResult(const core::ResilienceResult &a,
                           const core::ResilienceResult &b)
{
    EXPECT_EQ(a.seedCount, b.seedCount);
    EXPECT_EQ(a.horizon.ns(), b.horizon.ns());
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t p = 0; p < a.points.size(); ++p) {
        EXPECT_EQ(a.points[p].mtbfUs, b.points[p].mtbfUs);
        ASSERT_EQ(a.points[p].cells.size(), b.points[p].cells.size());
        for (std::size_t c = 0; c < a.points[p].cells.size(); ++c) {
            const auto &ca = a.points[p].cells[c];
            const auto &cb = b.points[p].cells[c];
            EXPECT_EQ(ca.meanTime.ns(), cb.meanTime.ns())
                << "point " << p << " cell " << c;
            EXPECT_EQ(ca.p95Time.ns(), cb.p95Time.ns())
                << "point " << p << " cell " << c;
            EXPECT_EQ(ca.failedFraction, cb.failedFraction)
                << "point " << p << " cell " << c;
            ASSERT_EQ(ca.seedTimes.size(), cb.seedTimes.size());
            ASSERT_EQ(ca.seedDiagnoses.size(),
                      cb.seedDiagnoses.size());
            for (std::size_t s = 0; s < ca.seedTimes.size(); ++s) {
                EXPECT_EQ(ca.seedTimes[s].ns(), cb.seedTimes[s].ns())
                    << "point " << p << " cell " << c << " seed "
                    << s;
                EXPECT_EQ(ca.seedDiagnoses[s].event,
                          cb.seedDiagnoses[s].event)
                    << "point " << p << " cell " << c << " seed "
                    << s;
            }
        }
    }
}

TEST(ResilienceSweepTest, GridIsBitIdenticalAcrossThreadCounts)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    auto base = testing::platformAt(512.0);
    base.checkpointIntervalUs = 300.0;
    base.checkpointCostUs = 5.0;
    base.restartCostUs = 10.0;

    const std::vector<double> grid = {8000.0, 1000.0};
    const auto variants = core::standardVariants();
    const auto serial =
        core::resilienceSweep(bundle, base, grid, variants, 4, 1, 1);
    for (const int threads : {2, 8}) {
        const auto parallel = core::resilienceSweep(
            bundle, base, grid, variants, 4, 1, threads);
        expectSameResilienceResult(serial, parallel);
    }

    // Shape: cell 0 is the original, then one per variant, and
    // every checkpointed cell survives its faults.
    ASSERT_EQ(serial.points.size(), grid.size());
    for (const auto &point : serial.points) {
        ASSERT_EQ(point.cells.size(), variants.size() + 1);
        for (const auto &cell : point.cells) {
            EXPECT_EQ(cell.failedFraction, 0.0);
            EXPECT_GT(cell.meanTime.ns(), 0);
            EXPECT_GE(cell.p95Time.ns(), cell.meanTime.ns());
        }
    }
}

TEST(ResilienceSweepTest, DeadRunsAreReportedAsDataNotThrown)
{
    // Without checkpointing a fail-stop kills the run; at a per-node
    // MTBF far below the runtime every seed draws at least one fault
    // inside the horizon, so the whole cell dies — as data.
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 3));
    const auto base = testing::platformAt(512.0);

    const auto result =
        core::resilienceSweep(bundle, base, {50.0}, {}, 4, 1, 2);
    ASSERT_EQ(result.points.size(), 1u);
    ASSERT_EQ(result.points[0].cells.size(), 1u);
    const auto &cell = result.points[0].cells[0];
    EXPECT_EQ(cell.failedFraction, 1.0);
    EXPECT_EQ(cell.meanTime.ns(), 0);
    for (const SimTime t : cell.seedTimes)
        EXPECT_EQ(t.ns(), SimTime::max().ns());

    // Every dead seed carries the structured why-it-died report:
    // the fail event that fired and the ranks left unfinished.
    ASSERT_EQ(cell.seedDiagnoses.size(), cell.seedTimes.size());
    for (const auto &diag : cell.seedDiagnoses) {
        EXPECT_NE(diag.event.find("fail"), std::string::npos)
            << diag.event;
        EXPECT_FALSE(diag.blockedRanks.empty());
        EXPECT_GT(diag.time.ns(), 0);
    }
}

// ---------------------------------------------------------------
// The protocol-comparison campaign driver.
// ---------------------------------------------------------------

TEST(ProtocolSweepTest, SweptOptimumLandsWithinOneGridStepOfDaly)
{
    // One rank, one node: a 2000 us burst under exponential
    // fail-stop faults at MTBF 1000 us with checkpoint cost 20 us.
    // Daly's optimum is exactly sqrt(2 * 20 * 1000) - 20 = 180 us;
    // the sweep's argmin over a sqrt(2)-spaced grid must land
    // within one grid step of it.
    const auto bundle = singleBurst(2'000'000);
    const auto base = sim::platforms::defaultCluster();
    std::vector<double> grid;
    for (double v = 45.0; v < 800.0; v *= std::sqrt(2.0))
        grid.push_back(v);

    std::vector<core::CheckpointProtocol> protocols;
    core::CheckpointProtocol single;
    single.name = "single-level";
    single.checkpointCostUs = 20.0;
    single.restartCostUs = 40.0;
    protocols.push_back(single);
    core::CheckpointProtocol two;
    two.name = "two-level";
    two.checkpointCostUs = 20.0;
    two.restartCostUs = 40.0;
    two.globalIntervalFactor = 4.0;
    two.checkpointGlobalCostUs = 40.0;
    two.restartGlobalCostUs = 80.0;
    protocols.push_back(two);

    const auto result = core::protocolSweep(
        bundle, base, 1000.0, grid, protocols, 48, 1, 0.0, 4);
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_EQ(result.intervalGridUs, grid);

    const auto &row = result.rows[0];
    EXPECT_DOUBLE_EQ(row.dalyIntervalUs, 180.0);
    ASSERT_EQ(row.cells.size(), grid.size());
    for (const auto &cell : row.cells) {
        EXPECT_EQ(cell.cell.failedFraction, 0.0)
            << "interval " << cell.intervalUs;
    }

    // Index of the grid point nearest the analytic optimum, and of
    // the swept argmin: at most one step apart.
    std::size_t daly_idx = 0, best_idx = 0;
    for (std::size_t k = 0; k < grid.size(); ++k) {
        if (std::abs(grid[k] - row.dalyIntervalUs) <
            std::abs(grid[daly_idx] - row.dalyIntervalUs))
            daly_idx = k;
        if (grid[k] == row.bestIntervalUs)
            best_idx = k;
    }
    EXPECT_GT(row.bestIntervalUs, 0.0);
    EXPECT_LE(best_idx > daly_idx ? best_idx - daly_idx
                                  : daly_idx - best_idx,
              1u)
        << "swept " << row.bestIntervalUs << " us vs Daly "
        << row.dalyIntervalUs << " us";

    // The two-level row shares the analytic prediction (same local
    // cost, same failure process) and also survives everywhere.
    EXPECT_DOUBLE_EQ(result.rows[1].dalyIntervalUs, 180.0);
    EXPECT_GT(result.rows[1].bestIntervalUs, 0.0);
}

TEST(ProtocolSweepTest, MachineWideFaultsFavorTheGlobalSlotAndStayDeterministic)
{
    // With machine-wide crashes in the mix the two-level protocol
    // restores them from its global snapshot; the campaign stays
    // bit-identical across thread counts.
    const auto bundle = singleBurst(1'000'000);
    const auto base = sim::platforms::defaultCluster();
    const std::vector<double> grid = {100.0, 200.0, 400.0};
    std::vector<core::CheckpointProtocol> protocols;
    core::CheckpointProtocol two;
    two.name = "two-level";
    two.checkpointCostUs = 10.0;
    two.restartCostUs = 20.0;
    two.globalIntervalFactor = 2.0;
    two.checkpointGlobalCostUs = 20.0;
    two.restartGlobalCostUs = 40.0;
    protocols.push_back(two);

    const auto serial = core::protocolSweep(
        bundle, base, 2000.0, grid, protocols, 6, 1, 3000.0, 1);
    ASSERT_EQ(serial.rows.size(), 1u);
    EXPECT_EQ(serial.machineMtbfUs, 3000.0);
    for (const auto &cell : serial.rows[0].cells)
        EXPECT_EQ(cell.cell.failedFraction, 0.0);

    for (const int threads : {2, 8}) {
        const auto parallel = core::protocolSweep(
            bundle, base, 2000.0, grid, protocols, 6, 1, 3000.0,
            threads);
        EXPECT_EQ(parallel.horizon.ns(), serial.horizon.ns());
        ASSERT_EQ(parallel.rows.size(), serial.rows.size());
        for (std::size_t k = 0; k < grid.size(); ++k) {
            const auto &ca = serial.rows[0].cells[k].cell;
            const auto &cb = parallel.rows[0].cells[k].cell;
            ASSERT_EQ(ca.seedTimes.size(), cb.seedTimes.size());
            for (std::size_t s = 0; s < ca.seedTimes.size(); ++s)
                EXPECT_EQ(ca.seedTimes[s].ns(),
                          cb.seedTimes[s].ns())
                    << "interval " << grid[k] << " seed " << s;
        }
        EXPECT_EQ(parallel.rows[0].bestIntervalUs,
                  serial.rows[0].bestIntervalUs);
    }
}

// ---------------------------------------------------------------
// Platform-file keys (satellite: domain-checked parsing).
// ---------------------------------------------------------------

TEST(ResPlatformFileTest, CheckpointKeysRoundTripAndAreDomainChecked)
{
    auto platform = ckptPlatform(50000.0, 2000.0, 5000.0);
    platform.checkpointGlobalIntervalUs = 200000.0;
    platform.checkpointGlobalCostUs = 8000.0;
    platform.restartGlobalCostUs = 15000.0;
    platform.restartBudget = 123;
    std::ostringstream out;
    sim::writePlatformConfig(platform, out);
    std::istringstream in(out.str());
    const auto parsed = sim::readPlatformConfig(in);
    EXPECT_EQ(parsed.checkpointIntervalUs,
              platform.checkpointIntervalUs);
    EXPECT_EQ(parsed.checkpointCostUs, platform.checkpointCostUs);
    EXPECT_EQ(parsed.restartCostUs, platform.restartCostUs);
    EXPECT_EQ(parsed.checkpointGlobalIntervalUs,
              platform.checkpointGlobalIntervalUs);
    EXPECT_EQ(parsed.checkpointGlobalCostUs,
              platform.checkpointGlobalCostUs);
    EXPECT_EQ(parsed.restartGlobalCostUs,
              platform.restartGlobalCostUs);
    EXPECT_EQ(parsed.restartBudget, platform.restartBudget);

    for (const char *bad :
         {"checkpoint_interval_us = -1",
          "checkpoint_cost_us = nan",
          "restart_cost_us = -inf",
          "bandwidth_mbps = -5",
          "restart_budget = 0",
          "restart_budget = -3",
          "checkpoint_global_cost_us = -1",
          "restart_global_cost_us = nan",
          // The global level rides on the local checkpoint chain,
          // so a global interval without a local one is nonsense.
          "checkpoint_global_interval_us = 50"}) {
        std::istringstream stream(bad);
        EXPECT_THROW(sim::readPlatformConfig(stream), FatalError)
            << bad;
    }
}

} // namespace
} // namespace ovlsim
