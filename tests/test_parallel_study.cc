/**
 * @file
 * Determinism and correctness of the parallel study runtime.
 *
 * The campaign drivers fan independent replays over a thread pool
 * with one reusable ReplaySession per lane. Nothing about a
 * campaign's results may depend on the thread count or on
 * scheduling: every parallel path must produce output bit-identical
 * to the sequential path, and repeated runs must be bit-identical to
 * each other. These tests pin that contract for bandwidthSweep,
 * platformSweep over topologies, collective models and a mixed
 * platform list, isoPerformance and one compiled program shared by
 * concurrent sessions across thread counts {1, 2, 8}, and cover the
 * ThreadPool primitive itself (full task coverage, worker-local
 * lanes, exception propagation).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/analysis.hh"
#include "helpers.hh"
#include "scen/scenario.hh"
#include "sim/engine.hh"
#include "sim/program.hh"
#include "util/thread_pool.hh"

namespace ovlsim {
namespace {

using sim::SimResult;

const int threadCounts[] = {1, 2, 8};

using testing::expectIdentical;

/** Bit-exact equality of two sweep results. */
void
expectIdenticalSweep(const core::SweepResult &a,
                     const core::SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    ASSERT_EQ(a.variants.size(), b.variants.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const auto &pa = a.points[i];
        const auto &pb = b.points[i];
        EXPECT_EQ(pa.bandwidthMBps, pb.bandwidthMBps)
            << "point " << i;
        EXPECT_EQ(pa.originalTime.ns(), pb.originalTime.ns())
            << "point " << i;
        EXPECT_EQ(pa.originalCommFraction,
                  pb.originalCommFraction)
            << "point " << i;
        ASSERT_EQ(pa.variantTimes.size(), pb.variantTimes.size());
        for (std::size_t v = 0; v < pa.variantTimes.size(); ++v) {
            EXPECT_EQ(pa.variantTimes[v].ns(),
                      pb.variantTimes[v].ns())
                << "point " << i << " variant " << v;
        }
    }
}

TEST(ThreadPoolTest, CoversEveryTaskExactlyOnce)
{
    for (const int threads : threadCounts) {
        ThreadPool pool(threads);
        constexpr std::size_t count = 257;
        std::vector<std::atomic<int>> hits(count);
        pool.parallelFor(count, [&](std::size_t task, int lane) {
            ASSERT_GE(lane, 0);
            ASSERT_LT(lane, pool.size());
            hits[task].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPoolTest, ReusableAcrossJobs)
{
    ThreadPool pool(4);
    std::vector<int> values(100, 0);
    for (int round = 1; round <= 3; ++round) {
        pool.parallelFor(values.size(),
                         [&](std::size_t i, int) {
                             values[i] += round;
                         });
    }
    for (const int v : values)
        EXPECT_EQ(v, 6);
}

TEST(ThreadPoolTest, PropagatesTheFirstException)
{
    for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        EXPECT_THROW(
            pool.parallelFor(64,
                             [&](std::size_t task, int) {
                                 if (task == 13)
                                     fatal("boom on 13");
                             }),
            FatalError);
        // The pool must stay usable after a failed job.
        std::atomic<int> ran{0};
        pool.parallelFor(8, [&](std::size_t, int) { ++ran; });
        EXPECT_EQ(ran.load(), 8);
    }
}

TEST(ThreadPoolTest, WorkerLaneExceptionRethrowsOnTheCaller)
{
    // An exception on a lane other than the caller's must cross the
    // thread boundary: caught where it ran, rethrown from
    // parallelFor after every lane drains — never a deadlock on the
    // done_ wait, never a worker left inside a dead job.
    ThreadPool pool(4);
    ASSERT_GE(pool.size(), 2);
    for (int round = 0; round < 3; ++round) {
        std::atomic<bool> workerThrew{false};
        const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::seconds(30);
        try {
            pool.parallelFor(256, [&](std::size_t, int lane) {
                if (lane != 0) {
                    workerThrew.store(true);
                    fatal("boom from a worker lane");
                }
                // The caller parks on its own task until a worker
                // has provably thrown, so the rethrow demonstrably
                // crosses lanes while this lane is still claiming
                // jobs. The deadline keeps a regression from
                // hanging the suite instead of failing it.
                while (!workerThrew.load() &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
            });
            FAIL() << "the worker exception was not rethrown";
        } catch (const FatalError &err) {
            EXPECT_NE(
                std::string(err.what()).find("worker lane"),
                std::string::npos)
                << err.what();
        }
        EXPECT_TRUE(workerThrew.load()) << "round " << round;
    }
}

TEST(ThreadPoolTest, FailedJobsLeakNoLanes)
{
    // Back-to-back failing jobs interleaved with clean ones: every
    // clean job must still cover all tasks exactly once, proving
    // the failed rounds left no lane wedged and no counter skewed.
    ThreadPool pool(4);
    for (int round = 0; round < 5; ++round) {
        EXPECT_THROW(
            pool.parallelFor(512,
                             [&](std::size_t task, int) {
                                 if (task % 97 == 13)
                                     fatal("boom on ", task);
                             }),
            FatalError);
        constexpr std::size_t count = 128;
        std::vector<std::atomic<int>> hits(count);
        pool.parallelFor(count, [&](std::size_t task, int) {
            hits[task].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "round " << round << " task " << i;
    }
}

TEST(ThreadPoolTest, ResolveThreadsDefaultsToHardware)
{
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3);
    EXPECT_GE(ThreadPool::resolveThreads(0), 1);
    EXPECT_GE(ThreadPool::resolveThreads(-1), 1);
}

TEST(ReplaySessionTest, ReuseMatchesFreshEngineAcrossJobs)
{
    // One session replaying different traces and platforms
    // back-to-back must match a fresh engine per replay, in any
    // order (the arena-reset contract).
    const auto ring = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 5));
    const auto pc = testing::traceOf(
        2, testing::producerConsumer(256 * 1024, 1'000'000));

    sim::ReplaySession session;
    for (const double bandwidth : {16.0, 4096.0, 64.0}) {
        const auto platform = testing::platformAt(bandwidth);
        expectIdentical(session.run(ring.traces, platform),
                        simulate(ring.traces, platform));
        expectIdentical(session.run(pc.traces, platform),
                        simulate(pc.traces, platform));
    }
}

TEST(ParallelSweepTest, BitIdenticalAcrossThreadCountsAndRuns)
{
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 500'000, 4));
    const auto base = sim::platforms::defaultCluster();
    const auto grid = core::logBandwidthGrid(1.0, 4096.0, 2);
    const auto variants = core::standardVariants(8);

    const auto sequential =
        core::bandwidthSweep(bundle, base, grid, variants, 1);
    ASSERT_EQ(sequential.points.size(), grid.size());
    for (const int threads : threadCounts) {
        // Repeated runs at the same thread count must also agree.
        expectIdenticalSweep(core::bandwidthSweep(bundle, base,
                                                  grid, variants,
                                                  threads),
                             sequential);
        expectIdenticalSweep(core::bandwidthSweep(bundle, base,
                                                  grid, variants,
                                                  threads),
                             sequential);
    }
}

TEST(TopologySweepTest, BitIdenticalAcrossThreadCountsAndRuns)
{
    // Topology campaigns replay the same programs over compiled
    // routes from many lanes; nothing about link-shared contention
    // may depend on thread count or scheduling (TSAN builds
    // race-check the per-lane topology caches).
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(48 * 1024, 300'000, 3));
    const auto base = sim::platforms::defaultCluster();
    const auto grid = core::logBandwidthGrid(4.0, 1024.0, 1);
    const auto variants = core::standardVariants(4);
    const auto topologies = core::standardTopologies();
    const auto platforms = testing::atBandwidths(
        testing::withTopologies(base, topologies), grid);

    const auto sequential =
        core::platformSweep(bundle, platforms, variants, 1);
    ASSERT_EQ(sequential.points.size(),
              topologies.size() * grid.size());
    for (const int threads : threadCounts) {
        for (int run = 0; run < 2; ++run) {
            expectIdenticalSweep(
                core::platformSweep(bundle, platforms, variants,
                                    threads),
                sequential);
        }
    }
}

/** A ring halo exchange with an allreduce and a barrier per
 * iteration and a closing broadcast. */
void
haloAndCollectives(vm::VmContext &ctx)
{
    const Rank right = (ctx.rank() + 1) % ctx.ranks();
    const Rank left = (ctx.rank() + ctx.ranks() - 1) % ctx.ranks();
    const auto sbuf = ctx.allocBuffer("halo", 32 * 1024);
    const auto rbuf = ctx.allocBuffer("halo-in", 32 * 1024);
    for (int it = 0; it < 3; ++it) {
        ctx.compute(200'000);
        ctx.computeStore(sbuf, 0, 32 * 1024, 0.2, 4);
        ctx.send(sbuf, 0, 32 * 1024, right, 5);
        ctx.recv(rbuf, 0, 32 * 1024, left, 5);
        ctx.allReduce(16 * 1024);
        ctx.barrier();
    }
    ctx.broadcast(64 * 1024, 0);
}

TEST(CollectiveSweepTest, BitIdenticalAcrossThreadCountsAndRuns)
{
    // Algorithmic collectives replay compiled schedules shared
    // through a process-wide cache from many lanes at once; like
    // programs and compiled topologies, nothing about them may
    // depend on thread count or scheduling (TSAN builds race-check
    // the schedule cache and the per-lane executors).
    const auto bundle = testing::traceOf(4, haloAndCollectives);
    const auto base = sim::platforms::defaultCluster();
    const auto grid = core::logBandwidthGrid(4.0, 1024.0, 1);
    const auto variants = core::standardVariants(4);
    const std::vector<core::TopologySpec> topologies{
        {"flat-bus", net::topologies::flatBus()},
        {"tapered", net::topologies::taperedFatTree(2, 0.5)},
        {"torus", net::topologies::torus2d()},
    };
    // Both collective models in one list: analytic first.
    auto algorithmic = base;
    algorithmic.collectiveModel = coll::CollectiveModel::algorithmic;
    auto groups = testing::withTopologies(base, topologies);
    const auto more = testing::withTopologies(algorithmic, topologies);
    groups.insert(groups.end(), more.begin(), more.end());
    const auto platforms = testing::atBandwidths(groups, grid);

    const auto sequential =
        core::platformSweep(bundle, platforms, variants, 1);
    ASSERT_EQ(sequential.points.size(),
              2 * topologies.size() * grid.size());
    for (const int threads : threadCounts) {
        for (int run = 0; run < 2; ++run) {
            expectIdenticalSweep(
                core::platformSweep(bundle, platforms, variants,
                                    threads),
                sequential);
        }
    }
}

TEST(TopologySweepTest, TopologiesActuallyDiverge)
{
    // The campaign is only interesting if the fabrics disagree
    // somewhere: a congested tapered tree must cost more than the
    // flat bus at some grid point.
    const auto bundle = testing::traceOf(
        8, testing::ringExchange(128 * 1024, 150'000, 3));
    const auto base = sim::platforms::defaultCluster();
    const std::vector<double> grid{64.0};
    const auto variants = core::standardVariants(4);
    const std::vector<core::TopologySpec> topologies{
        {"flat-bus", net::topologies::flatBus()},
        {"tapered", net::topologies::taperedFatTree(2, 0.25)},
    };
    const auto result = core::platformSweep(
        bundle,
        testing::atBandwidths(testing::withTopologies(base, topologies),
                              grid),
        variants, 2);
    ASSERT_EQ(result.points.size(), 2u);
    EXPECT_GT(result.points[1].originalTime.ns(),
              result.points[0].originalTime.ns());
}

scen::ScenarioEvent
scenarioEvent(double us, scen::ScenEventKind kind,
              scen::ScenTarget target)
{
    scen::ScenarioEvent ev;
    ev.time = SimTime::fromUs(us);
    ev.kind = kind;
    ev.target = target;
    return ev;
}

TEST(PlatformSweepTest, MixedPlatformsMatchFreshReplays)
{
    // One campaign over unlike platforms: a lane's session switches
    // fabric, scenario, collective model and checkpointing between
    // tasks, and the flat bus comes back last (TSAN builds
    // race-check the switches). Every point must equal fresh
    // replays of the same programs on its platform.
    using scen::ScenEventKind;
    using scen::ScenTarget;
    const auto bundle = testing::traceOf(4, haloAndCollectives);
    const auto variants = core::standardVariants(4);

    const auto flat = testing::platformAt(256.0);
    auto degraded = testing::platformAt(64.0);
    degraded.topology = net::topologies::taperedFatTree(2, 0.5);
    degraded.scenario.events.push_back(
        scenarioEvent(100.0, ScenEventKind::degrade, ScenTarget::all));
    degraded.scenario.events.back().bandwidthFactor = 0.25;
    degraded.scenario.events.push_back(
        scenarioEvent(900.0, ScenEventKind::recover, ScenTarget::all));
    auto torus = testing::platformAt(1024.0);
    torus.topology = net::topologies::torus2d();
    torus.collectiveModel = coll::CollectiveModel::algorithmic;
    auto checkpointed = testing::platformAt(256.0);
    checkpointed.checkpointIntervalUs = 200.0;
    checkpointed.checkpointCostUs = 5.0;
    checkpointed.restartCostUs = 7.0;
    checkpointed.scenario.events.push_back(
        scenarioEvent(700.0, ScenEventKind::fail, ScenTarget::node));
    checkpointed.scenario.events.back().nodeA = 1;
    checkpointed.scenario.events.back().semantics =
        scen::FailSemantics::failStop;
    const std::vector<sim::PlatformConfig> platforms{
        flat, degraded, torus, checkpointed, flat};

    // Fresh replays: program 0 is the original, v > 0 variant v - 1.
    std::vector<std::shared_ptr<const sim::ReplayProgram>> programs{
        sim::compileShared(bundle.traces)};
    for (const auto &variant : variants) {
        programs.push_back(sim::compileShared(
            core::buildOverlappedTrace(bundle.traces, bundle.overlap,
                                       variant.config)
                .traces));
    }
    std::vector<std::vector<SimResult>> fresh(platforms.size());
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        for (const auto &program : programs)
            fresh[i].push_back(sim::simulate(*program, platforms[i]));
    }
    // Each platform does what it is named for.
    EXPECT_GT(fresh[1][0].stats.scenarioEvents, 0u);
    EXPECT_GT(fresh[2][0].stats.collSteps, 0u);
    EXPECT_EQ(fresh[3][0].restarts, 1u);

    for (const int threads : threadCounts) {
        const auto sweep =
            core::platformSweep(bundle, platforms, variants, threads);
        ASSERT_EQ(sweep.points.size(), platforms.size());
        obs::EngineStats folded;
        for (std::size_t i = 0; i < platforms.size(); ++i) {
            const core::SweepPoint &point = sweep.points[i];
            const auto where = ::testing::Message()
                << threads << " threads, point " << i;
            EXPECT_EQ(point.bandwidthMBps, platforms[i].bandwidthMBps)
                << where;
            EXPECT_EQ(point.originalTime.ns(),
                      fresh[i][0].totalTime.ns())
                << where;
            EXPECT_EQ(point.originalCommFraction,
                      fresh[i][0].commFraction())
                << where;
            ASSERT_EQ(point.variantTimes.size(), variants.size());
            obs::EngineStats stats = fresh[i][0].stats;
            for (std::size_t v = 0; v < variants.size(); ++v) {
                EXPECT_EQ(point.variantTimes[v].ns(),
                          fresh[i][v + 1].totalTime.ns())
                    << where << ", variant " << v;
                stats.merge(fresh[i][v + 1].stats);
            }
            EXPECT_TRUE(point.stats == stats) << where;
            folded.merge(stats);
        }
        EXPECT_TRUE(sweep.stats == folded) << threads << " threads";
    }
}

TEST(ParallelIsoPerformanceTest, ConcurrentBisectionsMatch)
{
    const auto bundle = testing::traceOf(
        2, testing::producerConsumer(512 * 1024, 2'000'000));
    core::TransformConfig ideal;
    ideal.pattern = core::PatternModel::idealLinear;

    const auto base = sim::platforms::defaultCluster();
    const auto sequential = core::isoPerformance(
        bundle, base, ideal, 65536.0, 0.05, 1e-2, 1);
    for (const int threads : threadCounts) {
        const auto parallel = core::isoPerformance(
            bundle, base, ideal, 65536.0, 0.05, 1e-2, threads);
        EXPECT_EQ(parallel.originalTime.ns(),
                  sequential.originalTime.ns());
        EXPECT_EQ(parallel.originalRequiredBandwidth,
                  sequential.originalRequiredBandwidth);
        EXPECT_EQ(parallel.overlappedRequiredBandwidth,
                  sequential.overlappedRequiredBandwidth);
    }
}

TEST(ParallelProgramSharingTest, OneProgramServesAllLanes)
{
    // Campaigns compile each trace variant once and hand the same
    // immutable ReplayProgram to every lane's session. Replaying one
    // shared program concurrently from many sessions must be
    // bit-identical to sequential and to the compile-on-entry path
    // (TSAN builds race-check the sharing).
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(48 * 1024, 350'000, 5));
    const auto program = sim::compileShared(bundle.traces);

    std::vector<sim::PlatformConfig> platforms;
    for (const double bandwidth :
         {4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0})
        platforms.push_back(testing::platformAt(bandwidth));

    std::vector<SimResult> sequential;
    sim::ReplaySession session;
    for (const auto &platform : platforms) {
        sequential.push_back(session.run(*program, platform));
        expectIdentical(sequential.back(),
                        simulate(bundle.traces, platform));
    }
    for (const int threads : threadCounts) {
        ThreadPool pool(threads);
        std::vector<sim::ReplaySession> sessions(
            static_cast<std::size_t>(pool.size()));
        std::vector<SimResult> parallel(platforms.size());
        pool.parallelFor(platforms.size(), [&](std::size_t i, int lane) {
            parallel[i] = sessions[static_cast<std::size_t>(lane)].run(
                *program, platforms[i]);
        });
        for (std::size_t i = 0; i < platforms.size(); ++i)
            expectIdentical(parallel[i], sequential[i]);
    }
}

} // namespace
} // namespace ovlsim
