/**
 * @file
 * The algorithmic collective engine: schedule compilation, the
 * structural properties every compiled schedule must satisfy,
 * platform-file coverage of the collective-model keys, and the
 * engine's schedule-execution seam.
 *
 * Key contracts pinned here:
 *  - deadlock-freedom by construction: every compiled schedule is
 *    topologically executable under the engine's semantics (sends
 *    always injectable, recvs wait on their pre-matched slot),
 *  - byte semantics: each schedule moves exactly the bytes the
 *    operation requires per rank (binomial trees deliver one
 *    payload per non-root, rings and recursive doubling move
 *    (P-1)/P-shaped totals, alltoall exchanges (P-1) blocks, ...),
 *  - slot consistency: recv slots are dense and pre-matched
 *    one-to-one with sends of equal size between the same pair,
 *  - analytic default: platforms that never mention the collective
 *    model replay bit-identically through the classic closed-form
 *    path, and analytic-vs-algorithmic agree exactly on an
 *    uncontended fabric where the algorithms' critical paths are
 *    the closed forms (barrier, two-rank broadcast),
 *  - determinism: algorithmic replays are bit-identical across
 *    repeats, sessions and topologies.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "coll/coll.hh"
#include "coll/schedule.hh"
#include "core/analysis.hh"
#include "helpers.hh"
#include "obs/stats.hh"
#include "sim/engine.hh"
#include "sim/platform_file.hh"
#include "sim/program.hh"
#include "util/mathutil.hh"

namespace ovlsim {
namespace {

using coll::Algorithm;
using coll::CollectiveModel;
using coll::Schedule;
using trace::CollOp;
using testing::expectIdentical;

constexpr CollOp allOps[] = {
    CollOp::barrier,  CollOp::broadcast, CollOp::reduce,
    CollOp::allReduce, CollOp::gather,   CollOp::allGather,
    CollOp::scatter,  CollOp::allToAll,
};

TEST(CollConfigTest, NamesRoundTrip)
{
    for (const auto model : {CollectiveModel::analytic,
                             CollectiveModel::algorithmic}) {
        EXPECT_EQ(coll::collectiveModelFromName(
                      coll::collectiveModelName(model)),
                  model);
    }
    EXPECT_THROW(coll::collectiveModelFromName("quantum"),
                 FatalError);

    for (const auto algorithm :
         {Algorithm::automatic, Algorithm::linear,
          Algorithm::binomialTree, Algorithm::recursiveDoubling,
          Algorithm::ring, Algorithm::pairwise,
          Algorithm::dissemination}) {
        EXPECT_EQ(coll::algorithmFromName(
                      coll::algorithmName(algorithm)),
                  algorithm);
    }
    EXPECT_THROW(coll::algorithmFromName("butterfly"), FatalError);
}

TEST(CollConfigTest, SelectionFollowsTheCutoffs)
{
    EXPECT_EQ(coll::selectAlgorithm(CollOp::barrier, 8, 0),
              Algorithm::dissemination);
    EXPECT_EQ(coll::selectAlgorithm(CollOp::broadcast, 8, 1024),
              Algorithm::binomialTree);
    EXPECT_EQ(coll::selectAlgorithm(CollOp::allReduce, 8, 1024),
              Algorithm::recursiveDoubling);
    EXPECT_EQ(coll::selectAlgorithm(CollOp::allReduce, 8,
                                    coll::ringCutoffBytes + 1),
              Algorithm::ring);
    // Recursive-doubling allgather needs a power-of-two count.
    EXPECT_EQ(coll::selectAlgorithm(CollOp::allGather, 8, 1024),
              Algorithm::recursiveDoubling);
    EXPECT_EQ(coll::selectAlgorithm(CollOp::allGather, 6, 1024),
              Algorithm::ring);
    EXPECT_EQ(coll::selectAlgorithm(CollOp::allToAll, 8, 1024),
              Algorithm::pairwise);
    // Pins win; unsupported pins are fatal.
    EXPECT_EQ(coll::selectAlgorithm(CollOp::allReduce, 8, 1024,
                                    Algorithm::ring),
              Algorithm::ring);
    EXPECT_THROW(coll::selectAlgorithm(CollOp::barrier, 8, 0,
                                       Algorithm::ring),
                 FatalError);
    EXPECT_THROW(
        coll::compileSchedule(CollOp::allGather, 6, 0, 1024,
                              Algorithm::recursiveDoubling),
        FatalError);
}

/**
 * Execute a schedule topologically under the engine's semantics:
 * sends are always injectable (injection never depends on any
 * cursor), recvs retire once their pre-matched slot was posted.
 * Every schedule must run to completion — deadlock-freedom by
 * construction.
 */
void
expectExecutable(const Schedule &sched)
{
    const int ranks = sched.ranks();
    std::vector<std::size_t> cursor(
        static_cast<std::size_t>(ranks), 0);
    std::vector<char> posted(sched.recvSlots(), 0);
    std::size_t retired = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (Rank r = 0; r < ranks; ++r) {
            const auto steps = sched.stepsOf(r);
            auto &cur = cursor[static_cast<std::size_t>(r)];
            while (cur < steps.size()) {
                const coll::Step &step = steps[cur];
                if (step.isSend) {
                    posted[step.slot] = 1;
                } else if (!posted[step.slot]) {
                    break;
                }
                ++cur;
                ++retired;
                progress = true;
            }
        }
    }
    EXPECT_EQ(retired, sched.totalSteps())
        << trace::collOpName(sched.op()) << " over "
        << sched.ranks() << " ranks via "
        << coll::algorithmName(sched.algorithm())
        << " deadlocks";
}

/** Every slot pre-matches exactly one send and one recv, equal
 * bytes, mirrored endpoints. */
void
expectSlotsConsistent(const Schedule &sched)
{
    struct End
    {
        int count = 0;
        Rank rank = -1;
        Rank peer = -1;
        Bytes bytes = 0;
    };
    std::vector<End> sends(sched.recvSlots());
    std::vector<End> recvs(sched.recvSlots());
    for (Rank r = 0; r < sched.ranks(); ++r) {
        for (const coll::Step &step : sched.stepsOf(r)) {
            ASSERT_LT(step.slot, sched.recvSlots());
            End &end =
                (step.isSend ? sends : recvs)[step.slot];
            ++end.count;
            end.rank = r;
            end.peer = step.peer;
            end.bytes = step.bytes;
        }
    }
    for (std::uint32_t s = 0; s < sched.recvSlots(); ++s) {
        EXPECT_EQ(sends[s].count, 1) << "slot " << s;
        EXPECT_EQ(recvs[s].count, 1) << "slot " << s;
        EXPECT_EQ(sends[s].rank, recvs[s].peer) << "slot " << s;
        EXPECT_EQ(sends[s].peer, recvs[s].rank) << "slot " << s;
        EXPECT_EQ(sends[s].bytes, recvs[s].bytes) << "slot " << s;
    }
}

struct RankTally
{
    Bytes in = 0;
    Bytes out = 0;
    std::size_t sends = 0;
    std::size_t recvs = 0;
};

std::vector<RankTally>
tally(const Schedule &sched)
{
    std::vector<RankTally> tallies(
        static_cast<std::size_t>(sched.ranks()));
    for (Rank r = 0; r < sched.ranks(); ++r) {
        for (const coll::Step &step : sched.stepsOf(r)) {
            auto &t = tallies[static_cast<std::size_t>(r)];
            if (step.isSend) {
                t.out += step.bytes;
                ++t.sends;
            } else {
                t.in += step.bytes;
                ++t.recvs;
            }
        }
    }
    return tallies;
}

/** Per-op byte-movement laws the schedules must satisfy exactly. */
void
expectOpSemantics(const Schedule &sched, CollOp op, int ranks,
                  Rank root, Bytes bytes)
{
    const auto tallies = tally(sched);
    const auto b = [&](int r) {
        return tallies[static_cast<std::size_t>(r)];
    };
    const auto p = static_cast<Bytes>(ranks);
    switch (op) {
      case CollOp::barrier:
        // Notification only: zero payload, everyone participates.
        EXPECT_EQ(sched.totalBytes(), 0u);
        for (int r = 0; r < ranks; ++r) {
            EXPECT_GE(b(r).sends, 1u) << "rank " << r;
            EXPECT_GE(b(r).recvs, 1u) << "rank " << r;
        }
        break;
      case CollOp::broadcast:
        // Every non-root receives the payload exactly once.
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(b(r).in, r == root ? 0 : bytes)
                << "rank " << r;
        }
        EXPECT_EQ(sched.totalBytes(), (p - 1) * bytes);
        break;
      case CollOp::reduce:
        // Every non-root forwards its contribution exactly once.
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(b(r).out, r == root ? 0 : bytes)
                << "rank " << r;
        }
        EXPECT_EQ(sched.totalBytes(), (p - 1) * bytes);
        break;
      case CollOp::allReduce:
        if (sched.algorithm() == Algorithm::recursiveDoubling &&
            isPowerOfTwo(static_cast<std::uint64_t>(ranks))) {
            const auto steps = static_cast<Bytes>(
                log2Ceil(static_cast<std::uint64_t>(ranks)));
            for (int r = 0; r < ranks; ++r) {
                EXPECT_EQ(b(r).in, steps * bytes) << "rank " << r;
                EXPECT_EQ(b(r).out, steps * bytes) << "rank " << r;
            }
        } else if (sched.algorithm() == Algorithm::ring) {
            // Each of the 2(P-1) rounds moves the payload once;
            // per rank, the 2(P-1) chunks sent (and received) are
            // all within one byte of B/P of each other.
            EXPECT_EQ(sched.totalBytes(), 2 * (p - 1) * bytes);
            const Bytes lo = 2 * (p - 1) * (bytes / p);
            const Bytes hi =
                2 * (p - 1) * ((bytes + p - 1) / p);
            for (int r = 0; r < ranks; ++r) {
                EXPECT_GE(b(r).in, lo) << "rank " << r;
                EXPECT_LE(b(r).in, hi) << "rank " << r;
                EXPECT_GE(b(r).out, lo) << "rank " << r;
                EXPECT_LE(b(r).out, hi) << "rank " << r;
            }
        }
        break;
      case CollOp::allGather:
        // Every rank ends up with everyone's block.
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(b(r).in, (p - 1) * bytes) << "rank " << r;
            EXPECT_EQ(b(r).out, (p - 1) * bytes) << "rank " << r;
        }
        break;
      case CollOp::gather:
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(b(r).out, r == root ? 0 : bytes)
                << "rank " << r;
            EXPECT_EQ(b(r).in, r == root ? (p - 1) * bytes : 0)
                << "rank " << r;
        }
        break;
      case CollOp::scatter:
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(b(r).in, r == root ? 0 : bytes)
                << "rank " << r;
            EXPECT_EQ(b(r).out, r == root ? (p - 1) * bytes : 0)
                << "rank " << r;
        }
        break;
      case CollOp::allToAll:
        // One block to every peer.
        for (int r = 0; r < ranks; ++r) {
            EXPECT_EQ(b(r).in, (p - 1) * bytes) << "rank " << r;
            EXPECT_EQ(b(r).out, (p - 1) * bytes) << "rank " << r;
        }
        break;
    }
}

TEST(ScheduleTest, EveryShapeIsDeadlockFreeAndMovesTheRightBytes)
{
    for (const CollOp op : allOps) {
        for (const int ranks : {1, 2, 3, 4, 5, 7, 8, 16}) {
            for (const Bytes bytes :
                 {Bytes(1000), Bytes(1) << 20}) {
                for (const Rank root :
                     {Rank(0), static_cast<Rank>(ranks - 1)}) {
                    const auto sched = coll::compileSchedule(
                        op, ranks, root, bytes);
                    ASSERT_NE(sched, nullptr);
                    EXPECT_NE(sched->algorithm(),
                              Algorithm::automatic);
                    EXPECT_EQ(sched->ranks(), ranks);
                    if (ranks == 1) {
                        EXPECT_EQ(sched->totalSteps(), 0u);
                        continue;
                    }
                    expectExecutable(*sched);
                    expectSlotsConsistent(*sched);
                    expectOpSemantics(*sched, op, ranks, root,
                                      op == CollOp::barrier
                                          ? 0
                                          : bytes);
                }
            }
        }
    }
}

TEST(ScheduleTest, RingAllReduceSplitsOddPayloadsExactly)
{
    // 1003 bytes over 5 ranks: chunks 201/201/201/200/200; the
    // conservation laws must hold to the byte.
    const auto sched = coll::compileSchedule(
        CollOp::allReduce, 5, 0, 1003, Algorithm::ring);
    expectExecutable(*sched);
    expectSlotsConsistent(*sched);
    EXPECT_EQ(sched->totalBytes(), Bytes(2) * 4 * 1003);
}

TEST(ScheduleTest, CacheSharesOneScheduleAcrossCallers)
{
    const auto a = coll::compileSchedule(CollOp::allReduce, 8, 0,
                                         4096);
    const auto b = coll::compileSchedule(CollOp::allReduce, 8, 0,
                                         4096);
    EXPECT_EQ(a.get(), b.get());
    // Non-rooted ops normalize the root away.
    const auto c = coll::compileSchedule(CollOp::allReduce, 8, 3,
                                         4096);
    EXPECT_EQ(a.get(), c.get());
    // Rooted ops key on it.
    const auto r0 = coll::compileSchedule(CollOp::broadcast, 8, 0,
                                          4096);
    const auto r3 = coll::compileSchedule(CollOp::broadcast, 8, 3,
                                          4096);
    EXPECT_NE(r0.get(), r3.get());
    EXPECT_GT(testing::cacheRow("schedule").entries, 0u);
}

TEST(CollPlatformFileTest, ModelAndPinsRoundTrip)
{
    auto config = sim::platforms::defaultCluster();
    config.collectiveModel = CollectiveModel::algorithmic;
    config.collectiveAlgorithms.set(CollOp::allReduce,
                                    Algorithm::ring);
    config.collectiveAlgorithms.set(CollOp::broadcast,
                                    Algorithm::linear);

    std::stringstream stream;
    sim::writePlatformConfig(config, stream);
    const auto parsed = sim::readPlatformConfig(stream);
    EXPECT_EQ(parsed.collectiveModel,
              CollectiveModel::algorithmic);
    EXPECT_TRUE(parsed.collectiveAlgorithms ==
                config.collectiveAlgorithms);
}

TEST(CollPlatformFileTest, RejectsBadCollectiveValues)
{
    // Unknown model name.
    std::stringstream model("collective_model = quantum\n");
    EXPECT_THROW(sim::readPlatformConfig(model), FatalError);

    // Unknown algorithm name.
    std::stringstream algo(
        "collective_algorithm_allreduce = butterfly\n");
    EXPECT_THROW(sim::readPlatformConfig(algo), FatalError);

    // Unknown op inside the key.
    std::stringstream op(
        "collective_algorithm_frobnicate = ring\n");
    EXPECT_THROW(sim::readPlatformConfig(op), FatalError);

    // Algorithm that cannot lower the op.
    std::stringstream pair(
        "collective_algorithm_barrier = ring\n");
    EXPECT_THROW(sim::readPlatformConfig(pair), FatalError);

    // Algorithmic mode on a platform it does not support: the
    // analytic scale factors have no algorithmic meaning.
    std::stringstream scaled(
        "collective_model = algorithmic\n"
        "collective_latency_factor = 2\n");
    EXPECT_THROW(sim::readPlatformConfig(scaled), FatalError);
}

/** A collective-heavy program touching every operation. */
vm::RankProgram
collectiveMix(Bytes bytes, Instr instr)
{
    return [bytes, instr](vm::VmContext &ctx) {
        ctx.compute(instr);
        ctx.allReduce(bytes);
        ctx.compute(instr / 2);
        ctx.broadcast(bytes, 0);
        ctx.barrier();
        ctx.allGather(bytes / 4 + 1);
        ctx.compute(instr / 2);
        ctx.reduce(bytes, ctx.ranks() - 1);
        ctx.allToAll(bytes / 8 + 1);
        ctx.gather(bytes / 2, 0);
        ctx.scatter(bytes / 2, 0);
        ctx.compute(instr);
    };
}

TEST(CollEngineTest, AnalyticModelStaysTheDefaultPath)
{
    // A platform that spells collective_model = analytic is the
    // same struct as one that predates the field; both must replay
    // through the classic closed-form path bit-identically.
    const auto bundle =
        testing::traceOf(4, collectiveMix(64 * 1024, 400'000));
    const auto plain = testing::platformAt(512.0);
    auto tagged = plain;
    tagged.collectiveModel = CollectiveModel::analytic;
    expectIdentical(simulate(bundle.traces, tagged),
                    simulate(bundle.traces, plain));
}

TEST(CollEngineTest, BarrierMatchesAnalyticOnUncontendedFabrics)
{
    // A barrier moves zero payload, so its algorithmic critical
    // path is exactly the analytic closed form: ceil(lg P) rounds
    // of one flight latency, on any uncontended fabric.
    for (const int ranks : {2, 3, 4, 8}) {
        const auto bundle = testing::traceOf(
            ranks, [](vm::VmContext &ctx) {
                ctx.compute(500'000);
                ctx.barrier();
            });
        for (const bool tree : {false, true}) {
            auto analytic = testing::platformAt(1000.0);
            if (tree)
                analytic.topology = net::topologies::fatTree(4);
            auto algorithmic = analytic;
            algorithmic.collectiveModel =
                CollectiveModel::algorithmic;
            EXPECT_EQ(
                simulate(bundle.traces, analytic).totalTime.ns(),
                simulate(bundle.traces, algorithmic)
                    .totalTime.ns())
                << ranks << " ranks, tree=" << tree;
        }
    }
}

TEST(CollEngineTest, TwoRankBroadcastMatchesAnalyticExactly)
{
    // P = 2 broadcast is one transfer: serialization + latency on
    // both models. 1000 MB/s = 1 B/ns keeps the rounding exact.
    const auto bundle = testing::traceOf(
        2, [](vm::VmContext &ctx) {
            ctx.compute(800'000);
            ctx.broadcast(256 * 1024, 0);
        });
    auto analytic = testing::platformAt(1000.0);
    analytic.topology = net::topologies::fatTree(4);
    auto algorithmic = analytic;
    algorithmic.collectiveModel = CollectiveModel::algorithmic;
    EXPECT_EQ(simulate(bundle.traces, analytic).totalTime.ns(),
              simulate(bundle.traces, algorithmic).totalTime.ns());
}

TEST(CollEngineTest, UncontendedAllReduceIsInTheAnalyticBallpark)
{
    // The schedules differ from the closed forms in shape, not in
    // magnitude: on an uncontended full-bisection fabric the
    // algorithmic allreduce must land within a small factor of the
    // analytic estimate.
    const auto bundle = testing::traceOf(
        8, [](vm::VmContext &ctx) {
            ctx.compute(200'000);
            ctx.allReduce(64 * 1024);
        });
    auto analytic = testing::platformAt(1000.0);
    analytic.topology = net::topologies::fatTree(4);
    auto algorithmic = analytic;
    algorithmic.collectiveModel = CollectiveModel::algorithmic;
    const auto a =
        simulate(bundle.traces, analytic).totalTime.ns();
    const auto b =
        simulate(bundle.traces, algorithmic).totalTime.ns();
    EXPECT_GT(b, 0);
    EXPECT_LT(static_cast<double>(b), 4.0 * static_cast<double>(a));
    EXPECT_GT(static_cast<double>(b),
              0.25 * static_cast<double>(a));
}

TEST(CollEngineTest, CollectiveTrafficContendsOnTaperedLinks)
{
    // The whole point of the subsystem: a large allreduce must get
    // slower when the fabric tapers, which the analytic model can
    // never show (it prices collectives off-network).
    const auto bundle = testing::traceOf(
        8, [](vm::VmContext &ctx) {
            ctx.compute(100'000);
            ctx.allReduce(Bytes(1) << 20);
        });
    auto full = testing::platformAt(1000.0);
    full.collectiveModel = CollectiveModel::algorithmic;
    auto tapered = full;
    full.topology = net::topologies::fatTree(2);
    tapered.topology = net::topologies::taperedFatTree(2, 0.25);
    const auto full_time =
        simulate(bundle.traces, full).totalTime.ns();
    const auto tapered_time =
        simulate(bundle.traces, tapered).totalTime.ns();
    EXPECT_GT(tapered_time, full_time);

    // And the analytic model is blind to the taper by design.
    auto analytic_full = full;
    auto analytic_tapered = tapered;
    analytic_full.collectiveModel = CollectiveModel::analytic;
    analytic_tapered.collectiveModel = CollectiveModel::analytic;
    EXPECT_EQ(
        simulate(bundle.traces, analytic_full).totalTime.ns(),
        simulate(bundle.traces, analytic_tapered).totalTime.ns());
}

TEST(CollEngineTest, EngineMovesExactlyTheScheduledBytes)
{
    // Engine-level conservation: an algorithmic replay's per-rank
    // message/byte counters are exactly the compiled schedules'
    // tallies (collective steps are real transfers, p2p-free app).
    const int ranks = 6;
    const Bytes bytes = 48 * 1024;
    const auto bundle = testing::traceOf(
        ranks, [bytes](vm::VmContext &ctx) {
            ctx.compute(100'000);
            ctx.allReduce(bytes);
            ctx.broadcast(bytes, 2);
            ctx.barrier();
        });
    auto platform = testing::platformAt(512.0);
    platform.collectiveModel = CollectiveModel::algorithmic;
    const auto result = simulate(bundle.traces, platform);

    const auto allreduce = coll::compileSchedule(
        CollOp::allReduce, ranks, 0, bytes);
    const auto bcast = coll::compileSchedule(CollOp::broadcast,
                                             ranks, 2, bytes);
    const auto barrier =
        coll::compileSchedule(CollOp::barrier, ranks, 0, 0);
    for (int r = 0; r < ranks; ++r) {
        Bytes out = 0;
        std::uint64_t sends = 0;
        std::uint64_t recvs = 0;
        for (const auto *sched :
             {allreduce.get(), bcast.get(), barrier.get()}) {
            for (const coll::Step &step : sched->stepsOf(r)) {
                if (step.isSend) {
                    out += step.bytes;
                    ++sends;
                } else {
                    ++recvs;
                }
            }
        }
        const auto &rr =
            result.perRank[static_cast<std::size_t>(r)];
        EXPECT_EQ(rr.bytesSent, out) << "rank " << r;
        EXPECT_EQ(rr.messagesSent, sends) << "rank " << r;
        EXPECT_EQ(rr.messagesReceived, recvs) << "rank " << r;
    }
}

TEST(CollEngineTest, AlgorithmicReplaysAreDeterministic)
{
    const auto bundle =
        testing::traceOf(8, collectiveMix(96 * 1024, 250'000));
    for (const auto &spec : core::standardTopologies()) {
        auto platform = testing::platformAt(512.0);
        platform.topology = spec.topology;
        platform.collectiveModel = CollectiveModel::algorithmic;
        const auto reference = simulate(bundle.traces, platform);
        EXPECT_GT(reference.totalTime.ns(), 0) << spec.name;
        expectIdentical(simulate(bundle.traces, platform),
                        reference);
        sim::ReplaySession session;
        expectIdentical(session.run(bundle.traces, platform),
                        reference);
        expectIdentical(session.run(bundle.traces, platform),
                        reference);
    }
}

TEST(CollEngineTest, PinnedAlgorithmsReplayAndDiffer)
{
    // Ring and recursive doubling lower the same allreduce into
    // different traffic; both must replay deterministically, and
    // on a multi-node fabric their times must not be accidentally
    // coupled (they may only coincide by arithmetic luck, so pin
    // determinism, not inequality).
    const auto bundle = testing::traceOf(
        8, [](vm::VmContext &ctx) {
            ctx.compute(150'000);
            ctx.allReduce(512 * 1024);
        });
    for (const auto algorithm :
         {Algorithm::ring, Algorithm::recursiveDoubling}) {
        auto platform = testing::platformAt(1000.0);
        platform.topology = net::topologies::taperedFatTree(4);
        platform.collectiveModel = CollectiveModel::algorithmic;
        platform.collectiveAlgorithms.set(CollOp::allReduce,
                                          algorithm);
        const auto reference = simulate(bundle.traces, platform);
        EXPECT_GT(reference.totalTime.ns(), 0);
        expectIdentical(simulate(bundle.traces, platform),
                        reference);
    }
}

TEST(CollEngineTest, RootDisagreementIsFatalInAlgorithmicMode)
{
    // Hand-built trace whose ranks disagree on the broadcast root:
    // the analytic model never reads the root and must keep
    // replaying it; the algorithmic model cannot lower it.
    trace::TraceSet traces("bad-root", 2, 1000.0);
    traces.rankTrace(0).append(trace::CollectiveRec{
        CollOp::broadcast, 1024, 1024, 0});
    traces.rankTrace(1).append(trace::CollectiveRec{
        CollOp::broadcast, 1024, 1024, 1});

    const auto analytic = testing::platformAt(256.0);
    EXPECT_GT(simulate(traces, analytic).totalTime.ns(), 0);

    auto algorithmic = analytic;
    algorithmic.collectiveModel = CollectiveModel::algorithmic;
    EXPECT_THROW(simulate(traces, algorithmic), FatalError);
}

TEST(CollEngineTest, MultiRankNodesUseLocalLinksForCollectives)
{
    // With several ranks per node, schedule steps between
    // node-mates take the intra-node path (local bandwidth, no
    // fabric links) while cross-node steps contend as usual; the
    // replay must stay deterministic and strictly cheaper than the
    // all-remote placement on a congested fabric.
    const auto bundle =
        testing::traceOf(8, collectiveMix(128 * 1024, 200'000));
    auto spread = testing::platformAt(256.0);
    spread.topology = net::topologies::taperedFatTree(2, 0.5);
    spread.collectiveModel = CollectiveModel::algorithmic;
    auto packed = spread;
    packed.cpusPerNode = 4;

    const auto spread_ref = simulate(bundle.traces, spread);
    const auto packed_ref = simulate(bundle.traces, packed);
    expectIdentical(simulate(bundle.traces, packed), packed_ref);
    sim::ReplaySession session;
    expectIdentical(session.run(bundle.traces, packed),
                    packed_ref);
    EXPECT_LT(packed_ref.totalTime.ns(),
              spread_ref.totalTime.ns());
}

TEST(CollEngineTest, TimelineCaptureCoversAlgorithmicReplays)
{
    // Capture keeps a meta entry per transfer (collective steps
    // included, so the arenas stay parallel) and records the
    // blocked-in-collective intervals; timing must be identical
    // with capture on and off.
    const auto bundle =
        testing::traceOf(4, collectiveMix(64 * 1024, 300'000));
    auto platform = testing::platformAt(256.0);
    platform.topology = net::topologies::taperedFatTree(2, 0.5);
    platform.collectiveModel = CollectiveModel::algorithmic;
    const auto plain = simulate(bundle.traces, platform);
    platform.captureTimeline = true;
    const auto captured = simulate(bundle.traces, platform);
    expectIdentical(captured, plain);
    bool saw_collective = false;
    for (Rank r = 0; r < 4; ++r) {
        for (const auto &iv : captured.timeline.intervals(r)) {
            if (iv.state == sim::RankState::collective)
                saw_collective = true;
        }
    }
    EXPECT_TRUE(saw_collective);
}

TEST(CollEngineTest, SessionSweepsAcrossModelsAndTopologies)
{
    // One session alternating models, topologies and bandwidths
    // (as a lane of collective_study's campaign may): the schedule
    // cache must never leak state between runs.
    const auto bundle =
        testing::traceOf(4, collectiveMix(32 * 1024, 200'000));
    sim::ReplaySession session;
    for (const double bandwidth : {64.0, 1024.0}) {
        for (const auto model : {CollectiveModel::analytic,
                                 CollectiveModel::algorithmic}) {
            for (const auto &spec : core::standardTopologies()) {
                auto platform = testing::platformAt(bandwidth);
                platform.topology = spec.topology;
                platform.collectiveModel = model;
                expectIdentical(
                    session.run(bundle.traces, platform),
                    simulate(bundle.traces, platform));
            }
        }
    }
}

TEST(CollEngineTest, CollectiveSweepPairsAnalyticAndAlgorithmic)
{
    const auto bundle =
        testing::traceOf(4, collectiveMix(64 * 1024, 300'000));
    const auto base = sim::platforms::defaultCluster();
    const std::vector<double> grid{16.0, 256.0};
    const auto variants = core::standardVariants(4);
    const std::vector<core::TopologySpec> topologies{
        {"flat-bus", net::topologies::flatBus()},
        {"tapered", net::topologies::taperedFatTree(2, 0.5)},
    };
    // Analytic topology t's point i is platform t * grid.size() + i;
    // the algorithmic twin follows all analytic points.
    auto algorithmic = base;
    algorithmic.collectiveModel = CollectiveModel::algorithmic;
    auto groups = testing::withTopologies(base, topologies);
    const auto more = testing::withTopologies(algorithmic, topologies);
    groups.insert(groups.end(), more.begin(), more.end());
    const auto campaign = core::platformSweep(
        bundle, testing::atBandwidths(groups, grid), variants, 1);
    const std::size_t twin = topologies.size() * grid.size();
    ASSERT_EQ(campaign.points.size(), 2 * twin);
    for (std::size_t k = 0; k < twin; ++k) {
        EXPECT_GT(campaign.points[k].originalTime.ns(), 0);
        EXPECT_GT(campaign.points[twin + k].originalTime.ns(), 0);
    }
}

} // namespace
} // namespace ovlsim
