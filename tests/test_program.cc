/**
 * @file
 * The trace-lowering compiler (sim/program.hh).
 *
 * Pins three contracts. (1) Lossless lowering: compile -> decode
 * reproduces the source trace set record for record, across
 * hand-written traces covering every record kind and across
 * tracer/transform-generated traces (including chunked overlap
 * variants, the largest programs campaigns compile). (2) Replay
 * equivalence: replaying a compiled program is bit-identical to the
 * compile-on-entry simulate() path on fresh engines and reused
 * sessions alike. (3) Compile-time validation: the lowering rejects
 * what the engine used to reject at replay (wildcards, bad peers,
 * disagreeing collectives, request misuse) with the same error
 * taxonomy, plus tags outside the channel key and byte-count
 * mismatches between paired endpoints, while incomplete traces still
 * compile and deadlock at replay with the engine's diagnosis.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/analysis.hh"
#include "core/transform.hh"
#include "helpers.hh"
#include "sim/engine.hh"
#include "sim/program.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace ovlsim {
namespace {

using trace::CollectiveRec;
using trace::CollOp;
using trace::CpuBurst;
using trace::IRecvRec;
using trace::ISendRec;
using trace::Record;
using trace::RecvRec;
using trace::SendRec;
using trace::TraceSet;
using trace::WaitAllRec;
using trace::WaitRec;

using testing::expectIdentical;

/** Record-for-record equality via the canonical rendering (covers
 * every field of every alternative). */
void
expectSameTraces(const TraceSet &a, const TraceSet &b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.mips(), b.mips());
    ASSERT_EQ(a.ranks(), b.ranks());
    for (Rank r = 0; r < a.ranks(); ++r) {
        const auto &ra = a.rankTrace(r).records();
        const auto &rb = b.rankTrace(r).records();
        ASSERT_EQ(ra.size(), rb.size()) << "rank " << r;
        for (std::size_t i = 0; i < ra.size(); ++i) {
            EXPECT_EQ(ra[i].index(), rb[i].index())
                << "rank " << r << " record " << i;
            EXPECT_EQ(trace::recordToString(ra[i]),
                      trace::recordToString(rb[i]))
                << "rank " << r << " record " << i;
        }
    }
}

/**
 * A trace exercising every record kind plus the representational
 * corner cases: request-id reuse after Wait, registers recycled
 * through WaitAll, rooted collectives whose per-rank byte counts
 * differ (the compiler maxes them cross-rank for the cost table but
 * must decode the per-rank originals), and distinct tags/sizes per
 * channel.
 */
TraceSet
everyKindTrace()
{
    TraceSet traces("every-kind", 3, 1250.0);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{123'456});
    r0.append(ISendRec{1, 7, 4096, 11, 5});
    r0.append(IRecvRec{2, 9, 512, 12, 6});
    r0.append(CpuBurst{1'000});
    r0.append(WaitRec{5});
    r0.append(ISendRec{1, 7, 8192, 13, 5}); // id 5 reused after wait
    r0.append(WaitRec{6});
    r0.append(WaitRec{5});
    r0.append(CollectiveRec{CollOp::gather, 2048, 0, 1});
    r0.append(SendRec{2, 3, 64, 14});
    r0.append(CollectiveRec{CollOp::barrier, 0, 0, 0});

    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 7, 4096, 11});
    r1.append(RecvRec{0, 7, 8192, 13});
    r1.append(CollectiveRec{CollOp::gather, 2048, 6144, 1});
    r1.append(ISendRec{2, 2, 256, 15, 40});
    r1.append(ISendRec{2, 2, 128, 16, 41});
    r1.append(WaitAllRec{});
    r1.append(ISendRec{2, 2, 32, 17, 40}); // register recycled
    r1.append(WaitRec{40});
    r1.append(CollectiveRec{CollOp::barrier, 0, 0, 0});

    auto &r2 = traces.rankTrace(2);
    r2.append(CpuBurst{50'000});
    r2.append(ISendRec{0, 9, 512, 12, 8});
    r2.append(CollectiveRec{CollOp::gather, 1024, 0, 1});
    r2.append(RecvRec{1, 2, 256, 15});
    r2.append(RecvRec{1, 2, 128, 16});
    r2.append(RecvRec{1, 2, 32, 17});
    r2.append(RecvRec{0, 3, 64, 14});
    r2.append(WaitRec{8});
    r2.append(CollectiveRec{CollOp::barrier, 0, 0, 0});
    return traces;
}

TEST(ProgramCompileTest, RoundTripPreservesEveryRecordKind)
{
    const auto traces = everyKindTrace();
    const auto program = sim::compileTrace(traces);
    EXPECT_EQ(program.totalOps(), traces.totalRecords());
    EXPECT_EQ(program.totalSends(), traces.totalMessages());
    expectSameTraces(program.decode(), traces);
}

TEST(ProgramCompileTest, RoundTripOnGeneratedTraces)
{
    // Tracer-generated bundles and their chunked overlap variants
    // (the latter are the biggest programs campaigns compile).
    const auto bundle = testing::traceOf(
        4, testing::ringExchange(64 * 1024, 400'000, 5));
    expectSameTraces(
        sim::compileTrace(bundle.traces).decode(), bundle.traces);

    for (const auto &variant : core::standardVariants(8)) {
        const auto overlapped =
            core::buildOverlappedTrace(bundle.traces,
                                       bundle.overlap,
                                       variant.config)
                .traces;
        expectSameTraces(sim::compileTrace(overlapped).decode(),
                         overlapped);
    }
}

TEST(ProgramCompileTest, CollectiveTableMaxesBytesAcrossRanks)
{
    const auto traces = everyKindTrace();
    const auto program = sim::compileTrace(traces);
    ASSERT_EQ(program.collectives().size(), 2u);
    const auto &gather = program.collectives()[0];
    EXPECT_EQ(gather.op, CollOp::gather);
    EXPECT_EQ(gather.sendBytes, 2048u); // max(2048, 2048, 1024)
    EXPECT_EQ(gather.recvBytes, 6144u); // max(0, 6144, 0)
    EXPECT_EQ(program.collectives()[1].op, CollOp::barrier);
}

TEST(ProgramCompileTest, RegistersAreRecycled)
{
    // Rank 1 posts two concurrent requests, retires both through
    // WaitAll, then posts another: the register table must stay at
    // the high-water mark of two, not grow per post.
    const auto program = sim::compileTrace(everyKindTrace());
    EXPECT_EQ(program.registerCount(1), 2u);
    EXPECT_EQ(program.registerCount(0), 2u);
    EXPECT_EQ(program.registerCount(2), 1u);
}

TEST(ProgramReplayTest, CompiledReplayMatchesCompileOnEntry)
{
    const auto traces = everyKindTrace();
    const auto program = sim::compileShared(traces);
    sim::ReplaySession session;
    for (const double bandwidth : {16.0, 256.0, 4096.0}) {
        const auto platform = testing::platformAt(bandwidth);
        const auto via_traces = simulate(traces, platform);
        expectIdentical(simulate(*program, platform), via_traces);
        expectIdentical(session.run(*program, platform),
                        via_traces);
    }
}

TEST(ProgramCompileTest, RejectsWildcardsAndBadPeers)
{
    const auto compile = [](const TraceSet &traces) {
        return sim::compileTrace(traces);
    };
    {
        TraceSet traces("wild", 2);
        traces.rankTrace(0).append(SendRec{anyRank, 5, 64, 1});
        EXPECT_THROW(compile(traces), FatalError);
    }
    {
        TraceSet traces("wild", 2);
        traces.rankTrace(1).append(IRecvRec{0, anyTag, 64, 1, 7});
        EXPECT_THROW(compile(traces), FatalError);
    }
    {
        TraceSet traces("bad-peer", 2);
        traces.rankTrace(0).append(SendRec{5, 1, 64, 1});
        EXPECT_THROW(compile(traces), FatalError);
    }
}

TEST(ProgramCompileTest, RejectsTagsOutsideTheChannelKey)
{
    // Channel keys hold 30 tag bits; a tag outside them is a trace
    // error naming the record, not a failed internal assertion.
    for (const Tag tag : {Tag(1) << 30, Tag(-5)}) {
        TraceSet traces("bad-tag", 2);
        traces.rankTrace(0).append(CpuBurst{10});
        traces.rankTrace(0).append(SendRec{1, tag, 64, 1});
        traces.rankTrace(1).append(RecvRec{0, tag, 64, 1});
        try {
            sim::compileTrace(traces);
            FAIL() << "tag " << tag << " compiled";
        } catch (const FatalError &err) {
            EXPECT_EQ(std::string(err.what()),
                      "rank 0 record 1: send tag " +
                          std::to_string(tag) +
                          " outside [0, 1073741824)");
        }
    }
}

TEST(ProgramCompileTest, RejectsByteMismatchWhicheverSidePostsFirst)
{
    // Rank 0 sends 8 bytes that rank 1 receives as 16. A compute
    // burst on one side decides which end posts first at run time;
    // both orders fail the same way, before any replay.
    const auto mismatch = [](bool recv_first) {
        TraceSet traces("mismatch", 2);
        auto &sender = traces.rankTrace(0);
        auto &receiver = traces.rankTrace(1);
        (recv_first ? sender : receiver).append(CpuBurst{1'000'000});
        sender.append(SendRec{1, 0, 8, 1});
        receiver.append(RecvRec{0, 0, 16, 1});
        try {
            simulate(traces, testing::platformAt(256.0));
        } catch (const FatalError &err) {
            return std::string(err.what());
        }
        return std::string("replayed");
    };
    EXPECT_EQ(mismatch(true),
              "channel 0->1 tag 0: rank 0 record 1 sends 8 bytes but "
              "rank 1 record 0 receives 16 bytes");
    EXPECT_EQ(mismatch(false),
              "channel 0->1 tag 0: rank 0 record 0 sends 8 bytes but "
              "rank 1 record 1 receives 16 bytes");
}

TEST(ProgramCompileTest, RejectsRequestMisuse)
{
    {
        // Wait on a request that was never posted: the engine used
        // to panic mid-replay; the compiler keeps the taxonomy.
        TraceSet traces("t", 1);
        traces.rankTrace(0).append(WaitRec{99});
        EXPECT_THROW(sim::compileTrace(traces), PanicError);
    }
    {
        // Reposting a request id while it is still live.
        TraceSet traces("t", 2);
        auto &r0 = traces.rankTrace(0);
        r0.append(ISendRec{1, 1, 64, 1, 7});
        r0.append(ISendRec{1, 1, 64, 2, 7});
        EXPECT_THROW(sim::compileTrace(traces), FatalError);
    }
    {
        // Disagreeing collective sequences.
        TraceSet traces("t", 2);
        traces.rankTrace(0).append(
            CollectiveRec{CollOp::barrier, 0, 0, 0});
        traces.rankTrace(1).append(
            CollectiveRec{CollOp::allReduce, 8, 8, 0});
        EXPECT_THROW(sim::compileTrace(traces), FatalError);
    }
}

TEST(ProgramCompileTest, IncompleteTracesCompileAndDeadlock)
{
    // Structural completeness is the replay engine's job: a recv
    // with no matching send must lower fine and then deadlock with
    // the engine's diagnosis.
    TraceSet traces("stuck", 2);
    traces.rankTrace(0).append(RecvRec{1, 1, 100, 1});
    traces.rankTrace(1).append(CpuBurst{1'000});
    const auto program = sim::compileTrace(traces);
    try {
        simulate(program, testing::platformAt(256.0));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("deadlock"),
                  std::string::npos);
    }
}

} // namespace
} // namespace ovlsim
