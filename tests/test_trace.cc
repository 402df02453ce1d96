/**
 * @file
 * Unit tests for the trace model, serialization, validation and
 * linking.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "trace/link.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "trace/validate.hh"
#include "util/logging.hh"

namespace ovlsim::trace {
namespace {

/** Two-rank trace: r0 computes then sends; r1 receives then
 * computes; both join a barrier. */
TraceSet
makeSimpleTrace()
{
    TraceSet traces("simple", 2, 1000.0);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{1000});
    r0.append(SendRec{1, 5, 4096, 1});
    r0.append(CollectiveRec{CollOp::barrier, 0, 0, 0});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 5, 4096, 1});
    r1.append(CpuBurst{2000});
    r1.append(CollectiveRec{CollOp::barrier, 0, 0, 0});
    return traces;
}

/** Exercise every record kind on two ranks, structurally valid. */
TraceSet
makeFullTrace()
{
    TraceSet traces("full", 2, 1500.0);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{10});
    r0.append(ISendRec{1, 1, 100, 1, 11});
    r0.append(CpuBurst{20});
    r0.append(WaitRec{11});
    r0.append(SendRec{1, 2, 200, 2});
    r0.append(IRecvRec{1, 3, 300, 3, 12});
    r0.append(WaitAllRec{});
    r0.append(CollectiveRec{CollOp::allReduce, 8, 8, 0});
    auto &r1 = traces.rankTrace(1);
    r1.append(IRecvRec{0, 1, 100, 1, 21});
    r1.append(WaitRec{21});
    r1.append(RecvRec{0, 2, 200, 2});
    r1.append(CpuBurst{30});
    r1.append(SendRec{0, 3, 300, 3});
    r1.append(CollectiveRec{CollOp::allReduce, 8, 8, 0});
    return traces;
}

TEST(RecordTest, CollOpNamesRoundTrip)
{
    for (const auto op :
         {CollOp::barrier, CollOp::broadcast, CollOp::reduce,
          CollOp::allReduce, CollOp::gather, CollOp::allGather,
          CollOp::scatter, CollOp::allToAll}) {
        EXPECT_EQ(collOpFromName(collOpName(op)), op);
    }
    EXPECT_EQ(collOpFromName("bcast"), CollOp::broadcast);
    EXPECT_THROW(collOpFromName("frobnicate"), FatalError);
}

TEST(RecordTest, Classification)
{
    EXPECT_TRUE(isBlockingRecord(RecvRec{}));
    EXPECT_TRUE(isBlockingRecord(WaitRec{}));
    EXPECT_FALSE(isBlockingRecord(IRecvRec{}));
    EXPECT_FALSE(isBlockingRecord(CpuBurst{1}));
}

TEST(RecordTest, ToStringMentionsFields)
{
    const std::string s =
        recordToString(SendRec{3, 7, 1024, 99});
    EXPECT_NE(s.find("dst=3"), std::string::npos);
    EXPECT_NE(s.find("tag=7"), std::string::npos);
    EXPECT_NE(s.find("1024"), std::string::npos);
}

TEST(TraceTest, RankTraceTotals)
{
    const auto traces = makeSimpleTrace();
    EXPECT_EQ(traces.rankTrace(0).totalInstructions(), 1000u);
    EXPECT_EQ(traces.rankTrace(1).totalInstructions(), 2000u);
}

TEST(TraceTest, TraceSetAggregates)
{
    const auto traces = makeSimpleTrace();
    EXPECT_EQ(traces.ranks(), 2);
    EXPECT_EQ(traces.totalRecords(), 6u);
    EXPECT_EQ(traces.totalSentBytes(), 4096u);
    EXPECT_EQ(traces.totalMessages(), 1u);
    EXPECT_THROW(traces.rankTrace(2), PanicError);
    EXPECT_THROW(traces.rankTrace(-1), PanicError);
}

TEST(TraceTest, RejectsBadConstruction)
{
    EXPECT_THROW(TraceSet("x", 0), PanicError);
    EXPECT_THROW(TraceSet("x", 2, -1.0), PanicError);
}

TEST(TraceIoTest, RoundTripPreservesEverything)
{
    const auto original = makeFullTrace();
    std::stringstream stream;
    writeTraceText(original, stream);
    const auto parsed = readTraceText(stream);

    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_DOUBLE_EQ(parsed.mips(), original.mips());
    ASSERT_EQ(parsed.ranks(), original.ranks());
    for (Rank r = 0; r < original.ranks(); ++r) {
        const auto &a = original.rankTrace(r).records();
        const auto &b = parsed.rankTrace(r).records();
        ASSERT_EQ(a.size(), b.size()) << "rank " << r;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(recordToString(a[i]), recordToString(b[i]))
                << "rank " << r << " record " << i;
        }
    }
}

TEST(TraceIoTest, RejectsBadMagic)
{
    std::stringstream stream("not a trace\n");
    EXPECT_THROW(readTraceText(stream), FatalError);
}

TEST(TraceIoTest, RejectsGarbageRecords)
{
    std::stringstream stream(
        "#OVLSIM-TRACE 1\nranks 1\nrank 0\nzz 12\n");
    EXPECT_THROW(readTraceText(stream), FatalError);
}

TEST(TraceIoTest, RejectsRecordBeforeRankHeader)
{
    std::stringstream stream("#OVLSIM-TRACE 1\nranks 1\nc 10\n");
    EXPECT_THROW(readTraceText(stream), FatalError);
}

TEST(TraceIoTest, RejectsRankOutOfRange)
{
    std::stringstream stream("#OVLSIM-TRACE 1\nranks 1\nrank 3\n");
    EXPECT_THROW(readTraceText(stream), FatalError);
}

/** The FatalError message reading `records` (as rank 0 of a
 * two-rank trace, from line 4 on) raises. */
std::string
readError(const std::string &records)
{
    std::stringstream stream("#OVLSIM-TRACE 1\nranks 2\nrank 0\n" +
                             records);
    try {
        readTraceText(stream);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "parsed";
}

TEST(TraceIoTest, RejectsNegativeByteCounts)
{
    EXPECT_EQ(readError("s 1 0 -8 0\n"),
              "trace line 4: negative value '-8'");
}

TEST(TraceIoTest, RejectsNegativeInstructionCounts)
{
    EXPECT_EQ(readError("c -1\n"),
              "trace line 4: negative value '-1'");
}

TEST(TraceIoTest, NonNumericFieldsNameTheLine)
{
    EXPECT_EQ(readError("c 10\ns 1 x 8 0\n"),
              "trace line 5: cannot parse 'x' as a number");
}

TEST(TraceIoTest, FileReadErrorsNameThePath)
{
    const std::string path =
        ::testing::TempDir() + "ovl_bad_trace.txt";
    {
        std::ofstream os(path);
        os << "#OVLSIM-TRACE 1\nranks 1\nrank 0\nc 1x\n";
    }
    try {
        readTraceFile(path);
        FAIL() << path << " parsed";
    } catch (const FatalError &err) {
        EXPECT_EQ(std::string(err.what()),
                  path + " line 4: cannot parse '1x' as a number");
    }
}

/** The FatalError message reading `text` as trace `bad.trace`
 * raises; "parsed" if it parses. */
std::string
traceError(const std::string &text)
{
    std::stringstream stream(text);
    try {
        readTraceText(stream, "bad.trace");
    } catch (const FatalError &err) {
        return err.what();
    }
    return "parsed";
}

TEST(TraceIoTest, MemoryFollowsTheSectionsNotTheRanksHeader)
{
    // Sections are allocated as they appear: this header alone would
    // take 13.7 GB of empty rank traces.
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nranks 429496729\nrank 0\n"
                         "c 5\n"),
              "bad.trace line 2: 'ranks 429496729' but 1 'rank' "
              "sections follow");
    // Sections come once each, in order.
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nranks 2\nrank 1\n"),
              "bad.trace line 3: expected 'rank 0'");
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nranks 2\nrank 0\nrank 0\n"),
              "bad.trace line 4: expected 'rank 1'");
}

TEST(TraceIoTest, ASecondRanksHeaderIsFatal)
{
    // Not a reset: it would discard every record before it.
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nranks 1\nrank 0\nc 5\n"
                         "ranks 1\nrank 0\n"),
              "bad.trace line 5: 'ranks' after the first 'rank' "
              "section");
}

TEST(TraceIoTest, HeadersComeOnceBeforeTheFirstSection)
{
    // Any header order applies up to the first section.
    std::stringstream stream(
        "#OVLSIM-TRACE 1\nranks 1\nname late  name\nmips 5\nrank 0\n");
    const TraceSet traces = readTraceText(stream, "late.trace");
    EXPECT_EQ(traces.mips(), 5.0);
    EXPECT_EQ(traces.name(), "late  name");
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nmips 5\nranks 1\nmips 6\n"),
              "bad.trace line 4: duplicate key 'mips' (first set on "
              "line 2)");
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nranks 1\nrank 0\n"
                         "name after\n"),
              "bad.trace line 4: 'name' after the first 'rank' "
              "section");
}

TEST(TraceIoTest, MipsMustBeFinite)
{
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nmips inf\nranks 1\n"
                         "rank 0\n"),
              "bad.trace line 2: value 'inf' is not finite");
}

TEST(TraceIoTest, UnknownCollectivesNameTheLine)
{
    EXPECT_EQ(traceError("#OVLSIM-TRACE 1\nranks 1\nrank 0\n"
                         "g nosuchop 1 1 0\n"),
              "bad.trace line 4: unknown collective op 'nosuchop' "
              "(expected barrier, broadcast, reduce, allreduce, "
              "gather, allgather, scatter or alltoall)");
}

/** The FatalError message reading `lines` after the magic line as
 * overlap metadata `bad.meta` raises; "parsed" if it parses. */
std::string
overlapError(const std::string &lines)
{
    std::stringstream stream("#OVLSIM-OVERLAP 1\n" + lines);
    try {
        readOverlapText(stream, "bad.meta");
    } catch (const FatalError &err) {
        return err.what();
    }
    return "parsed";
}

TEST(OverlapIoTest, RanksDoNotNarrow)
{
    // 2^32 must not narrow into rank 0.
    EXPECT_EQ(overlapError("msg 1 4294967296 1 0 64 0 0 0 0 64\n"),
              "bad.meta line 2: value '4294967296' out of range");
}

TEST(OverlapIoTest, NegativeBytesAndPointsAreFatal)
{
    // Unsigned fields take no sign instead of wrapping.
    EXPECT_EQ(overlapError("msg 1 0 1 0 -64 0 0 0 0 64\n"),
              "bad.meta line 2: negative value '-64'");
    EXPECT_EQ(overlapError("msg 1 0 1 0 64 0 0 0 0 64\nprod 1 1 -5\n"
                           "cons 1 1 0\n"),
              "bad.meta line 3: negative value '-5'");
}

TEST(OverlapIoTest, ProfileCountsAreCheckedBeforeUse)
{
    // The count is checked before it sizes anything.
    EXPECT_EQ(overlapError("msg 1 0 1 0 64 0 0 0 0 64\nprod 1 -1 7\n"),
              "bad.meta line 3: negative value '-1'");
    EXPECT_EQ(overlapError("msg 1 0 1 0 64 0 0 0 0 64\n"
                           "prod 1 18446744073709551615 7\n"),
              "bad.meta line 3: profile of 18446744073709551615 points "
              "holds 1");
}

TEST(OverlapIoTest, MissingProfilesNameTheMessageLine)
{
    EXPECT_EQ(overlapError("msg 1 0 1 0 64 0 0 0 0 64\nprod 1 1 7\n"
                           "cons 1 1 7\n\nmsg 2 0 1 0 64 0 0 0 0 64\n"
                           "prod 2 1 7\n"),
              "bad.meta line 6: message 2 has no 'cons' profile");
    EXPECT_EQ(overlapError("msg 1 0 1 0 64 0 0 0 0 64\n"
                           "msg 2 0 1 0 64 0 0 0 0 64\n"),
              "bad.meta line 3: expected a 'prod' line");
}

TEST(OverlapIoTest, FileReadErrorsNameThePathAndLine)
{
    const std::string path = ::testing::TempDir() + "ovl_bad_meta.txt";
    std::ofstream(path) << "#OVLSIM-OVERLAP 1\n"
                           "msg 1 0 1 0 6x4 0 0 0 0 64\n";
    try {
        readOverlapFile(path);
        FAIL() << path << " parsed";
    } catch (const FatalError &err) {
        EXPECT_EQ(std::string(err.what()),
                  path + " line 2: cannot parse '6x4' as a number");
    }
}

TEST(OverlapIoTest, RoundTrip)
{
    OverlapSet overlap;
    MessageOverlapInfo info;
    info.id = 42;
    info.src = 0;
    info.dst = 1;
    info.tag = 9;
    info.bytes = 8192;
    info.sendInstr = 5000;
    info.recvInstr = 100;
    info.prodWindowBegin = 1000;
    info.consWindowEnd = 9000;
    info.blockBytes = 2048;
    info.blockLastStore = {1500, 2500, 4500, 5000};
    info.blockFirstLoad = {100, 200, 8000, 9000};
    overlap.add(info);

    std::stringstream stream;
    writeOverlapText(overlap, stream);
    const auto parsed = readOverlapText(stream);

    ASSERT_EQ(parsed.size(), 1u);
    const auto &p = parsed.get(42);
    EXPECT_EQ(p.src, 0);
    EXPECT_EQ(p.dst, 1);
    EXPECT_EQ(p.bytes, 8192u);
    EXPECT_EQ(p.sendInstr, 5000u);
    EXPECT_EQ(p.prodWindowBegin, 1000u);
    EXPECT_EQ(p.consWindowEnd, 9000u);
    EXPECT_EQ(p.blockBytes, 2048u);
    EXPECT_EQ(p.blockLastStore, info.blockLastStore);
    EXPECT_EQ(p.blockFirstLoad, info.blockFirstLoad);
}

TEST(OverlapSetTest, DuplicateAndMissingIds)
{
    OverlapSet overlap;
    MessageOverlapInfo info;
    info.id = 7;
    overlap.add(info);
    EXPECT_THROW(overlap.add(info), PanicError);
    EXPECT_THROW(overlap.get(8), PanicError);
    EXPECT_TRUE(overlap.contains(7));
}

TEST(ValidateTest, AcceptsWellFormedTraces)
{
    EXPECT_TRUE(validateTraceSet(makeSimpleTrace()).valid());
    EXPECT_TRUE(validateTraceSet(makeFullTrace()).valid());
}

TEST(ValidateTest, DetectsUnmatchedSend)
{
    auto traces = makeSimpleTrace();
    traces.rankTrace(0).append(SendRec{1, 99, 64, 0});
    const auto report = validateTraceSet(traces);
    EXPECT_FALSE(report.valid());
    EXPECT_NE(report.toString().find("tag 99"),
              std::string::npos);
}

TEST(ValidateTest, DetectsByteMismatch)
{
    TraceSet traces("bad", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 100, 0});
    traces.rankTrace(1).append(RecvRec{0, 1, 200, 0});
    const auto report = validateTraceSet(traces);
    EXPECT_FALSE(report.valid());
    EXPECT_NE(report.toString().find("100"), std::string::npos);
}

TEST(ValidateTest, DetectsReusedRequest)
{
    TraceSet traces("bad", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(ISendRec{1, 1, 10, 0, 5});
    r0.append(ISendRec{1, 1, 10, 0, 5});
    r0.append(WaitAllRec{});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 1, 10, 0});
    r1.append(RecvRec{0, 1, 10, 0});
    const auto report = validateTraceSet(traces);
    EXPECT_FALSE(report.valid());
    EXPECT_NE(report.toString().find("reused"),
              std::string::npos);
}

TEST(ValidateTest, DetectsUnwaitedRequest)
{
    TraceSet traces("bad", 2);
    traces.rankTrace(0).append(ISendRec{1, 1, 10, 0, 5});
    traces.rankTrace(1).append(RecvRec{0, 1, 10, 0});
    const auto report = validateTraceSet(traces);
    EXPECT_FALSE(report.valid());
    EXPECT_NE(report.toString().find("never completed"),
              std::string::npos);
}

TEST(ValidateTest, DetectsCollectiveMismatch)
{
    TraceSet traces("bad", 2);
    traces.rankTrace(0).append(
        CollectiveRec{CollOp::barrier, 0, 0, 0});
    traces.rankTrace(1).append(
        CollectiveRec{CollOp::allReduce, 8, 8, 0});
    EXPECT_FALSE(validateTraceSet(traces).valid());
}

TEST(ValidateTest, DetectsCollectiveCountMismatch)
{
    TraceSet traces("bad", 2);
    traces.rankTrace(0).append(
        CollectiveRec{CollOp::barrier, 0, 0, 0});
    EXPECT_FALSE(validateTraceSet(traces).valid());
}

TEST(ValidateTest, DetectsWaitOnUnknownRequest)
{
    TraceSet traces("bad", 1);
    traces.rankTrace(0).append(WaitRec{77});
    const auto report = validateTraceSet(traces);
    EXPECT_FALSE(report.valid());
    EXPECT_NE(report.toString().find("unknown request"),
              std::string::npos);
}

TEST(ValidateTest, FlagsWildcardSentinels)
{
    // The engine has no wildcard matching; the validator must call
    // out anyRank/anyTag explicitly instead of a generic
    // invalid-rank complaint (and anyTag would otherwise slip
    // through entirely).
    {
        auto traces = makeSimpleTrace();
        traces.rankTrace(1).append(RecvRec{anyRank, 5, 64, 0});
        const auto report = validateTraceSet(traces);
        EXPECT_FALSE(report.valid());
        EXPECT_NE(report.toString().find("anyRank wildcard"),
                  std::string::npos);
    }
    {
        auto traces = makeSimpleTrace();
        traces.rankTrace(1).append(
            IRecvRec{0, anyTag, 64, 0, 99});
        const auto report = validateTraceSet(traces);
        EXPECT_FALSE(report.valid());
        EXPECT_NE(report.toString().find("anyTag wildcard"),
                  std::string::npos);
    }
    {
        auto traces = makeSimpleTrace();
        traces.rankTrace(0).append(SendRec{1, anyTag, 64, 0});
        const auto report = validateTraceSet(traces);
        EXPECT_FALSE(report.valid());
        EXPECT_NE(report.toString().find("anyTag wildcard"),
                  std::string::npos);
    }
}

TEST(LinkTest, AssignsSharedIdsInFifoOrder)
{
    TraceSet traces("link", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(SendRec{1, 4, 100, 900});
    r0.append(SendRec{1, 4, 200, 901});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 4, 100, 800});
    r1.append(RecvRec{0, 4, 200, 801});

    const auto result = linkTraceSet(traces, nullptr, nullptr,
                                     nullptr);
    EXPECT_EQ(result.linkedMessages, 2u);

    const auto &send0 =
        std::get<SendRec>(traces.rankTrace(0).records()[0]);
    const auto &send1 =
        std::get<SendRec>(traces.rankTrace(0).records()[1]);
    const auto &recv0 =
        std::get<RecvRec>(traces.rankTrace(1).records()[0]);
    const auto &recv1 =
        std::get<RecvRec>(traces.rankTrace(1).records()[1]);
    EXPECT_EQ(send0.message, recv0.message);
    EXPECT_EQ(send1.message, recv1.message);
    EXPECT_NE(send0.message, send1.message);
    EXPECT_NE(send0.message, invalidMessageId);
}

TEST(LinkTest, MergesEndpointProfiles)
{
    TraceSet traces("link", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 100, 900});
    traces.rankTrace(1).append(RecvRec{0, 1, 100, 800});

    OverlapSet senders;
    MessageOverlapInfo sp;
    sp.id = 900;
    sp.sendInstr = 555;
    sp.prodWindowBegin = 100;
    sp.blockBytes = 50;
    sp.blockLastStore = {400, 555};
    senders.add(sp);

    OverlapSet receivers;
    MessageOverlapInfo rp;
    rp.id = 800;
    rp.recvInstr = 10;
    rp.consWindowEnd = 300;
    rp.blockFirstLoad = {20, 250};
    receivers.add(rp);

    OverlapSet merged;
    linkTraceSet(traces, &senders, &receivers, &merged);
    ASSERT_EQ(merged.size(), 1u);
    const auto &info = merged.all().begin()->second;
    EXPECT_EQ(info.sendInstr, 555u);
    EXPECT_EQ(info.recvInstr, 10u);
    EXPECT_EQ(info.prodWindowBegin, 100u);
    EXPECT_EQ(info.consWindowEnd, 300u);
    EXPECT_EQ(info.blockLastStore.size(), 2u);
    EXPECT_EQ(info.blockFirstLoad.size(), 2u);
    EXPECT_EQ(info.bytes, 100u);
}

TEST(LinkTest, FailsOnUnmatchedTraffic)
{
    TraceSet traces("bad", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 100, 0});
    EXPECT_THROW(linkTraceSet(traces, nullptr, nullptr, nullptr),
                 FatalError);
}

TEST(LinkTest, FailsOnSizeMismatch)
{
    TraceSet traces("bad", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 100, 0});
    traces.rankTrace(1).append(RecvRec{0, 1, 999, 0});
    EXPECT_THROW(linkTraceSet(traces, nullptr, nullptr, nullptr),
                 FatalError);
}

TEST(TraceStatsTest, CountsPerRankAndMatrix)
{
    const auto stats = computeTraceStats(makeFullTrace());
    ASSERT_EQ(stats.perRank.size(), 2u);
    EXPECT_EQ(stats.perRank[0].sends, 2u);
    EXPECT_EQ(stats.perRank[0].recvs, 1u);
    EXPECT_EQ(stats.perRank[0].sentBytes, 300u);
    EXPECT_EQ(stats.perRank[1].sends, 1u);
    EXPECT_EQ(stats.perRank[1].recvs, 2u);
    EXPECT_EQ(stats.totalMessages, 3u);
    EXPECT_EQ(stats.totalBytes, 600u);
    EXPECT_EQ(stats.totalCollectives, 2u);
    EXPECT_EQ((stats.commMatrix.at({0, 1})), 300u);
    EXPECT_EQ((stats.commMatrix.at({1, 0})), 300u);
    EXPECT_DOUBLE_EQ(stats.avgMessageBytes(), 200.0);
    EXPECT_FALSE(stats.toString().empty());
}

} // namespace
} // namespace ovlsim::trace
