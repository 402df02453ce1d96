/**
 * @file
 * Point-to-point matching: the compiler's static send/receive
 * pairing (sim/program.hh) and golden replay pins of the matching
 * shapes the paper-app pins of test_bus_admission do not reach.
 *
 * MPI's non-overtaking rule pairs the k-th send on a (src, dst, tag)
 * channel with the k-th receive on it, whichever is posted first at
 * run time, so the compiler pairs them once and the engine only
 * meets the two endpoints of a pre-assigned message slot. The replay
 * pins (total time, events processed, channel probes and a hash of
 * every rank's end time) were recorded with the engine's run-time
 * per-channel FIFO matching and must hold bit for bit: several eager
 * and rendezvous sends outstanding on one channel before their
 * receives, receives posted before their sends, a rank sending to
 * itself, a leftover unmatched eager send, a seeded many-channel
 * exchange, and an incomplete trace's deadlock diagnosis, compared
 * verbatim. The two pins with rendezvous sends posted after their
 * receives (receives first, seeded exchange) start those transfers
 * at the match, the send's post, not at the receive's.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/engine.hh"
#include "sim/platform.hh"
#include "sim/program.hh"
#include "trace/record.hh"
#include "trace/trace.hh"
#include "util/counter_rng.hh"

#include "helpers.hh"

namespace ovlsim {
namespace {

using trace::CpuBurst;
using trace::IRecvRec;
using trace::ISendRec;
using trace::RecvRec;
using trace::SendRec;
using trace::TraceSet;
using trace::WaitAllRec;
using trace::WaitRec;

/** What one replay pins. */
struct Pin
{
    std::int64_t totalNs;
    std::uint64_t events;
    std::uint64_t probes;
    std::uint64_t endHash;
};

void
expectPin(const sim::SimResult &run, const Pin &pin)
{
    EXPECT_EQ(run.totalTime.ns(), pin.totalNs);
    EXPECT_EQ(run.eventsProcessed, pin.events);
    EXPECT_EQ(run.stats.channelProbes, pin.probes);
    EXPECT_EQ(testing::endTimeHash(run), pin.endHash);
}

/** Default cluster where sends above 4 KiB use rendezvous, isends
 * included. */
sim::PlatformConfig
rendezvousPlatform()
{
    auto platform = testing::platformAt(64.0);
    platform.eagerThreshold = 4096;
    platform.forceEagerIsend = false;
    return platform;
}

/** The message slot of each point-to-point op of rank `r`, in
 * program order. */
std::vector<std::uint32_t>
slotsOf(const sim::ReplayProgram &program, Rank r)
{
    std::vector<std::uint32_t> slots;
    for (std::size_t i = 0; i < program.opCount(r); ++i) {
        const auto kind =
            static_cast<trace::RecordKind>(program.kindsOf(r)[i]);
        if (kind == trace::RecordKind::send ||
            kind == trace::RecordKind::isend ||
            kind == trace::RecordKind::recv ||
            kind == trace::RecordKind::irecv)
            slots.push_back(program.opsOf(r)[i].d);
    }
    return slots;
}

// ---------------------------------------------------------------
// The compiler's pairing pass.
// ---------------------------------------------------------------

TEST(MessagePairingTest, PairsTheKthSendWithTheKthReceivePerChannel)
{
    // Rank 0 sends three messages on tag 1 and one on tag 2; rank 1
    // receives tag 2 first. Each channel pairs in its own posting
    // order, and slots are numbered in the order pairs complete.
    TraceSet traces("pairs", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(SendRec{1, 1, 10, 1});
    r0.append(CpuBurst{100});
    r0.append(ISendRec{1, 1, 20, 2, 7});
    r0.append(SendRec{1, 2, 30, 3});
    r0.append(SendRec{1, 1, 40, 4});
    r0.append(WaitRec{7});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 2, 30, 3});
    r1.append(IRecvRec{0, 1, 10, 1, 9});
    r1.append(RecvRec{0, 1, 20, 2});
    r1.append(WaitRec{9});
    r1.append(RecvRec{0, 1, 40, 4});

    const auto program = sim::compileTrace(traces);
    EXPECT_EQ(program.messageSlots(), 4u);
    EXPECT_EQ(slotsOf(program, 0),
              (std::vector<std::uint32_t>{1, 2, 0, 3}));
    EXPECT_EQ(slotsOf(program, 1),
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(MessagePairingTest, SelfSendsPairInProgramOrder)
{
    TraceSet traces("self", 1);
    auto &r0 = traces.rankTrace(0);
    r0.append(IRecvRec{0, 4, 8, 1, 1});
    r0.append(SendRec{0, 4, 8, 1});
    r0.append(SendRec{0, 4, 16, 2});
    r0.append(RecvRec{0, 4, 16, 2});
    r0.append(WaitRec{1});

    const auto program = sim::compileTrace(traces);
    EXPECT_EQ(program.messageSlots(), 2u);
    EXPECT_EQ(slotsOf(program, 0),
              (std::vector<std::uint32_t>{0, 0, 1, 1}));
}

TEST(MessagePairingTest, EndpointsWithoutAPartnerGetNoSlot)
{
    // Two receives and one send on the same channel: the second
    // receive has no partner. Rank 1's leftover send has none either.
    TraceSet traces("unpaired", 2);
    traces.rankTrace(0).append(RecvRec{1, 3, 64, 1});
    traces.rankTrace(0).append(RecvRec{1, 3, 64, 2});
    traces.rankTrace(1).append(SendRec{0, 3, 64, 1});
    traces.rankTrace(1).append(SendRec{0, 5, 64, 3});

    const auto program = sim::compileTrace(traces);
    EXPECT_EQ(program.messageSlots(), 1u);
    EXPECT_EQ(slotsOf(program, 0),
              (std::vector<std::uint32_t>{0, sim::noSlot}));
    EXPECT_EQ(slotsOf(program, 1),
              (std::vector<std::uint32_t>{0, sim::noSlot}));
}

/** A seeded exchange of `messages` non-blocking messages between
 * `ranks` ranks over a few tags: every rank posts its endpoints in
 * one global message order, with compute bursts in between, and
 * retires them with one WaitAll. Deadlock-free by construction (no
 * op blocks before the WaitAll). */
TraceSet
seededExchange(int ranks, int messages, std::uint64_t seed)
{
    TraceSet traces("seeded", ranks);
    CounterRng rng(seed);
    std::vector<trace::RequestId> next_req(
        static_cast<std::size_t>(ranks), 1);
    for (int m = 0; m < messages; ++m) {
        const auto src = static_cast<Rank>(rng.nextBelow(
            static_cast<std::uint64_t>(ranks)));
        const auto dst = static_cast<Rank>(rng.nextBelow(
            static_cast<std::uint64_t>(ranks)));
        const auto tag = static_cast<Tag>(rng.nextBelow(3));
        const auto bytes =
            static_cast<Bytes>(rng.nextInRange(1, 64 * 1024));
        const auto message = static_cast<trace::MessageId>(m + 1);
        auto &sender = traces.rankTrace(src);
        sender.append(CpuBurst{
            static_cast<Instr>(rng.nextInRange(0, 200'000))});
        sender.append(ISendRec{dst, tag, bytes, message,
                               next_req[static_cast<std::size_t>(
                                   src)]++});
        auto &receiver = traces.rankTrace(dst);
        receiver.append(CpuBurst{
            static_cast<Instr>(rng.nextInRange(0, 200'000))});
        receiver.append(IRecvRec{src, tag, bytes, message,
                                 next_req[static_cast<std::size_t>(
                                     dst)]++});
    }
    for (Rank r = 0; r < ranks; ++r)
        traces.rankTrace(r).append(WaitAllRec{});
    return traces;
}

TEST(MessagePairingTest, CompilingTwiceYieldsIdenticalPrograms)
{
    const auto traces = seededExchange(4, 300, 11);
    const auto first = sim::compileTrace(traces);
    const auto second = sim::compileTrace(traces);
    EXPECT_TRUE(first == second);
    EXPECT_EQ(first.messageSlots(), 300u);
    EXPECT_GT(first.memoryBytes(), 0u);
}

TEST(MessagePairingTest, EqualityIgnoresTheNameAndNothingElse)
{
    // Campaigns replay one of two equal programs for both, so
    // equality covers every member a replay reads; the name, read
    // only by decode(), is left out.
    const auto traces = seededExchange(4, 300, 11);
    const auto program = sim::compileTrace(traces);

    auto renamed = traces;
    renamed.setName("renamed");
    EXPECT_TRUE(program == sim::compileTrace(renamed));

    auto faster = traces;
    faster.setMips(2 * traces.mips());
    EXPECT_FALSE(program == sim::compileTrace(faster));

    auto longer = traces;
    auto &records = longer.rankTrace(2).records();
    const auto burst = std::find_if(
        records.begin(), records.end(), [](const trace::Record &rec) {
            return std::holds_alternative<CpuBurst>(rec);
        });
    ASSERT_NE(burst, records.end());
    std::get<CpuBurst>(*burst).instructions += 1;
    EXPECT_FALSE(program == sim::compileTrace(longer));
}

TEST(MessagePairingTest, DecodeRoundTripIsLossless)
{
    for (const auto &traces :
         {seededExchange(4, 300, 11), seededExchange(3, 50, 5)}) {
        const auto decoded = sim::compileTrace(traces).decode();
        ASSERT_EQ(decoded.ranks(), traces.ranks());
        for (Rank r = 0; r < traces.ranks(); ++r) {
            const auto &want = traces.rankTrace(r).records();
            const auto &got = decoded.rankTrace(r).records();
            ASSERT_EQ(got.size(), want.size()) << "rank " << r;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(trace::recordToString(got[i]),
                          trace::recordToString(want[i]))
                    << "rank " << r << " record " << i;
            }
        }
    }
}

// ---------------------------------------------------------------
// Replay pins recorded from run-time channel matching.
// ---------------------------------------------------------------

TEST(MatchingPinTest, SendsOutstandingBeforeTheirReceives)
{
    // Rank 0 posts eager sends and rendezvous isends on one channel
    // (plus one eager send on a second channel) long before rank 1
    // receives them, then a blocking rendezvous send.
    TraceSet traces("sends-first", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(SendRec{1, 7, 1'000, 1});
    r0.append(ISendRec{1, 7, 65'536, 2, 1});
    r0.append(SendRec{1, 7, 2'000, 3});
    r0.append(ISendRec{1, 7, 131'072, 4, 2});
    r0.append(SendRec{1, 8, 512, 5});
    r0.append(ISendRec{1, 7, 300, 6, 3});
    r0.append(WaitAllRec{});
    r0.append(SendRec{1, 7, 50'000, 7});
    auto &r1 = traces.rankTrace(1);
    r1.append(CpuBurst{5'000'000});
    r1.append(RecvRec{0, 7, 1'000, 1});
    r1.append(IRecvRec{0, 7, 65'536, 2, 1});
    r1.append(RecvRec{0, 8, 512, 5});
    r1.append(RecvRec{0, 7, 2'000, 3});
    r1.append(IRecvRec{0, 7, 131'072, 4, 2});
    r1.append(IRecvRec{0, 7, 300, 6, 3});
    r1.append(WaitAllRec{});
    r1.append(RecvRec{0, 7, 50'000, 7});

    expectPin(sim::simulate(traces, rendezvousPlatform()),
              {8'869'250, 17, 14, 0xb8c1b3d4848a71f4ULL});
}

TEST(MatchingPinTest, ReceivesPostedBeforeTheirSends)
{
    // Rank 1 posts receives on 0 -> 1 and 2 -> 1 (same tag) before
    // either sender runs; the senders mix eager, blocking
    // rendezvous and a rendezvous isend.
    TraceSet traces("recvs-first", 3);
    auto &r1 = traces.rankTrace(1);
    r1.append(IRecvRec{0, 5, 4'096, 1, 1});
    r1.append(IRecvRec{2, 5, 8'192, 2, 2});
    r1.append(IRecvRec{0, 5, 100'000, 3, 3});
    r1.append(IRecvRec{0, 5, 16, 4, 4});
    r1.append(IRecvRec{2, 5, 2'048, 5, 5});
    r1.append(WaitAllRec{});
    r1.append(RecvRec{0, 6, 777, 6});
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{2'000'000});
    r0.append(SendRec{1, 5, 4'096, 1});
    r0.append(CpuBurst{100'000});
    r0.append(ISendRec{1, 5, 100'000, 3, 1});
    r0.append(SendRec{1, 5, 16, 4});
    r0.append(WaitRec{1});
    r0.append(SendRec{1, 6, 777, 6});
    auto &r2 = traces.rankTrace(2);
    r2.append(CpuBurst{1'500'000});
    r2.append(SendRec{1, 5, 8'192, 2});
    r2.append(SendRec{1, 5, 2'048, 5});

    expectPin(sim::simulate(traces, rendezvousPlatform()),
              {3'682'891, 18, 12, 0x8970f4dd3f6cbfb8ULL});
}

TEST(MatchingPinTest, RankSendingToItself)
{
    // Rank 0 exchanges with itself (eager isend before its receive,
    // a rendezvous send into a posted irecv, an eager send long
    // before its receive) and receives one message from rank 1 on
    // the same tag as one of its self-sends.
    TraceSet traces("self", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(ISendRec{0, 1, 1'024, 1, 1});
    r0.append(RecvRec{0, 1, 1'024, 1});
    r0.append(WaitRec{1});
    r0.append(IRecvRec{0, 2, 1'000'000, 2, 2});
    r0.append(SendRec{0, 2, 1'000'000, 2});
    r0.append(WaitRec{2});
    r0.append(SendRec{0, 3, 64, 3});
    r0.append(CpuBurst{1'000});
    r0.append(RecvRec{0, 3, 64, 3});
    r0.append(RecvRec{1, 1, 500, 4});
    traces.rankTrace(1).append(SendRec{0, 1, 500, 4});

    expectPin(sim::simulate(traces, rendezvousPlatform()),
              {124'195, 11, 8, 0xcea87acef9617f34ULL});
}

TEST(MatchingPinTest, LeftoverUnmatchedEagerSend)
{
    // Three eager sends, two receives: the third send is injected
    // and arrives but is never received; the replay still
    // completes.
    TraceSet traces("leftover", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(SendRec{1, 0, 100, 1});
    r0.append(SendRec{1, 0, 200, 2});
    r0.append(SendRec{1, 0, 300, 3});
    r0.append(CpuBurst{1'000});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 0, 100, 1});
    r1.append(RecvRec{0, 0, 200, 2});
    r1.append(CpuBurst{500});

    const auto result = sim::simulate(traces, rendezvousPlatform());
    EXPECT_EQ(result.transfers, 3u);
    EXPECT_EQ(result.perRank[1].messagesReceived, 2u);
    expectPin(result, {13'188, 10, 5, 0x4f4eb8630184a2f9ULL});
}

TEST(MatchingPinTest, SeededManyChannelExchange)
{
    // Eager and rendezvous isends and irecvs over 4 ranks and 3 tags
    // (self-sends included), on the default bus with one in/out
    // link per node, so matching order feeds admission order.
    const auto traces = seededExchange(4, 300, 11);
    sim::ReplaySession session;
    const auto result = session.run(traces, rendezvousPlatform());
    expectPin(result, {33'475'632, 1'204, 600, 0x402f14a11e9d8318ULL});
    // Session reuse replays identically.
    testing::expectIdentical(
        session.run(traces, rendezvousPlatform()), result);
}

TEST(MatchingPinTest, IncompleteTraceDeadlockDiagnosis)
{
    // Rank 0 receives a message nobody sends; rank 1 waits on an
    // irecv nobody serves after an eager send nobody receives.
    TraceSet traces("stuck", 2);
    traces.rankTrace(0).append(RecvRec{1, 1, 100, 1});
    auto &r1 = traces.rankTrace(1);
    r1.append(CpuBurst{1'000});
    r1.append(IRecvRec{0, 2, 64, 2, 1});
    r1.append(SendRec{0, 3, 64, 3});
    r1.append(WaitRec{1});
    try {
        sim::simulate(traces, rendezvousPlatform());
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_EQ(std::string(err.what()),
                  "replay deadlocked with 2 rank(s) unfinished:\n"
                  "  rank 0: blocked=yes state=recv-blocked pc=1/1 "
                  "awaiting=0\n"
                  "  rank 1: blocked=yes state=wait-blocked pc=4/4 "
                  "awaiting=1");
    }
}

} // namespace
} // namespace ovlsim
