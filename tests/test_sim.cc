/**
 * @file
 * Unit tests for the platform model and the replay engine.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "net/topology.hh"
#include "sim/engine.hh"
#include "sim/platform.hh"
#include "sim/timeline.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace ovlsim::sim {
namespace {

using trace::CollectiveRec;
using trace::CollOp;
using trace::CpuBurst;
using trace::IRecvRec;
using trace::ISendRec;
using trace::RecvRec;
using trace::SendRec;
using trace::TraceSet;
using trace::WaitRec;

/** Serialization time in ns on the default 256 MB/s cluster. */
std::int64_t
serNs(Bytes bytes, double mbps = 256.0)
{
    return static_cast<std::int64_t>(
        static_cast<double>(bytes) * 1000.0 / mbps);
}

constexpr std::int64_t latNs = 8000; // 8 us

TEST(PlatformTest, BurstDurationUsesMipsAndRatio)
{
    PlatformConfig platform;
    // 1e6 instructions at 1000 MIPS is 1 ms.
    EXPECT_EQ(platform.burstDuration(1'000'000, 1000.0).ns(),
              1'000'000);
    platform.cpuRatio = 2.0;
    EXPECT_EQ(platform.burstDuration(1'000'000, 1000.0).ns(),
              500'000);
    platform.cpuRatio = 1.0;
    platform.mipsOverride = 500.0;
    EXPECT_EQ(platform.burstDuration(1'000'000, 1000.0).ns(),
              2'000'000);
}

TEST(PlatformTest, SerializationAndLatency)
{
    const auto platform = platforms::defaultCluster();
    EXPECT_EQ(platform.serializationDelay(256'000, false).ns(),
              1'000'000);
    EXPECT_EQ(platform.flightLatency(false).ns(), latNs);
    // Local transfers use the intra-node parameters.
    EXPECT_LT(platform.serializationDelay(256'000, true).ns(),
              platform.serializationDelay(256'000, false).ns());
}

TEST(PlatformTest, ValidateRejectsNonsense)
{
    PlatformConfig platform;
    platform.bandwidthMBps = -1.0;
    EXPECT_THROW(platform.validate(), FatalError);
    platform = PlatformConfig{};
    platform.cpusPerNode = 0;
    EXPECT_THROW(platform.validate(), FatalError);
    platform = PlatformConfig{};
    platform.latencyUs = -2.0;
    EXPECT_THROW(platform.validate(), FatalError);

    // NaN compares false with every bound, and a NaN bandwidth or
    // latency used to price every transfer at zero. Each double is
    // checked in a form NaN and infinity fail, naming its key.
    const auto rejects = [](const char *key, auto field) {
        for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
            PlatformConfig p;
            field(p) = bad;
            try {
                p.validate();
                ADD_FAILURE() << key << " = " << bad << " passed";
            } catch (const FatalError &err) {
                EXPECT_NE(std::string(err.what()).find(key),
                          std::string::npos)
                    << err.what();
            }
        }
    };
    using P = PlatformConfig;
    rejects("cpu_ratio", [](P &p) -> double & { return p.cpuRatio; });
    rejects("bandwidth_mbps",
            [](P &p) -> double & { return p.bandwidthMBps; });
    rejects("local_bandwidth_mbps",
            [](P &p) -> double & { return p.localBandwidthMBps; });
    rejects("latency_us", [](P &p) -> double & { return p.latencyUs; });
    rejects("local_latency_us",
            [](P &p) -> double & { return p.localLatencyUs; });
    rejects("rendezvous_overhead_us",
            [](P &p) -> double & { return p.rendezvousOverheadUs; });
    rejects("collective_latency_factor",
            [](P &p) -> double & { return p.collectives.latencyFactor; });
    rejects("collective_bandwidth_factor", [](P &p) -> double & {
        return p.collectives.bandwidthFactor;
    });
    rejects("checkpoint_interval_us",
            [](P &p) -> double & { return p.checkpointIntervalUs; });
    rejects("checkpoint_cost_us",
            [](P &p) -> double & { return p.checkpointCostUs; });
    rejects("restart_cost_us",
            [](P &p) -> double & { return p.restartCostUs; });
    rejects("checkpoint_global_interval_us", [](P &p) -> double & {
        return p.checkpointGlobalIntervalUs;
    });
    rejects("checkpoint_global_cost_us",
            [](P &p) -> double & { return p.checkpointGlobalCostUs; });
    rejects("restart_global_cost_us",
            [](P &p) -> double & { return p.restartGlobalCostUs; });

    // A replay validates first: a NaN CPU ratio is a user error, not
    // an internal one.
    TraceSet traces("t", 1);
    traces.rankTrace(0).append(CpuBurst{1'000});
    platform = platforms::defaultCluster();
    platform.cpuRatio = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(simulate(traces, platform), FatalError);
}

TEST(PlatformTest, CollectiveCostFormulas)
{
    auto platform = platforms::defaultCluster();
    // Barrier over 8 ranks: ceil(log2 8) = 3 latencies.
    EXPECT_EQ(collectiveCost(platform, CollOp::barrier, 8, 0, 0)
                  .ns(),
              3 * latNs);
    // Broadcast adds the serialization term per stage.
    EXPECT_EQ(collectiveCost(platform, CollOp::broadcast, 8,
                             256'000, 256'000)
                  .ns(),
              3 * (latNs + 1'000'000));
    // All-reduce is twice the broadcast cost.
    EXPECT_EQ(collectiveCost(platform, CollOp::allReduce, 8,
                             256'000, 256'000)
                  .ns(),
              6 * (latNs + 1'000'000));
    // All-to-all pays P-1 exchanges.
    EXPECT_EQ(collectiveCost(platform, CollOp::allToAll, 4,
                             256'000, 256'000)
                  .ns(),
              3 * (latNs + 1'000'000));
    // Factors scale the terms.
    platform.collectives.latencyFactor = 0.0;
    EXPECT_EQ(collectiveCost(platform, CollOp::barrier, 8, 0, 0)
                  .ns(),
              0);
}

TEST(EngineTest, ComputeOnlyRank)
{
    TraceSet traces("t", 1);
    traces.rankTrace(0).append(CpuBurst{2'000'000});
    const auto result =
        simulate(traces, platforms::defaultCluster());
    EXPECT_EQ(result.totalTime.ns(), 2'000'000);
    EXPECT_EQ(result.perRank[0].computeTime.ns(), 2'000'000);
    EXPECT_EQ(result.perRank[0].blockedTime().ns(), 0);
}

TEST(EngineTest, EagerPingArrivesAfterLatencyPlusSerialization)
{
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});
    const auto result =
        simulate(traces, platforms::defaultCluster());
    // Receiver completes at latency + size/bandwidth.
    EXPECT_EQ(result.perRank[1].endTime.ns(),
              latNs + serNs(256'000));
    // Eager sender returns immediately.
    EXPECT_EQ(result.perRank[0].endTime.ns(), 0);
    EXPECT_EQ(result.perRank[1].recvBlockedTime.ns(),
              latNs + serNs(256'000));
}

TEST(EngineTest, RendezvousSenderBlocksUntilReceivePosted)
{
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    traces.rankTrace(1).append(CpuBurst{1'000'000});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});

    auto platform = platforms::defaultCluster();
    platform.eagerThreshold = 0;
    const auto result = simulate(traces, platform);
    // Transfer starts when the receive posts at 1 ms; the sender
    // unblocks once the payload left (start + serialization).
    EXPECT_EQ(result.perRank[0].endTime.ns(),
              1'000'000 + serNs(256'000));
    EXPECT_EQ(result.perRank[1].endTime.ns(),
              1'000'000 + serNs(256'000) + latNs);
    EXPECT_EQ(result.perRank[0].sendBlockedTime.ns(),
              1'000'000 + serNs(256'000));
}

TEST(EngineTest, RendezvousSendPostedAfterItsReceiveStartsAtTheMatch)
{
    // The receive is posted at 0 and the 2 KB rendezvous send at
    // 200 us, so the transfer starts when the send meets the
    // receive: 2,048 ns of serialization at 1000 MB/s and 8 us of
    // latency later the receiver completes, exactly as under an
    // eager send, and the sender is blocked for the serialization.
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(CpuBurst{200'000});
    traces.rankTrace(0).append(SendRec{1, 1, 2'048, 1});
    traces.rankTrace(1).append(RecvRec{0, 1, 2'048, 1});

    for (auto platform :
         {platforms::defaultCluster(),
          platforms::topologyCluster(net::topologies::fatTree(4))}) {
        SCOPED_TRACE(platform.name);
        platform.bandwidthMBps = 1000.0;
        platform.eagerThreshold = 1024;
        const auto result = simulate(traces, platform);
        EXPECT_EQ(result.perRank[1].endTime.ns(), 210'048);
        EXPECT_EQ(result.perRank[0].sendBlockedTime.ns(), 2'048);
        platform.eagerThreshold = 4096;
        EXPECT_EQ(simulate(traces, platform).totalTime.ns(), 210'048);
    }
}

TEST(EngineTest, NonBlockingSendOverlapsCompute)
{
    TraceSet traces("t", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(ISendRec{1, 1, 256'000, 1, 10});
    r0.append(CpuBurst{5'000'000});
    r0.append(WaitRec{10});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});

    const auto result =
        simulate(traces, platforms::defaultCluster());
    // Eager isend: the wait is free, compute dominates.
    EXPECT_EQ(result.perRank[0].endTime.ns(), 5'000'000);
    EXPECT_EQ(result.perRank[0].waitBlockedTime.ns(), 0);
}

TEST(EngineTest, IrecvWaitCompletesAtArrival)
{
    TraceSet traces("t", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(IRecvRec{1, 1, 256'000, 1, 20});
    r0.append(CpuBurst{100'000});
    r0.append(WaitRec{20});
    traces.rankTrace(1).append(SendRec{0, 1, 256'000, 1});

    const auto result =
        simulate(traces, platforms::defaultCluster());
    const auto arrival = latNs + serNs(256'000);
    EXPECT_EQ(result.perRank[0].endTime.ns(), arrival);
    EXPECT_EQ(result.perRank[0].waitBlockedTime.ns(),
              arrival - 100'000);
    EXPECT_EQ(result.perRank[0].messagesReceived, 1u);
}

TEST(EngineTest, UnexpectedMessageMatchesLateRecv)
{
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 1'000, 1});
    auto &r1 = traces.rankTrace(1);
    r1.append(CpuBurst{50'000'000});
    r1.append(RecvRec{0, 1, 1'000, 1});

    const auto result =
        simulate(traces, platforms::defaultCluster());
    // The payload arrived long ago; the receive is instantaneous.
    EXPECT_EQ(result.perRank[1].endTime.ns(), 50'000'000);
    EXPECT_EQ(result.perRank[1].recvBlockedTime.ns(), 0);
}

TEST(EngineTest, FifoMatchingIsNonOvertaking)
{
    TraceSet traces("t", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(SendRec{1, 1, 1'000, 1});
    r0.append(SendRec{1, 1, 2'000, 2});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 1, 1'000, 1});
    r1.append(RecvRec{0, 1, 2'000, 2});
    // If matching were not FIFO the byte counts would mismatch and
    // the engine would fatal; completing proves ordering.
    EXPECT_NO_THROW(
        simulate(traces, platforms::defaultCluster()));

    auto &r1m = traces.rankTrace(1).records();
    r1m.clear();
    traces.rankTrace(1).append(RecvRec{0, 1, 2'000, 2});
    traces.rankTrace(1).append(RecvRec{0, 1, 1'000, 1});
    EXPECT_THROW(simulate(traces, platforms::defaultCluster()),
                 FatalError);
}

TEST(EngineTest, BarrierReleasesAllAtLatestArrivalPlusCost)
{
    TraceSet traces("t", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{3'000'000});
    r0.append(CollectiveRec{CollOp::barrier, 0, 0, 0});
    traces.rankTrace(1).append(
        CollectiveRec{CollOp::barrier, 0, 0, 0});

    const auto result =
        simulate(traces, platforms::defaultCluster());
    const auto release = 3'000'000 + latNs; // log2(2) = 1 stage
    EXPECT_EQ(result.perRank[0].endTime.ns(), release);
    EXPECT_EQ(result.perRank[1].endTime.ns(), release);
    EXPECT_EQ(result.perRank[1].collectiveTime.ns(), release);
}

TEST(EngineTest, MismatchedCollectivesFail)
{
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(
        CollectiveRec{CollOp::barrier, 0, 0, 0});
    traces.rankTrace(1).append(
        CollectiveRec{CollOp::allReduce, 8, 8, 0});
    EXPECT_THROW(simulate(traces, platforms::defaultCluster()),
                 FatalError);
}

TEST(EngineTest, BusContentionSerializesTransfers)
{
    TraceSet traces("t", 4);
    traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});
    traces.rankTrace(2).append(SendRec{3, 1, 256'000, 2});
    traces.rankTrace(3).append(RecvRec{2, 1, 256'000, 2});

    auto contended = platforms::contendedCluster(1);
    const auto serial = simulate(traces, contended);
    contended.buses = 2;
    const auto parallel = simulate(traces, contended);

    EXPECT_EQ(parallel.totalTime.ns(), latNs + serNs(256'000));
    EXPECT_EQ(serial.totalTime.ns(),
              latNs + 2 * serNs(256'000));
}

TEST(EngineTest, OutputLinkSerializesInjections)
{
    TraceSet traces("t", 3);
    auto &r0 = traces.rankTrace(0);
    r0.append(ISendRec{1, 1, 256'000, 1, 1});
    r0.append(ISendRec{2, 1, 256'000, 2, 2});
    r0.append(trace::WaitAllRec{});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});
    traces.rankTrace(2).append(RecvRec{0, 1, 256'000, 2});

    const auto result =
        simulate(traces, platforms::defaultCluster());
    const auto first = latNs + serNs(256'000);
    const auto second = latNs + 2 * serNs(256'000);
    EXPECT_EQ(result.perRank[1].endTime.ns(), first);
    EXPECT_EQ(result.perRank[2].endTime.ns(), second);
}

TEST(EngineTest, InputLinkSerializesReceptions)
{
    TraceSet traces("t", 3);
    traces.rankTrace(0).append(SendRec{2, 1, 256'000, 1});
    traces.rankTrace(1).append(SendRec{2, 2, 256'000, 2});
    auto &r2 = traces.rankTrace(2);
    r2.append(RecvRec{0, 1, 256'000, 1});
    r2.append(RecvRec{1, 2, 256'000, 2});

    const auto result =
        simulate(traces, platforms::defaultCluster());
    EXPECT_EQ(result.perRank[2].endTime.ns(),
              latNs + 2 * serNs(256'000));
}

TEST(EngineTest, IntraNodeTransfersBypassTheNetwork)
{
    TraceSet remote_traces("t", 2);
    remote_traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    remote_traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});

    const auto remote = simulate(remote_traces,
                                 platforms::defaultCluster(1));
    const auto local = simulate(remote_traces,
                                platforms::defaultCluster(2));
    EXPECT_LT(local.totalTime.ns(), remote.totalTime.ns());
}

TEST(EngineTest, DeadlockIsDiagnosed)
{
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(RecvRec{1, 1, 100, 1});
    traces.rankTrace(1).append(RecvRec{0, 1, 100, 2});
    try {
        simulate(traces, platforms::defaultCluster());
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("deadlock"),
                  std::string::npos);
    }
}

TEST(EngineTest, WaitOnUnknownRequestPanics)
{
    TraceSet traces("t", 1);
    traces.rankTrace(0).append(WaitRec{99});
    EXPECT_THROW(simulate(traces, platforms::defaultCluster()),
                 PanicError);
}

TEST(EngineTest, DeterministicAcrossRuns)
{
    TraceSet traces("t", 4);
    for (Rank r = 0; r < 4; ++r) {
        auto &rt = traces.rankTrace(r);
        rt.append(CpuBurst{static_cast<Instr>(100'000 * (r + 1))});
        rt.append(SendRec{(r + 1) % 4, 1, 10'000,
                          static_cast<trace::MessageId>(r + 1)});
        rt.append(RecvRec{(r + 3) % 4, 1, 10'000,
                          static_cast<trace::MessageId>(
                              (r + 3) % 4 + 1)});
        rt.append(CollectiveRec{CollOp::allReduce, 8, 8, 0});
    }
    const auto a = simulate(traces, platforms::defaultCluster());
    const auto b = simulate(traces, platforms::defaultCluster());
    EXPECT_EQ(a.totalTime.ns(), b.totalTime.ns());
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed);
    EXPECT_EQ(a.transfers, b.transfers);
}

TEST(EngineTest, TimelineCaptureIsConsistent)
{
    TraceSet traces("t", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{1'000'000});
    r0.append(SendRec{1, 1, 256'000, 1});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 1, 256'000, 1});
    r1.append(CpuBurst{500'000});

    auto platform = platforms::defaultCluster();
    platform.captureTimeline = true;
    const auto result = simulate(traces, platform);

    EXPECT_EQ(result.timeline.ranks(), 2);
    EXPECT_EQ(result.timeline
                  .timeInState(0, RankState::compute)
                  .ns(),
              result.perRank[0].computeTime.ns());
    EXPECT_EQ(result.timeline
                  .timeInState(1, RankState::recvBlocked)
                  .ns(),
              result.perRank[1].recvBlockedTime.ns());
    ASSERT_EQ(result.timeline.comms().size(), 1u);
    const auto &comm = result.timeline.comms()[0];
    EXPECT_EQ(comm.src, 0);
    EXPECT_EQ(comm.dst, 1);
    EXPECT_EQ(comm.bytes, 256'000u);
    EXPECT_EQ(comm.sendPost.ns(), 1'000'000);
}

// ---------------------------------------------------------------
// Timeline recording rules, closed form: merging, clamping to the
// tail, and the rollback cut.
// ---------------------------------------------------------------

/** (begin ns, end ns, state) of every interval on one rank. */
using Intervals =
    std::vector<std::tuple<std::int64_t, std::int64_t, RankState>>;

Intervals
intervalsOf(const Timeline &timeline, Rank r)
{
    Intervals out;
    for (const StateInterval &iv : timeline.intervals(r))
        out.emplace_back(iv.begin.ns(), iv.end.ns(), iv.state);
    return out;
}

void
add(Timeline &timeline, Rank r, std::int64_t begin, std::int64_t end,
    RankState state)
{
    timeline.addInterval(r, SimTime::fromNs(begin), SimTime::fromNs(end),
                         state);
}

TEST(TimelineTest, ContiguousEqualStatesMerge)
{
    Timeline timeline(1);
    add(timeline, 0, 0, 10, RankState::compute);
    add(timeline, 0, 10, 20, RankState::compute);
    add(timeline, 0, 20, 30, RankState::sendBlocked);
    add(timeline, 0, 30, 40, RankState::compute);
    add(timeline, 0, 40, 50, RankState::compute);
    // A gap keeps equal states apart.
    add(timeline, 0, 60, 70, RankState::compute);
    const Intervals want{{0, 20, RankState::compute},
                         {20, 30, RankState::sendBlocked},
                         {30, 50, RankState::compute},
                         {60, 70, RankState::compute}};
    EXPECT_EQ(intervalsOf(timeline, 0), want);
    EXPECT_EQ(timeline.intervals(0).size(), 4u);
    EXPECT_EQ(timeline.span().ns(), 70);
    EXPECT_EQ(timeline.timeInState(0, RankState::compute).ns(), 50);
}

TEST(TimelineTest, BeginBeforeTheTailIsClampedToIt)
{
    Timeline timeline(1);
    add(timeline, 0, 0, 100, RankState::compute);
    // Only the unclaimed remainder [100, 150) is recorded.
    add(timeline, 0, 50, 150, RankState::recvBlocked);
    // Wholly claimed already: nothing left to record.
    add(timeline, 0, 120, 130, RankState::waitBlocked);
    // Clamped to the tail's end, then merged with the equal tail.
    add(timeline, 0, 140, 200, RankState::recvBlocked);
    const Intervals want{{0, 100, RankState::compute},
                         {100, 200, RankState::recvBlocked}};
    EXPECT_EQ(intervalsOf(timeline, 0), want);
}

TEST(TimelineTest, EmptyIntervalsDrop)
{
    Timeline timeline(2);
    add(timeline, 0, 10, 10, RankState::compute);
    add(timeline, 0, 20, 10, RankState::compute);
    EXPECT_TRUE(timeline.intervals(0).empty());
    add(timeline, 1, 0, 10, RankState::compute);
    add(timeline, 1, 10, 10, RankState::idle);
    add(timeline, 1, 5, 10, RankState::idle);
    const Intervals want{{0, 10, RankState::compute}};
    EXPECT_EQ(intervalsOf(timeline, 1), want);
    EXPECT_EQ(timeline.span().ns(), 10);
}

TEST(TimelineTest, TruncateDropsFromTheCutAndClipsWhatStraddlesIt)
{
    Timeline timeline(5);
    // Rank 0: an interval ends exactly at the cut and the next one
    // begins exactly at it.
    add(timeline, 0, 0, 10, RankState::compute);
    add(timeline, 0, 10, 20, RankState::sendBlocked);
    add(timeline, 0, 20, 30, RankState::compute);
    // Rank 1: one interval straddles the cut.
    add(timeline, 1, 0, 25, RankState::compute);
    add(timeline, 1, 25, 40, RankState::recvBlocked);
    // Rank 2 begins at the cut, rank 3 after it, rank 4 is empty.
    add(timeline, 2, 20, 30, RankState::compute);
    add(timeline, 3, 25, 30, RankState::compute);
    timeline.truncateAt(SimTime::fromNs(20));

    EXPECT_EQ(intervalsOf(timeline, 0),
              (Intervals{{0, 10, RankState::compute},
                         {10, 20, RankState::sendBlocked}}));
    EXPECT_EQ(intervalsOf(timeline, 1),
              (Intervals{{0, 20, RankState::compute}}));
    EXPECT_TRUE(timeline.intervals(2).empty());
    EXPECT_TRUE(timeline.intervals(3).empty());
    EXPECT_TRUE(timeline.intervals(4).empty());
    EXPECT_EQ(timeline.span().ns(), 20);

    // Recording resumes after the cut: the restart splice, then the
    // replayed tail, which merges with its own kind only.
    for (Rank r = 0; r < 5; ++r)
        add(timeline, r, 20, 35, RankState::restart);
    add(timeline, 1, 35, 50, RankState::compute);
    EXPECT_EQ(intervalsOf(timeline, 1),
              (Intervals{{0, 20, RankState::compute},
                         {20, 35, RankState::restart},
                         {35, 50, RankState::compute}}));
    EXPECT_EQ(intervalsOf(timeline, 3),
              (Intervals{{20, 35, RankState::restart}}));
    EXPECT_EQ(timeline.span().ns(), 50);

    // A cut past every interval changes nothing.
    timeline.truncateAt(SimTime::fromNs(100));
    EXPECT_EQ(intervalsOf(timeline, 1).size(), 3u);
    EXPECT_EQ(timeline.timeInState(1, RankState::compute).ns(), 35);
}

TEST(EngineTest, TimeIsMonotoneInBandwidth)
{
    TraceSet traces("t", 2);
    auto &r0 = traces.rankTrace(0);
    r0.append(CpuBurst{100'000});
    r0.append(SendRec{1, 1, 512'000, 1});
    auto &r1 = traces.rankTrace(1);
    r1.append(RecvRec{0, 1, 512'000, 1});
    r1.append(CpuBurst{100'000});

    std::int64_t previous = std::numeric_limits<
        std::int64_t>::max();
    for (const double mbps : {16.0, 64.0, 256.0, 1024.0}) {
        auto platform = platforms::defaultCluster();
        platform.bandwidthMBps = mbps;
        const auto result = simulate(traces, platform);
        EXPECT_LE(result.totalTime.ns(), previous);
        previous = result.totalTime.ns();
    }
}

TEST(EngineTest, RendezvousOverheadDelaysTransfer)
{
    TraceSet traces("t", 2);
    traces.rankTrace(0).append(SendRec{1, 1, 256'000, 1});
    traces.rankTrace(1).append(RecvRec{0, 1, 256'000, 1});

    auto platform = platforms::defaultCluster();
    platform.eagerThreshold = 0;
    platform.rendezvousOverheadUs = 100.0;
    const auto result = simulate(traces, platform);
    EXPECT_EQ(result.perRank[1].endTime.ns(),
              100'000 + serNs(256'000) + latNs);
}

} // namespace
} // namespace ovlsim::sim
