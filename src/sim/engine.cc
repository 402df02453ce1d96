#include "engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "coll/coll.hh"
#include "coll/schedule.hh"
#include "net/network.hh"
#include "obs/stats.hh"
#include "net/topology.hh"
#include "scen/scenario.hh"
#include "sim/program.hh"
#include "trace/record.hh"
#include "util/dary_heap.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"
#include "util/strings.hh"
#include "util/types.hh"

namespace ovlsim::sim {

namespace {

using trace::ChannelKey;
using trace::MessageId;
using trace::RecordKind;

/** Null index for the intrusive lists threaded through the arenas. */
constexpr std::uint32_t npos32 = 0xFFFFFFFFu;

enum class EventKind : std::uint32_t {
    rankResume = 0,
    transferInjected = 1,
    transferArrived = 2,
    collectiveRelease = 3,
    /** A compiled scenario event fires (target = event index). */
    scenario = 4,
    /** A background flow finished (target = its event index). */
    backgroundFinish = 5,
    /** A coordinated checkpoint fires (resilience seam). */
    checkpoint = 6,
};

/**
 * One pending event, packed to 16 bytes so heap sifts move as little
 * memory as possible. The kind lives in the top four bits of
 * `kindTarget`; targets (rank, transfer index, collective index or
 * scenario event index) get the remaining 28 bits, and schedule()
 * asserts they fit.
 *
 * `seq` is a 32-bit tie-breaker: schedules are bounded by the 2e9
 * event limit plus the residual heap, so it cannot wrap before the
 * engine panics on a runaway simulation.
 */
struct Event
{
    SimTime time;
    std::uint32_t seq;
    std::uint32_t kindTarget;

    static constexpr std::uint32_t kindShift = 28;
    static constexpr std::uint32_t targetMask =
        (1u << kindShift) - 1;

    EventKind
    kind() const
    {
        return static_cast<EventKind>(kindTarget >> kindShift);
    }

    std::uint32_t
    target() const
    {
        return kindTarget & targetMask;
    }

    bool
    operator>(const Event &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

static_assert(sizeof(Event) == 16);

/**
 * Request reference carried by transfers: a register index into the
 * owning rank's request table (the compiler pre-assigns registers,
 * see sim/program.hh), or one of two sentinels. A reference is
 * consumed exactly once — completeRequest clears it from the
 * transfer before acting — so no generation counter is needed.
 */
constexpr std::uint32_t noRequest = npos32;

/**
 * Sentinel standing for "the issuing rank's in-flight blocking
 * receive". A rank has at most one (it blocks before posting
 * another), so blocking receives bypass the request table entirely.
 */
constexpr std::uint32_t blockingRecvReq = npos32 - 1;

/** Request-register state bits. */
enum : std::uint8_t {
    regLive = 1u << 0,
    regDone = 1u << 1,
    regAwaited = 1u << 2,
};

/** Transfer state bits (Transfer::flags). */
enum : std::uint16_t {
    tfLocal = 1u << 0,
    tfEager = 1u << 1,
    tfSenderBlocking = 1u << 2,
    tfRecvPosted = 1u << 3,
    tfQueued = 1u << 4,
    tfStarted = 1u << 5,
    tfArrived = 1u << 6,
    /** Serializing through the topology network (net mode only). */
    tfInNet = 1u << 7,
    /**
     * Step of a lowered collective schedule (algorithmic model).
     * Pre-matched at schedule compile time: sendReq holds the
     * collective table index and recvReq the recv-slot id, and the
     * transfer never touches channel matching or request registers.
     */
    tfColl = 1u << 8,
};

/**
 * One point-to-point transfer, kept to 48 bytes; the arena of these
 * is the engine's hottest memory. Fields needed only for timeline
 * capture (message id, tag, post/start instants) live in the
 * parallel TransferMeta arena, which is populated only when the
 * platform requests a timeline, and the links of bus/NIC admission
 * live in the WaitNode pool, which only queued transfers use.
 */
struct Transfer
{
    Bytes bytes = 0;
    /** When the matching receive was posted (valid if tfRecvPosted). */
    SimTime recvPostTime;
    /** Scheduled/actual arrival instant (valid once started). */
    SimTime arriveTime;
    /** Sender's request register, or a sentinel. */
    std::uint32_t sendReq = noRequest;
    /** Receiver's request register, or a sentinel. */
    std::uint32_t recvReq = noRequest;
    Rank src = 0;
    Rank dst = 0;
    std::uint16_t flags = 0;

    bool has(std::uint16_t f) const { return (flags & f) != 0; }
    void set(std::uint16_t f) { flags |= f; }
    void clear(std::uint16_t f) { flags &= static_cast<std::uint16_t>(~f); }
};

static_assert(sizeof(Transfer) <= 48);

/** Per-resource wait lists a queued transfer can be linked into. */
enum : std::uint32_t {
    waitBus = 0,
    waitOut = 1,
    waitIn = 2,
};

/**
 * A queued transfer's links into the per-resource wait lists (see
 * Engine::Machine::waitPool): one successor per list kind, since a
 * transfer waits on at most one bus list, one out list and one in
 * list.
 */
struct WaitNode
{
    /** The waiting transfer; npos32 once it started. */
    std::uint32_t transfer = npos32;
    std::uint32_t next[3] = {npos32, npos32, npos32};
};

/** One FIFO wait list as head/tail indices into the WaitNode pool. */
struct WaitList
{
    std::uint32_t head = npos32;
    std::uint32_t tail = npos32;
};

/** Timeline-only transfer details (parallel to the transfer arena). */
struct TransferMeta
{
    MessageId message = trace::invalidMessageId;
    SimTime sendPost;
    SimTime start;
    Tag tag = 0;
};

/** A receive waiting for its send, pooled in Machine::recvPool. */
struct RecvPost
{
    std::uint32_t req = noRequest;
    SimTime postTime;
    /** Next free pool entry (free list only). */
    std::uint32_t next = npos32;
};

/**
 * Message-slot table entries (Engine::Machine::slots): empty, the
 * index of a posted send's transfer, or a RecvPost pool index tagged
 * with slotRecv. Transfer indices stay below 2^28 (the event
 * packing, see Event), so bit 31 is free for the tag.
 */
constexpr std::uint32_t slotEmpty = npos32;
constexpr std::uint32_t slotRecv = 1u << 31;

struct RankCtx
{
    Rank rank = 0;
    /** This rank's window of the program's shared flat streams. */
    const std::uint8_t *kinds = nullptr;
    const PackedOp *ops = nullptr;
    std::uint32_t pc = 0;
    std::uint32_t end = 0;
    SimTime now;
    bool blocked = false;
    bool done = false;
    RankState blockState = RankState::idle;
    SimTime blockStart;
    /** P2p side-table index of the next point-to-point op (advanced
     * only under timeline capture, which reads message ids). */
    std::uint32_t p2p = 0;

    /**
     * Request registers, pre-sized from the program. The compiler
     * assigned every non-blocking op a register and pre-linked its
     * Wait, so replay needs no id lookup and no free list — just
     * flag updates at a known index.
     */
    std::vector<std::uint8_t> regs;
    std::uint32_t liveRegs = 0;
    /** Requests the rank is currently blocked on (0 = runnable). */
    std::uint32_t awaitingCount = 0;
    /** The current blocking receive completed before the block. */
    bool blockingRecvDone = false;
    /** The rank is blocked on its current blocking receive. */
    bool awaitingBlockingRecv = false;

    RankResult result;
};

/** Runtime half of a collective; static half in CollectiveSpec. */
struct Barrier
{
    int arrived = 0;
    SimTime latest;
    /** Pooled CollExec slot (algorithmic model), or npos32. */
    std::uint32_t exec = npos32;
};

/** Per-rank progress states of an executing schedule. */
enum : std::uint8_t {
    /** The rank has not reached the collective yet. */
    collAbsent = 0,
    /** Cursor advancing (transient inside advanceCollRank). */
    collRunning = 1,
    /** Cursor parked on a send awaiting injection completion. */
    collWaitInject = 2,
    /** Cursor parked on a recv awaiting the slot's arrival. */
    collWaitRecv = 3,
    /** All steps retired; the rank has been released. */
    collDone = 4,
};

/**
 * Execution state of one in-flight algorithmic collective: the
 * per-rank cursors into the shared compiled Schedule and the
 * arrival table of its recv slots. Pooled and reused across
 * collective instances (a rank is in at most one collective, so at
 * most nranks instances are ever live at once) so steady-state
 * replays allocate nothing.
 */
struct CollExec
{
    /** Arrival instants per recv slot (valid when slotArrived). */
    std::vector<SimTime> slotTime;
    std::vector<std::uint8_t> slotArrived;
    /** Per-rank index of the next unretired step. */
    std::vector<std::uint32_t> cursor;
    /** Per-rank local time within the schedule. */
    std::vector<SimTime> rankTime;
    std::vector<std::uint8_t> rankState;
    /** Ranks still executing; 0 returns the slot to the pool. */
    int remaining = 0;
};

/**
 * The replay engine proper. Default-constructed once (per session or
 * per simulate() call) and reused: run() resets every container to
 * its empty state while keeping the allocations, so back-to-back
 * replays never touch the allocator in steady state. Replays execute
 * compiled ReplayPrograms (sim/program.hh); the TraceSet entry
 * points compile on entry.
 */
class Engine
{
  public:
    Engine() = default;
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Drops the cached topologies from the cache counters. */
    ~Engine()
    {
        for (const CompiledFabric &fabric : fabrics_)
            obs::topologyCache().recordEvict(fabric.topo.memoryBytes());
    }

    SimResult run(const ReplayProgram &program,
                  const PlatformConfig &platform);

  private:
    void reset();
    void schedule(SimTime t, EventKind kind, std::uint32_t target);
    void countEvent();
    void runRank(RankCtx &ctx);
    void wakeRank(Rank r, SimTime t);
    void blockRank(RankCtx &ctx, RankState state);

    void activateRegister(RankCtx &ctx, std::uint32_t reg);
    void retireRegister(RankCtx &ctx, std::uint32_t reg);
    void completeRequest(Rank r, std::uint32_t req, SimTime t);

    void completeTransferRecv(std::uint32_t idx, SimTime done);
    std::uint32_t postSend(RankCtx &ctx, const PackedOp &op,
                           std::uint32_t send_req);
    void postRecv(RankCtx &ctx, const PackedOp &op,
                  std::uint32_t req);
    void matchTransfer(std::uint32_t idx, std::uint32_t recv_req,
                       SimTime post_time);
    bool tryAcquireResources(const Transfer &transfer);
    void makeEligible(std::uint32_t idx, SimTime t);
    void enqueueWaiting(std::uint32_t idx);
    void releaseResources(std::size_t src_node, std::size_t dst_node);
    void admitWaiting(SimTime t);
    void startTransfer(std::uint32_t idx, SimTime t);
    void handleInjected(std::uint32_t idx, SimTime t);
    void handleNetInjected(std::uint32_t idx, SimTime t);
    void finishInjection(std::uint32_t idx, SimTime t);
    void handleArrived(std::uint32_t idx, SimTime t);
    void handleCollective(RankCtx &ctx, const PackedOp &op);
    void handleRelease(SimTime t);

    /** Algorithmic-collective seam (see handleCollective). */
    void resolveCollSchedules();
    std::uint32_t acquireCollExec(std::uint32_t c);
    void startCollRank(std::uint32_t c, Rank r);
    void advanceCollRank(std::uint32_t c, Rank r);
    void postCollTransfer(std::uint32_t c, Rank r,
                          const coll::Step &step, SimTime t);
    void onCollSendInjected(std::uint32_t idx, SimTime t);
    void onCollArrived(std::uint32_t idx, SimTime t);
    void finishCollRank(std::uint32_t c, Rank r);
    void recordCommEvent(std::uint32_t idx, SimTime recv_complete);
    [[noreturn]] void reportDeadlock() const;

    /** Scenario seam (see handleScenarioEvent). */
    void handleScenarioEvent(std::uint32_t i, SimTime t);
    void applyScenLinkScales(std::size_t i);
    void drainNetReschedules();
    void scheduleNetFinish(std::uint32_t flow, SimTime t);
    void startBackgroundFlow(std::uint32_t i, SimTime t);
    void handleBackgroundFinish(std::uint32_t i, SimTime t);
    scen::FailureDiagnosis failStopDiagnosis(std::uint32_t i,
                                             SimTime t) const;
    SimTime flatScenPrice(int src, int dst, Bytes bytes,
                          SimTime begin, SimTime &lat);

    /** Checkpoint/restart seam (see handleCheckpoint). */
    void handleCheckpoint(std::uint32_t level, SimTime t);
    void freezeMachine(SimTime cost);
    void takeSnapshot(SimTime anchor);
    void refreshGlobalImage();
    void restartFromCheckpoint(std::uint32_t i, SimTime t);

    bool
    busesLimited() const
    {
        return platform_.buses > 0;
    }
    bool
    outLimited() const
    {
        return platform_.outLinksPerNode > 0;
    }
    bool
    inLimited() const
    {
        return platform_.inLinksPerNode > 0;
    }

    std::uint32_t
    nodeOf(Rank r) const
    {
        return nodeOf_[static_cast<std::size_t>(r)];
    }

    /**
     * Burst instructions -> time, identical arithmetic to
     * PlatformConfig::burstDuration but with the effective MIPS rate
     * resolved once per replay instead of per record, and the last
     * conversion memoized (traces repeat a handful of burst sizes).
     */
    SimTime
    burstTime(Instr instructions)
    {
        if (instructions == lastBurstInstr_)
            return lastBurstDur_;
        lastBurstDur_ =
            roundNs(static_cast<double>(instructions) * 1e3 / mips_);
        lastBurstInstr_ = instructions;
        return lastBurstDur_;
    }

    /**
     * Same formula as PlatformConfig::serializationDelay, inlined
     * and memoized per link class (message sizes repeat heavily).
     */
    SimTime
    serializationTime(Bytes bytes, bool local)
    {
        const int cls = local ? 1 : 0;
        if (bytes == lastSerBytes_[cls])
            return lastSerDelay_[cls];
        const double mbps = local ? platform_.localBandwidthMBps
                                  : platform_.bandwidthMBps;
        lastSerDelay_[cls] =
            roundNs(static_cast<double>(bytes) * 1e3 / mbps);
        lastSerBytes_[cls] = bytes;
        return lastSerDelay_[cls];
    }

    /** Valid during run(); the compiled job being replayed. */
    const ReplayProgram *program_ = nullptr;
    int nranks_ = 0;
    PlatformConfig platform_;
    bool capture_ = false;

    /**
     * Everything a checkpoint images, and nothing else: an image is
     * one copy of it and a rollback one copy-assignment back, so
     * replay state is imaged by being declared here. Outside stay
     * configuration and per-run constants, pure caches (compiled
     * topology and schedules, memoized conversions), history that
     * survives a rollback (timeline_, stats_, processed_,
     * scenConsumed_, the checkpoint and restart counts), txMeta_
     * (resized on restore) and the release window and broadcast,
     * always closed between events.
     */
    struct Machine
    {
        DaryHeap<Event, 4, std::greater<Event>> events;
        std::uint32_t nextSeq = 0;
        std::vector<RankCtx> ranks;
        int doneRanks = 0;
        /** Transfer arena; indices are stable, growth is amortized. */
        std::vector<Transfer> transfers;

        /**
         * Message slots: one entry per send/receive pair the
         * compiler made (sim/program.hh), holding whichever endpoint
         * was posted first until the other meets it. Empty at the
         * start of every replay.
         */
        std::vector<std::uint32_t> slots;
        /** Receives waiting in slots, recycled through a free list. */
        std::vector<RecvPost> recvPool;
        std::uint32_t recvPoolFree = npos32;

        /** Free units of the bus and of each node's out/in links. */
        int busFree = 0;
        std::vector<int> outFree;
        std::vector<int> inFree;
        /**
         * Transfers queued for interconnect resources: one FIFO list
         * per limited resource — the bus, each node's out links,
         * each node's in links — and a queued transfer sits in the
         * list of every limited resource it needs, through one
         * WaitNode appended to waitPool. Nodes are never reused
         * within a run, so a pool index is the transfer's global
         * queueing sequence number and merging lists by index visits
         * waiters in global FIFO order. A transfer started through
         * one list stays linked in the others until an admission
         * scan meets it there and unlinks it.
         */
        std::vector<WaitNode> waitPool;
        WaitList busWait;
        std::vector<WaitList> outWait;
        std::vector<WaitList> inWait;

        std::vector<Barrier> barriers;
        /** In-flight algorithmic collectives, pooled (empty under
         * the analytic model). A run starts with an empty pool, so
         * what it pools does not depend on the runs before it. */
        std::vector<CollExec> collExecs;
        std::vector<std::uint32_t> collExecFree;

        /** The link network's flows and link state (net mode);
         * empty on the flat bus (see run()). */
        net::LinkNetwork network;
        /** What the scenario stream has done (see scenMode_). */
        scen::ActiveScenario active;
        /** Per-link latency multipliers (net mode scenarios). */
        std::vector<double> linkLatScale;

        void shift(SimTime delta);
        std::uint64_t imageBytes() const;
    };
    Machine m_;

    /**
     * Topology-network seam. False keeps the classic Dimemas bus
     * path (bit-identical to the pre-topology engine); true routes
     * every remote transfer over the compiled topology with
     * link-shared contention.
     */
    bool netMode_ = false;
    /** One compiled topology and what it was compiled from. */
    struct CompiledFabric
    {
        net::TopologyConfig config;
        int nodes = 0;
        net::CompiledTopology topo;
    };
    /**
     * Every topology this engine compiled, one per (description,
     * node count), kept for its life: sweeps vary bandwidth against
     * one compilation, and a campaign lane that switches fabrics
     * compiles each once. A deque, so a table never moves: the
     * network and the checkpoint images hold its address.
     */
    std::deque<CompiledFabric> fabrics_;
    /** The current replay's table (net mode). */
    const net::CompiledTopology *topo_ = nullptr;
    SimTime hopLatency_;

    /**
     * Dynamic-scenario seam, next to netMode_. False keeps both
     * cost paths bit-identical to the scenario-free engine; true
     * merges the compiled event stream into the heap: one scenario
     * event is armed at a time and its handler chains the next.
     * m_.active (cursor, effective-time shift, live entries) is the
     * one representation of what the stream has done: scenario
     * events update it and both cost paths read it. On the
     * LinkNetwork path m_.linkLatScale carries the per-link latency
     * multiplier that the capacity-only LinkNetwork cannot.
     */
    bool scenMode_ = false;
    scen::CompiledScenario scenario_;

    /**
     * Fail-stop events whose rollback was already paid. They
     * deliberately survive rollbacks (they are not part of the
     * snapshot): a consumed failure replayed out of the restored
     * heap re-fires as a no-op that just chains its successor, so
     * one fault never charges two restarts.
     */
    std::vector<std::uint8_t> scenConsumed_;

    /**
     * Checkpoint/restart seam (src/res/), next to scenMode_. False
     * keeps fail-stop semantics — and everything else —
     * bit-identical to the checkpoint-free engine; true arms a
     * coordinated-checkpoint chain whose handler freezes the whole
     * machine for ckptCost_ per checkpoint and snapshots it, and
     * reroutes fail-stop scenario events from FailureError into a
     * rollback to the last snapshot plus restartCost_. Every
     * feature replays under it: the image is the whole Machine.
     */
    bool ckptMode_ = false;
    SimTime ckptInterval_;
    SimTime ckptCost_;
    SimTime restartCost_;
    /** Hierarchical second level: a slower, costlier global
     * checkpoint chain whose image machine-wide (`all`) failures
     * restore; narrower failures keep the cheap local level. */
    bool ckptGlobalMode_ = false;
    SimTime ckptGlobalInterval_;
    SimTime ckptGlobalCost_;
    SimTime restartGlobalCost_;
    std::uint64_t checkpointsTaken_ = 0;
    std::uint64_t restarts_ = 0;

    /**
     * Machine image captured between two events at the last
     * checkpoint (and once at t = 0 before the event loop, so a
     * failure before the first checkpoint restarts from the
     * beginning), anchored at the instant it became restartable.
     */
    struct Snapshot
    {
        SimTime anchor;
        Machine machine;
    };
    Snapshot snapshot_;
    /** Image of the last global-level checkpoint (two-level mode;
     * refreshed by every global checkpoint, restored by `all`
     * failures). */
    Snapshot snapshotGlobal_;

    /**
     * LinkNetwork flow-id offset of background flows. Transfer
     * indices are capped at Event::targetMask (28 bits), so ids at
     * and above this never collide with a transfer's.
     */
    static constexpr std::uint32_t bgIdBase =
        net::LinkNetwork::backgroundIdBase;

    /** Per-replay constants hoisted out of the hot loop. */
    double mips_ = 1.0;
    SimTime latencyLocal_;
    SimTime latencyRemote_;
    SimTime rendezvousOverhead_;

    /**
     * Memoized last conversions (pure functions of their inputs).
     * The zero "unset" keys are exact: zero instructions/bytes
     * genuinely convert to the default-constructed zero SimTime.
     */
    Instr lastBurstInstr_ = 0;
    SimTime lastBurstDur_;
    Bytes lastSerBytes_[2] = {0, 0};
    SimTime lastSerDelay_[2];

    std::uint64_t processed_ = 0;

    /**
     * Ranks still to be woken by the collective-release broadcast
     * currently unwinding. While non-zero, burst self-wakeup
     * coalescing is suppressed so the inline wakes replay exactly
     * like the per-rank resume events they replace (see
     * handleRelease for the equivalence argument).
     */
    int broadcastPending_ = 0;

    /** Pre-computed node of each rank (avoids a division per use). */
    std::vector<std::uint32_t> nodeOf_;

    /** Timeline-only fields, parallel to m_.transfers (capture). */
    std::vector<TransferMeta> txMeta_;

    /**
     * Release window: true from the moment a finished injection or
     * background flow gives back the bus, the out link of
     * freedSrcNode_ and the in link of freedDstNode_ until the
     * admission scan of exactly those three lists (admitWaiting)
     * has run. Outside the window every queued transfer is provably
     * stuck — one of its resources has no free unit, and only
     * releases add units — so makeEligible may test only its own
     * transfer without breaking FIFO arbitration.
     */
    bool resourcesFreed_ = false;
    std::size_t freedSrcNode_ = 0;
    std::size_t freedDstNode_ = 0;

    /**
     * Algorithmic-collective seam. collSched_ holds one shared
     * compiled schedule per program collective, resolved once per
     * (program collectives, rank count, algorithm pins) and cached
     * across replays — a bandwidth sweep resolves its schedules
     * once, like the compiled-topology cache.
     */
    bool algorithmic_ = false;
    std::vector<std::shared_ptr<const coll::Schedule>> collSched_;
    std::vector<CollectiveSpec> collSchedKey_;
    int collSchedRanks_ = -1;
    coll::AlgorithmOverrides collSchedPins_;

    Timeline timeline_;

    /**
     * Always-on observability counters (src/obs/): plain
     * increments on the paths they watch, zeroed per run, copied
     * into SimResult::stats at the end. Monotone across rollbacks
     * — rework is precisely what they exist to expose — so they
     * are NOT part of the Machine.
     */
    obs::EngineStats stats_;
};

void
Engine::schedule(SimTime t, EventKind kind, std::uint32_t target)
{
    ovlAssert(target <= Event::targetMask,
              "event target overflows the packed representation");
    ++stats_.heapPushes;
    m_.events.push(Event{
        t, m_.nextSeq++,
        (static_cast<std::uint32_t>(kind) << Event::kindShift) |
            target});
}

void
Engine::countEvent()
{
    constexpr std::uint64_t eventLimit = 2'000'000'000ULL;
    ++processed_;
    // Check the runaway guard only every 2^20 events; the limit is
    // a safety net, not an exact budget, and this keeps the hot
    // loop's per-event work to a single increment.
    if ((processed_ & ((1u << 20) - 1)) == 0 &&
        processed_ > eventLimit) {
        panic("event limit exceeded; runaway simulation");
    }
}

/**
 * Return every container to its empty state while keeping its
 * allocation, so a session's next replay starts from warmed-up
 * arenas. Must leave the engine indistinguishable (results-wise)
 * from a freshly constructed one; the session-reuse determinism
 * tests guard this.
 */
void
Engine::reset()
{
    m_.events.clear();
    m_.nextSeq = 0;
    processed_ = 0;
    broadcastPending_ = 0;
    m_.ranks.resize(static_cast<std::size_t>(nranks_));
    for (auto &ctx : m_.ranks) {
        ctx.kinds = nullptr;
        ctx.ops = nullptr;
        ctx.pc = 0;
        ctx.end = 0;
        ctx.now = SimTime::zero();
        ctx.blocked = false;
        ctx.done = false;
        ctx.blockState = RankState::idle;
        ctx.blockStart = SimTime::zero();
        ctx.liveRegs = 0;
        ctx.awaitingCount = 0;
        ctx.blockingRecvDone = false;
        ctx.awaitingBlockingRecv = false;
        ctx.result = RankResult{};
    }
    m_.transfers.clear();
    txMeta_.clear();
    m_.recvPool.clear();
    m_.recvPoolFree = npos32;
    m_.waitPool.clear();
    m_.busWait = WaitList{};
    resourcesFreed_ = false;
    m_.barriers.clear();
    // The CollExec pool starts empty, so what a run pools (and
    // images) does not depend on the runs before it.
    m_.collExecs.clear();
    m_.collExecFree.clear();
    m_.doneRanks = 0;
    checkpointsTaken_ = 0;
    restarts_ = 0;
    m_.active.cursor = 0;
    m_.active.shift = SimTime::zero();
    m_.active.live.clear();
    m_.linkLatScale.clear();
    scenConsumed_.clear();
    lastBurstInstr_ = 0;
    lastBurstDur_ = SimTime::zero();
    lastSerBytes_[0] = lastSerBytes_[1] = 0;
    lastSerDelay_[0] = lastSerDelay_[1] = SimTime::zero();
    timeline_ = Timeline();
    stats_ = obs::EngineStats{};
}

SimResult
Engine::run(const ReplayProgram &program,
            const PlatformConfig &platform)
{
    program_ = &program;
    platform_ = platform;
    // Validate before anything divides by cpusPerNode.
    platform_.validate();
    nranks_ = program.ranks();
    const int nranks = nranks_;
    reset();
    const int nodes =
        (nranks + platform_.cpusPerNode - 1) / platform_.cpusPerNode;
    nodeOf_.resize(static_cast<std::size_t>(nranks));
    for (Rank r = 0; r < nranks; ++r) {
        nodeOf_[static_cast<std::size_t>(r)] =
            static_cast<std::uint32_t>(r / platform_.cpusPerNode);
    }
    m_.busFree = platform_.buses;
    m_.outFree.assign(static_cast<std::size_t>(nodes),
                      platform_.outLinksPerNode);
    m_.inFree.assign(static_cast<std::size_t>(nodes),
                     platform_.inLinksPerNode);
    m_.outWait.assign(static_cast<std::size_t>(nodes), WaitList{});
    m_.inWait.assign(static_cast<std::size_t>(nodes), WaitList{});
    netMode_ = !platform_.topology.isFlat();
    if (netMode_) {
        // Compile-once seam: the compiled topology depends only on
        // the topology description and the node count, so every
        // later replay of either reuses it.
        const auto cached = std::find_if(
            fabrics_.begin(), fabrics_.end(),
            [&](const CompiledFabric &fabric) {
                return fabric.nodes == nodes &&
                    fabric.config == platform_.topology;
            });
        if (cached != fabrics_.end()) {
            obs::topologyCache().recordHit();
            topo_ = &cached->topo;
        } else {
            obs::topologyCache().recordMiss();
            // A topology that cannot host the machine throws here
            // and adds nothing.
            fabrics_.push_back(
                {platform_.topology, nodes,
                 net::compileTopology(platform_.topology, nodes)});
            topo_ = &fabrics_.back().topo;
            obs::topologyCache().recordInsert(topo_->memoryBytes());
        }
        const double base_mbps =
            platform_.topology.linkBandwidthMBps > 0.0
                ? platform_.topology.linkBandwidthMBps
                : platform_.bandwidthMBps;
        m_.network.configure(topo_, base_mbps);
        m_.network.setStats(&stats_);
        hopLatency_ =
            SimTime::fromUs(platform_.topology.hopLatencyUs);
    } else {
        // Off the link network the machine carries an empty network,
        // so no image copies one an earlier replay of this session
        // configured.
        m_.network = net::LinkNetwork();
    }
    scenMode_ = !platform_.scenario.empty();
    if (scenMode_) {
        // Compiled fresh each run, unlike routes and collective
        // schedules: compiling costs little next to the replay that
        // reads the stream, even at the hundreds of events that
        // generated fault scenarios reach.
        scenario_ = scen::compileScenario(
            platform_.scenario, netMode_ ? topo_ : nullptr,
            nodes);
        if (netMode_)
            m_.linkLatScale.assign(topo_->linkCount(), 1.0);
    }
    capture_ = platform_.captureTimeline;
    if (capture_)
        timeline_ = Timeline(nranks);

    mips_ = platform_.effectiveMips(program.mips());
    ovlAssert(mips_ > 0.0, "platform MIPS rate must be positive");
    latencyLocal_ = platform_.flightLatency(true);
    latencyRemote_ = platform_.flightLatency(false);
    rendezvousOverhead_ =
        SimTime::fromUs(platform_.rendezvousOverheadUs);

    // Algorithmic collectives replace the closed-form cost with
    // compiled point-to-point schedules executed on the transfer
    // path. With one rank there is no traffic to lower; the
    // analytic path (whose cost is zero for P == 1 up to latency
    // terms) keeps replaying those.
    algorithmic_ = platform_.collectiveModel ==
            coll::CollectiveModel::algorithmic &&
        nranks_ > 1 && !program.collectives().empty();
    std::size_t coll_sends = 0;
    if (algorithmic_) {
        resolveCollSchedules();
        for (const auto &sched : collSched_)
            coll_sends += sched->sendCount();
    }

    // Checkpoint/restart seam: snapshots capture the whole machine
    // between events — in-flight transfers and collective schedule
    // cursors, link capacity modifiers and stalled/parked flows,
    // background traffic, the scenario and checkpoint chains
    // themselves — so any scenario/collective/capture combination
    // replays under a positive interval.
    ckptMode_ = platform_.checkpointing();
    if (ckptMode_) {
        ckptInterval_ =
            SimTime::fromUs(platform_.checkpointIntervalUs);
        ckptCost_ = SimTime::fromUs(platform_.checkpointCostUs);
        restartCost_ = SimTime::fromUs(platform_.restartCostUs);
        if (ckptInterval_.ns() <= 0) {
            fatal("platform: checkpoint_interval_us is positive "
                  "but rounds to zero nanoseconds");
        }
        ckptGlobalMode_ = platform_.twoLevelCheckpointing();
        if (ckptGlobalMode_) {
            ckptGlobalInterval_ = SimTime::fromUs(
                platform_.checkpointGlobalIntervalUs);
            ckptGlobalCost_ = SimTime::fromUs(
                platform_.checkpointGlobalCostUs);
            restartGlobalCost_ = SimTime::fromUs(
                platform_.restartGlobalCostUs);
            if (ckptGlobalInterval_.ns() <= 0) {
                fatal("platform: checkpoint_global_interval_us is "
                      "positive but rounds to zero nanoseconds");
            }
        }
        scenConsumed_.assign(scenario_.eventCount(), 0);
    } else {
        ckptGlobalMode_ = false;
    }

    // The compiler counted the sends, so the transfer arena (one
    // entry per transfer ever posted, indices stable) can be sized
    // exactly: no growth mid-replay (collective schedule steps
    // included — each send step posts exactly one transfer). Every
    // index fits an event target, which also keeps bit 31 of the
    // slot entries free. The recv-post pool is left to grow on
    // demand: posts are recycled through its free list, so it only
    // ever holds the maximum number of simultaneously waiting
    // receives — usually a tiny fraction of the total.
    const std::size_t sends = program.totalSends() + coll_sends;
    ovlAssert(sends <= std::size_t{Event::targetMask} + 1,
              "too many transfers for the event packing: ", sends);
    m_.transfers.reserve(sends);
    if (capture_)
        txMeta_.reserve(sends);
    m_.events.reserve(static_cast<std::size_t>(nranks) * 4 + 256);
    m_.slots.assign(program.messageSlots(), slotEmpty);

    m_.barriers.assign(program.collectives().size(), Barrier{});

    for (Rank r = 0; r < nranks; ++r) {
        auto &ctx = m_.ranks[static_cast<std::size_t>(r)];
        ctx.rank = r;
        ctx.kinds = program.kindsOf(r);
        ctx.ops = program.opsOf(r);
        ctx.end = static_cast<std::uint32_t>(program.opCount(r));
        ctx.p2p = program.p2pBegin(r);
        ctx.regs.assign(program.registerCount(r), 0);
        ctx.result.rank = r;
        schedule(SimTime::zero(), EventKind::rankResume,
                 static_cast<std::uint32_t>(r));
    }

    // Arm the scenario stream: one event pending at a time, each
    // handler chaining its successor.
    if (scenMode_)
        schedule(scenario_.event(0).time, EventKind::scenario, 0);

    // Arm the coordinated-checkpoint chain(s) and capture the
    // pristine t = 0 image a failure before the first checkpoint
    // rolls back to (a from-scratch restart). The event target
    // encodes the level: 0 local, 1 global.
    if (ckptMode_) {
        schedule(ckptInterval_, EventKind::checkpoint, 0);
        if (ckptGlobalMode_)
            schedule(ckptGlobalInterval_, EventKind::checkpoint, 1);
        takeSnapshot(SimTime::zero());
        if (ckptGlobalMode_)
            refreshGlobalImage();
    }

    while (!m_.events.empty()) {
        const Event ev = m_.events.top();
        m_.events.pop();
        ++stats_.heapPops;
        countEvent();

        switch (ev.kind()) {
          case EventKind::rankResume:
            wakeRank(static_cast<Rank>(ev.target()), ev.time);
            break;
          case EventKind::transferInjected:
            handleInjected(ev.target(), ev.time);
            break;
          case EventKind::transferArrived:
            handleArrived(ev.target(), ev.time);
            break;
          case EventKind::collectiveRelease:
            handleRelease(ev.time);
            break;
          case EventKind::scenario:
            handleScenarioEvent(ev.target(), ev.time);
            break;
          case EventKind::backgroundFinish:
            handleBackgroundFinish(ev.target(), ev.time);
            break;
          case EventKind::checkpoint:
            handleCheckpoint(ev.target(), ev.time);
            break;
        }
    }

    if (m_.doneRanks < nranks)
        reportDeadlock();

    SimResult result;
    result.perRank.reserve(m_.ranks.size());
    for (auto &ctx : m_.ranks) {
        ctx.result.endTime = ctx.now;
        if (ctx.result.endTime > result.totalTime)
            result.totalTime = ctx.result.endTime;
        result.perRank.push_back(ctx.result);
    }
    result.eventsProcessed = processed_;
    result.transfers = m_.transfers.size();
    result.checkpoints = checkpointsTaken_;
    result.restarts = restarts_;
    result.timeline = std::move(timeline_);
    result.stats = stats_;
    return result;
}

void
Engine::wakeRank(Rank r, SimTime t)
{
    auto &ctx = m_.ranks[static_cast<std::size_t>(r)];
    if (ctx.done)
        return;
    if (ctx.blocked) {
        const SimTime blocked_for = t - ctx.blockStart;
        switch (ctx.blockState) {
          case RankState::sendBlocked:
            ctx.result.sendBlockedTime += blocked_for;
            break;
          case RankState::recvBlocked:
            ctx.result.recvBlockedTime += blocked_for;
            break;
          case RankState::waitBlocked:
            ctx.result.waitBlockedTime += blocked_for;
            break;
          case RankState::collective:
            ctx.result.collectiveTime += blocked_for;
            break;
          default:
            break;
        }
        if (capture_) {
            timeline_.addInterval(r, ctx.blockStart, t,
                                  ctx.blockState);
        }
        ctx.blocked = false;
    }
    if (t > ctx.now)
        ctx.now = t;
    runRank(ctx);
}

void
Engine::blockRank(RankCtx &ctx, RankState state)
{
    ctx.blocked = true;
    ctx.blockState = state;
    ctx.blockStart = ctx.now;
}

void
Engine::activateRegister(RankCtx &ctx, std::uint32_t reg)
{
    std::uint8_t &state = ctx.regs[reg];
    ovlAssert((state & regLive) == 0,
              "rank ", ctx.rank, ": register ", reg,
              " activated while live");
    state = regLive;
    ++ctx.liveRegs;
}

void
Engine::retireRegister(RankCtx &ctx, std::uint32_t reg)
{
    ovlAssert((ctx.regs[reg] & regLive) != 0,
              "retiring dead request register");
    ctx.regs[reg] = 0;
    --ctx.liveRegs;
}

void
Engine::runRank(RankCtx &ctx)
{
    const std::uint8_t *kinds = ctx.kinds;
    const PackedOp *ops = ctx.ops;
    while (ctx.pc < ctx.end) {
        const PackedOp &op = ops[ctx.pc];

        // Dense dispatch over the compiled one-byte kind stream; no
        // variant or string access anywhere in the loop.
        switch (static_cast<RecordKind>(kinds[ctx.pc])) {
          case RecordKind::burst: {
            const SimTime dur = burstTime(op.a);
            ++ctx.pc;
            if (dur.ns() == 0)
                continue;
            ctx.result.computeTime += dur;
            if (capture_) {
                timeline_.addInterval(ctx.rank, ctx.now,
                                      ctx.now + dur,
                                      RankState::compute);
            }
            ctx.now += dur;
            // Coalesced self-wakeup: when no other event precedes
            // the burst's end, the rank would be resumed next anyway,
            // so keep running it inline instead of round-tripping a
            // rankResume through the heap. The event still counts as
            // processed so throughput metrics stay comparable.
            // Suppressed while a collective-release broadcast is
            // waking ranks: the replaced per-rank resume events kept
            // the heap top at the release instant, so the historical
            // engine never coalesced here (see handleRelease).
            if (broadcastPending_ == 0 &&
                (m_.events.empty() ||
                 m_.events.top().time > ctx.now)) {
                countEvent();
                continue;
            }
            schedule(ctx.now, EventKind::rankResume,
                     static_cast<std::uint32_t>(ctx.rank));
            return;
          }

          case RecordKind::send: {
            ++ctx.pc;
            const std::uint32_t idx =
                postSend(ctx, op, noRequest);
            Transfer &t = m_.transfers[idx];
            if (!t.has(tfEager)) {
                // Rendezvous blocking send: stay blocked until the
                // payload has fully left this node.
                t.set(tfSenderBlocking);
                blockRank(ctx, RankState::sendBlocked);
                return;
            }
            continue;
          }

          case RecordKind::isend: {
            ++ctx.pc;
            const std::uint32_t reg = op.c;
            activateRegister(ctx, reg);
            const std::uint32_t idx = postSend(ctx, op, reg);
            Transfer &t = m_.transfers[idx];
            if (t.has(tfEager)) {
                // Buffered: the request completes at the call.
                t.sendReq = noRequest;
                completeRequest(ctx.rank, reg, ctx.now);
            }
            continue;
          }

          case RecordKind::recv: {
            ++ctx.pc;
            ctx.blockingRecvDone = false;
            postRecv(ctx, op, blockingRecvReq);
            if (ctx.blockingRecvDone)
                continue;
            ctx.awaitingBlockingRecv = true;
            blockRank(ctx, RankState::recvBlocked);
            return;
          }

          case RecordKind::irecv: {
            ++ctx.pc;
            const std::uint32_t reg = op.c;
            activateRegister(ctx, reg);
            postRecv(ctx, op, reg);
            continue;
          }

          case RecordKind::wait: {
            ++ctx.pc;
            const std::uint32_t reg = op.c;
            std::uint8_t &state = ctx.regs[reg];
            ovlAssert((state & regLive) != 0,
                      "rank ", ctx.rank,
                      ": wait on dead register ", reg);
            if ((state & regDone) != 0) {
                retireRegister(ctx, reg);
                continue;
            }
            state |= regAwaited;
            ctx.awaitingCount = 1;
            blockRank(ctx, RankState::waitBlocked);
            return;
          }

          case RecordKind::waitAll: {
            ++ctx.pc;
            std::uint32_t awaiting = 0;
            if (ctx.liveRegs > 0) {
                const std::uint32_t nregs = static_cast<
                    std::uint32_t>(ctx.regs.size());
                for (std::uint32_t reg = 0; reg < nregs; ++reg) {
                    std::uint8_t &state = ctx.regs[reg];
                    if ((state & regLive) == 0)
                        continue;
                    if ((state & regDone) != 0) {
                        retireRegister(ctx, reg);
                    } else {
                        state |= regAwaited;
                        ++awaiting;
                    }
                }
            }
            if (awaiting == 0)
                continue;
            ctx.awaitingCount = awaiting;
            blockRank(ctx, RankState::waitBlocked);
            return;
          }

          case RecordKind::collective: {
            ++ctx.pc;
            handleCollective(ctx, op);
            return;
          }

          default:
            panic("rank ", ctx.rank, ": corrupt op kind");
        }
    }

    if (!ctx.done) {
        ctx.done = true;
        ++m_.doneRanks;
    }
}

void
Engine::completeRequest(Rank r, std::uint32_t req, SimTime t)
{
    auto &ctx = m_.ranks[static_cast<std::size_t>(r)];
    if (req == blockingRecvReq) {
        // Blocking receives bypass the request table: either the
        // rank is blocked on this receive (wake it) or the receive
        // completed during the posting call itself.
        if (ctx.blocked && ctx.awaitingBlockingRecv) {
            ctx.awaitingBlockingRecv = false;
            wakeRank(r, t);
        } else {
            ctx.blockingRecvDone = true;
        }
        return;
    }
    ovlAssert(req < ctx.regs.size(),
              "rank ", r, ": completing invalid request register");
    std::uint8_t &state = ctx.regs[req];
    ovlAssert((state & regLive) != 0,
              "rank ", r, ": completing dead request register");
    state |= regDone;

    if (ctx.blocked && (state & regAwaited) != 0) {
        // The Wait/WaitAll that awaited this request has already
        // been consumed, so the register can be retired here.
        retireRegister(ctx, req);
        if (--ctx.awaitingCount == 0)
            wakeRank(r, t);
    }
}

void
Engine::completeTransferRecv(std::uint32_t idx, SimTime done)
{
    Transfer &t = m_.transfers[idx];
    if (capture_)
        recordCommEvent(idx, done);
    ++m_.ranks[static_cast<std::size_t>(t.dst)]
          .result.messagesReceived;
    const Rank dst = t.dst;
    const std::uint32_t req = t.recvReq;
    t.recvReq = noRequest;
    // completeRequest can re-enter the engine and post further
    // transfers. The arena is reserved exactly (run()), so `t`
    // would stay valid, but everything needed is read — and the
    // request reference cleared against double completion — first,
    // keeping this independent of the sizing invariant.
    completeRequest(dst, req, done);
}

std::uint32_t
Engine::postSend(RankCtx &ctx, const PackedOp &op,
                 std::uint32_t send_req)
{
    // The compiler already rejected wildcard sentinels and
    // out-of-range peers, pre-packed the channel key and paired the
    // send with its receive.
    const ChannelKey key = op.a;
    const Bytes bytes = op.b;
    const Rank dst = trace::channelDstOf(key);
    const auto idx =
        static_cast<std::uint32_t>(m_.transfers.size());
    Transfer &t = m_.transfers.emplace_back();
    if (m_.transfers.size() > stats_.arenaHighWater)
        stats_.arenaHighWater = m_.transfers.size();
    t.bytes = bytes;
    t.src = ctx.rank;
    t.dst = dst;
    if (nodeOf(ctx.rank) == nodeOf(dst))
        t.set(tfLocal);
    const bool small = bytes <= platform_.eagerThreshold;
    const bool forced =
        send_req != noRequest && platform_.forceEagerIsend;
    if (small || forced)
        t.set(tfEager);
    t.sendReq = send_req;
    if (capture_) {
        TransferMeta &meta = txMeta_.emplace_back();
        meta.message = program_->p2pMeta(ctx.p2p++).message;
        meta.sendPost = ctx.now;
        meta.tag = trace::channelTagOf(key);
    }

    ++ctx.result.messagesSent;
    ctx.result.bytesSent += bytes;

    // Meet the paired receive if it was posted first; otherwise wait
    // in the slot for it. A send without a partner never matches.
    ++stats_.channelProbes;
    if (op.d != noSlot) {
        std::uint32_t &entry = m_.slots[op.d];
        if (entry == slotEmpty) {
            entry = idx;
        } else {
            ovlAssert((entry & slotRecv) != 0,
                      "message slot holds two sends");
            const std::uint32_t post_idx = entry & ~slotRecv;
            entry = slotEmpty;
            const RecvPost post = m_.recvPool[post_idx];
            m_.recvPool[post_idx].next = m_.recvPoolFree;
            m_.recvPoolFree = post_idx;
            matchTransfer(idx, post.req, post.postTime);
        }
    }

    // An eager send is eligible at once; a rendezvous send that met
    // its receive here becomes eligible at the match, which is now.
    Transfer &stored = m_.transfers[idx];
    if (stored.has(tfEager) || stored.has(tfRecvPosted))
        makeEligible(idx, ctx.now);
    return idx;
}

void
Engine::postRecv(RankCtx &ctx, const PackedOp &op,
                 std::uint32_t req)
{
    if (capture_)
        ++ctx.p2p;
    // Meet the paired send if it was posted first; otherwise wait in
    // the slot for it. A receive without a partner never completes,
    // and the replay ends in the deadlock diagnosis.
    ++stats_.channelProbes;
    if (op.d == noSlot)
        return;
    std::uint32_t &entry = m_.slots[op.d];
    if (entry != slotEmpty) {
        ovlAssert((entry & slotRecv) == 0,
                  "message slot holds two receives");
        const std::uint32_t idx = entry;
        entry = slotEmpty;
        matchTransfer(idx, req, ctx.now);
        // A rendezvous send becomes eligible at the match, which
        // is now; an eager one already is.
        makeEligible(idx, ctx.now);
        return;
    }
    std::uint32_t post_idx;
    if (m_.recvPoolFree != npos32) {
        post_idx = m_.recvPoolFree;
        m_.recvPoolFree = m_.recvPool[post_idx].next;
    } else {
        post_idx = static_cast<std::uint32_t>(m_.recvPool.size());
        m_.recvPool.emplace_back();
    }
    m_.recvPool[post_idx] = RecvPost{req, ctx.now, npos32};
    entry = post_idx | slotRecv;
}

void
Engine::matchTransfer(std::uint32_t idx, std::uint32_t recv_req,
                      SimTime post_time)
{
    Transfer &t = m_.transfers[idx];
    ovlAssert(!t.has(tfRecvPosted), "transfer matched twice");
    t.set(tfRecvPosted);
    t.recvPostTime = post_time;
    t.recvReq = recv_req;

    if (t.has(tfArrived)) {
        const SimTime done =
            t.arriveTime > post_time ? t.arriveTime : post_time;
        completeTransferRecv(idx, done);
    }
}

/** Claim bus/out/in capacity for a remote transfer if all are free. */
inline bool
Engine::tryAcquireResources(const Transfer &transfer)
{
    const std::size_t src_node = nodeOf(transfer.src);
    const std::size_t dst_node = nodeOf(transfer.dst);
    const bool bus_ok = !busesLimited() || m_.busFree > 0;
    const bool out_ok = !outLimited() || m_.outFree[src_node] > 0;
    const bool in_ok = !inLimited() || m_.inFree[dst_node] > 0;
    if (!(bus_ok && out_ok && in_ok))
        return false;
    if (busesLimited())
        --m_.busFree;
    if (outLimited())
        --m_.outFree[src_node];
    if (inLimited())
        --m_.inFree[dst_node];
    return true;
}

void
Engine::makeEligible(std::uint32_t idx, SimTime t)
{
    Transfer &transfer = m_.transfers[idx];
    if (transfer.has(tfQueued) || transfer.has(tfStarted))
        return;
    transfer.set(tfQueued);
    if (transfer.has(tfLocal)) {
        // Intra-node transfers bypass the interconnect resources.
        startTransfer(idx, t);
        return;
    }
    if (netMode_) {
        // Topology mode has no admission gate: every remote
        // transfer starts immediately and contention is expressed
        // by sharing the links of its compiled route.
        startTransfer(idx, t);
        return;
    }
    // Inside a release window older waiters of the freed resources
    // may be startable, and FIFO demands they go first: admit them
    // before this transfer, which queues behind all of them.
    if (resourcesFreed_)
        admitWaiting(t);
    // Every queued transfer is now stuck, so enqueue-then-scan
    // reduces to checking this transfer's own resources (an acquire
    // only shrinks capacity and cannot unstick anyone else).
    if (tryAcquireResources(transfer)) {
        startTransfer(idx, t);
        return;
    }
    enqueueWaiting(idx);
}

/** Append transfer `idx` to the wait list of each limited resource. */
void
Engine::enqueueWaiting(std::uint32_t idx)
{
    const Transfer &transfer = m_.transfers[idx];
    const auto node = static_cast<std::uint32_t>(m_.waitPool.size());
    m_.waitPool.push_back(WaitNode{idx});
    const auto append = [&](WaitList &list, std::uint32_t kind) {
        if (list.tail == npos32)
            list.head = node;
        else
            m_.waitPool[list.tail].next[kind] = node;
        list.tail = node;
    };
    if (busesLimited())
        append(m_.busWait, waitBus);
    if (outLimited())
        append(m_.outWait[nodeOf(transfer.src)], waitOut);
    if (inLimited())
        append(m_.inWait[nodeOf(transfer.dst)], waitIn);
}

/**
 * Give back one bus plus the out link of `src_node` and the in link
 * of `dst_node`, and open the release window that admitWaiting
 * closes. A window holds exactly one release: both callers run the
 * scan before their event handler returns.
 */
void
Engine::releaseResources(std::size_t src_node, std::size_t dst_node)
{
    ovlAssert(!resourcesFreed_, "release inside a release window");
    if (busesLimited())
        ++m_.busFree;
    if (outLimited())
        ++m_.outFree[src_node];
    if (inLimited())
        ++m_.inFree[dst_node];
    resourcesFreed_ = true;
    freedSrcNode_ = src_node;
    freedDstNode_ = dst_node;
}

/**
 * Start every waiter that the last release made startable, in
 * global queueing order, exactly as a scan of one global FIFO
 * would. Only the lists of the freed resources are walked: a waiter
 * on none of them was stuck at the previous scan (or at its own
 * enqueue) on a resource nothing has given back since, so a full
 * scan would skip it too. The walked lists merge by pool index,
 * each candidate goes through the all-or-nothing
 * tryAcquireResources, and a list stops as soon as its resource
 * has no free unit left — every remaining entry needs that unit.
 * Entries already started through another list are unlinked when
 * met.
 */
void
Engine::admitWaiting(SimTime t)
{
    resourcesFreed_ = false;
    struct Cursor
    {
        WaitList *list;
        const int *free;
        std::uint32_t kind;
        std::uint32_t prev;
        std::uint32_t node;
    };
    Cursor cursors[3];
    int open = 0;
    const auto add = [&](WaitList &list, const int &free,
                         std::uint32_t kind) {
        cursors[open++] = Cursor{&list, &free, kind, npos32, list.head};
    };
    if (busesLimited())
        add(m_.busWait, m_.busFree, waitBus);
    if (outLimited())
        add(m_.outWait[freedSrcNode_], m_.outFree[freedSrcNode_],
            waitOut);
    if (inLimited())
        add(m_.inWait[freedDstNode_], m_.inFree[freedDstNode_], waitIn);

    // Drop the cursor's node from its list; the cursor moves on.
    const auto unlink = [&](Cursor &c) {
        const std::uint32_t next = m_.waitPool[c.node].next[c.kind];
        if (c.prev == npos32)
            c.list->head = next;
        else
            m_.waitPool[c.prev].next[c.kind] = next;
        if (c.list->tail == c.node)
            c.list->tail = c.prev;
        c.node = next;
    };

    while (open > 0) {
        // Settle every open cursor on its next still-waiting entry
        // and pick the oldest; close exhausted or saturated lists.
        std::uint32_t oldest = npos32;
        for (int k = 0; k < open;) {
            Cursor &c = cursors[k];
            while (c.node != npos32 && *c.free > 0 &&
                   m_.waitPool[c.node].transfer == npos32) {
                ++stats_.queueScanSteps;
                unlink(c);
            }
            if (c.node == npos32 || *c.free <= 0) {
                c = cursors[--open];
                continue;
            }
            if (c.node < oldest)
                oldest = c.node;
            ++k;
        }
        if (oldest == npos32)
            break;

        ++stats_.queueScanSteps;
        const std::uint32_t idx = m_.waitPool[oldest].transfer;
        const bool admitted = tryAcquireResources(m_.transfers[idx]);
        for (int k = 0; k < open; ++k) {
            Cursor &c = cursors[k];
            if (c.node != oldest)
                continue;
            if (admitted) {
                unlink(c);
            } else {
                c.prev = c.node;
                c.node = m_.waitPool[c.node].next[c.kind];
            }
        }
        if (admitted) {
            m_.waitPool[oldest].transfer = npos32;
            startTransfer(idx, t);
        }
    }
}

void
Engine::startTransfer(std::uint32_t idx, SimTime t)
{
    Transfer &transfer = m_.transfers[idx];
    transfer.set(tfStarted);
    SimTime begin = t;
    if (!transfer.has(tfEager)) {
        begin += rendezvousOverhead_;
    }
    if (capture_)
        txMeta_[idx].start = begin;
    const bool local = transfer.has(tfLocal);
    if (netMode_ && !local) {
        // Admit the flow into the link network; its serialization
        // finish arrives as a transferInjected event whose time the
        // contention model owns (and may move as flows come and
        // go). Arrival is scheduled at injection completion.
        transfer.set(tfInNet);
        const SimTime finish = m_.network.start(
            idx, static_cast<int>(nodeOf(transfer.src)),
            static_cast<int>(nodeOf(transfer.dst)),
            transfer.bytes, begin);
        // A frozen route (a scenario stalled or failed one of its
        // links) admits the flow but makes no progress; the
        // recovery's applyScales reschedules it.
        if (finish != SimTime::max())
            schedule(finish, EventKind::transferInjected, idx);
        return;
    }
    SimTime inject, lat;
    if (scenMode_ && !local) {
        // Flat-bus scenario pricing: the compiled stream is static,
        // so the multipliers active at the transfer's start and
        // every future stall window are known here and the final
        // injection instant is computed analytically (degradations
        // that begin mid-serialization are charged from the start —
        // a coarser model than the link network's mid-flight
        // re-sharing, by design of the flat path).
        inject = flatScenPrice(static_cast<int>(nodeOf(transfer.src)),
                               static_cast<int>(nodeOf(transfer.dst)),
                               transfer.bytes, begin, lat);
        if (inject == SimTime::max())
            return; // stalled with no recovery: never finishes
    } else {
        inject = begin + serializationTime(transfer.bytes, local);
        lat = local ? latencyLocal_ : latencyRemote_;
    }
    transfer.arriveTime = inject + lat;
    schedule(inject, EventKind::transferInjected, idx);
    schedule(transfer.arriveTime, EventKind::transferArrived, idx);
}

/**
 * Sender-side consequences of a completed injection, shared by the
 * bus and topology paths: unblock a blocking rendezvous sender or
 * complete a rendezvous isend request.
 */
void
Engine::finishInjection(std::uint32_t idx, SimTime t)
{
    Transfer &transfer = m_.transfers[idx];
    if (transfer.has(tfColl)) {
        onCollSendInjected(idx, t);
        return;
    }
    if (transfer.has(tfSenderBlocking)) {
        const Rank src = transfer.src;
        transfer.clear(tfSenderBlocking);
        wakeRank(src, t);
    } else if (!transfer.has(tfEager) &&
               transfer.sendReq != noRequest) {
        const Rank src = transfer.src;
        const std::uint32_t req = transfer.sendReq;
        transfer.sendReq = noRequest;
        completeRequest(src, req, t);
    }
}

void
Engine::handleInjected(std::uint32_t idx, SimTime t)
{
    if (netMode_) {
        handleNetInjected(idx, t);
        return;
    }
    const Transfer &transfer = m_.transfers[idx];
    // wakeRank/completeRequest below can re-enter postSend; the
    // exactly-reserved arena keeps `transfer` valid regardless, but
    // release its resources first so this does not lean on the
    // sizing invariant.
    if (!transfer.has(tfLocal))
        releaseResources(nodeOf(transfer.src), nodeOf(transfer.dst));

    finishInjection(idx, t);

    // A rank woken above whose first remote post already ran the
    // admission scan (makeEligible) closed the window; nothing was
    // released since, so a second scan could start nothing.
    if (resourcesFreed_)
        admitWaiting(t);
}

/**
 * A transferInjected event in topology mode. For remote transfers
 * the event time is owned by the link-contention model: it may be a
 * stale early prediction (slowdowns re-arm lazily), the real
 * serialization finish, or a leftover after completion (ignored via
 * tfInNet). On completion the freed capacity can speed other flows
 * up; their corrected finish events are scheduled here, and the
 * transfer's arrival is scheduled after the route's flight latency.
 */
void
Engine::handleNetInjected(std::uint32_t idx, SimTime t)
{
    Transfer &transfer = m_.transfers[idx];
    if (!transfer.has(tfLocal)) {
        if (!transfer.has(tfInNet))
            return; // stale event after completion
        const auto check = m_.network.onFinishEvent(idx, t);
        if (!check.done) {
            if (check.reschedule) {
                schedule(check.retry,
                         EventKind::transferInjected, idx);
            }
            return;
        }
        transfer.clear(tfInNet);
        drainNetReschedules();

        // The flow's effective route: a scenario reroute may have
        // moved the pair off its computed path, changing the hop
        // count.
        const auto route = check.route;
        SimTime flight = latencyRemote_;
        if (route.size() > 1) {
            flight += hopLatency_ *
                static_cast<std::int64_t>(route.size() - 1);
        }
        if (scenMode_) {
            // Degraded latency: the whole flight is scaled by the
            // worst multiplier on the route at arrival pricing.
            double scale = 1.0;
            for (const std::uint32_t link : route) {
                if (m_.linkLatScale[link] > scale)
                    scale = m_.linkLatScale[link];
            }
            if (scale != 1.0) {
                flight = roundNs(static_cast<double>(flight.ns()) *
                                 scale);
            }
        }
        transfer.arriveTime = t + flight;
        schedule(transfer.arriveTime, EventKind::transferArrived,
                 idx);
    }
    finishInjection(idx, t);
}

void
Engine::handleArrived(std::uint32_t idx, SimTime t)
{
    Transfer &transfer = m_.transfers[idx];
    transfer.set(tfArrived);
    transfer.arriveTime = t;
    if (transfer.has(tfColl)) {
        onCollArrived(idx, t);
        return;
    }
    if (transfer.has(tfRecvPosted) &&
        transfer.recvReq != noRequest) {
        const SimTime done = t > transfer.recvPostTime
                                 ? t
                                 : transfer.recvPostTime;
        completeTransferRecv(idx, done);
    }
}

void
Engine::handleCollective(RankCtx &ctx, const PackedOp &op)
{
    // The compiler verified op agreement across ranks and resolved
    // the cross-rank byte maxima into the collective table, so
    // arrival is pure counting.
    Barrier &barrier = m_.barriers[op.c];
    ++barrier.arrived;
    if (ctx.now > barrier.latest)
        barrier.latest = ctx.now;

    blockRank(ctx, RankState::collective);

    if (algorithmic_) {
        // Algorithmic model: the rank starts walking its compiled
        // schedule at its own arrival instant (true MPI semantics —
        // a broadcast root can leave before the leaves arrive) and
        // is released when its last step retires. The analytic
        // barrier-and-release machinery below stays untouched.
        const CollectiveSpec &spec =
            program_->collectives()[op.c];
        if (static_cast<Rank>(op.d) != spec.root) {
            fatal("rank ", ctx.rank, ": collective #", op.c,
                  " names root ", op.d, " but other ranks named ",
                  spec.root,
                  " (the algorithmic collective model requires "
                  "root agreement)");
        }
        startCollRank(op.c, ctx.rank);
        return;
    }

    if (barrier.arrived == nranks_) {
        const CollectiveSpec &spec =
            program_->collectives()[op.c];
        const SimTime release = barrier.latest +
            collectiveCost(platform_, spec.op, nranks_,
                           spec.sendBytes, spec.recvBytes);
        // One broadcast-release event replaces the historical
        // one-rankResume-per-rank fan-out (see handleRelease).
        schedule(release, EventKind::collectiveRelease, op.c);
    }
}

/**
 * Release every rank blocked on a completed collective.
 *
 * Equivalence with the replaced per-rank resume fan-out: the N
 * rankResume events all carried the release instant and consecutive
 * sequence numbers, so they popped consecutively in rank order —
 * any other event's sequence lies entirely before or after the
 * block, never inside it. Waking ranks 0..N-1 inline in that order
 * is therefore the exact event order the heap produced. While ranks
 * remain to wake, their pending resumes used to cap the heap top at
 * the release instant, which disabled burst self-wakeup coalescing;
 * broadcastPending_ reproduces that (runRank checks it), and the
 * countEvent() calls keep the processed-event accounting — and so
 * the throughput metrics and SimResult::eventsProcessed —
 * bit-identical to the fan-out.
 */
void
Engine::handleRelease(SimTime t)
{
    const int nranks = nranks_;
    for (Rank r = 0; r < nranks; ++r) {
        if (r > 0)
            countEvent();
        broadcastPending_ = nranks - 1 - r;
        wakeRank(r, t);
    }
    broadcastPending_ = 0;
}

/**
 * Resolve one shared compiled schedule per program collective.
 * Pure function of (collective table, rank count, algorithm pins),
 * so the result is cached across replays: a bandwidth sweep
 * resolves its schedules once and every sweep point reuses them,
 * and the process-wide schedule cache dedups across sessions and
 * sweep lanes.
 */
void
Engine::resolveCollSchedules()
{
    const auto specs = program_->collectives();
    if (collSchedRanks_ == nranks_ &&
        collSchedPins_ == platform_.collectiveAlgorithms &&
        collSchedKey_.size() == specs.size() &&
        std::equal(collSchedKey_.begin(), collSchedKey_.end(),
                   specs.begin()))
        return;
    collSched_.clear();
    collSched_.reserve(specs.size());
    for (const CollectiveSpec &spec : specs) {
        const Bytes bytes =
            std::max(spec.sendBytes, spec.recvBytes);
        collSched_.push_back(coll::compileSchedule(
            spec.op, nranks_, spec.root, bytes,
            platform_.collectiveAlgorithms.of(spec.op)));
    }
    collSchedKey_.assign(specs.begin(), specs.end());
    collSchedRanks_ = nranks_;
    collSchedPins_ = platform_.collectiveAlgorithms;
}

/** Pool out an execution state sized for collective `c`. */
std::uint32_t
Engine::acquireCollExec(std::uint32_t c)
{
    std::uint32_t slot;
    if (!m_.collExecFree.empty()) {
        slot = m_.collExecFree.back();
        m_.collExecFree.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(m_.collExecs.size());
        m_.collExecs.emplace_back();
    }
    const coll::Schedule &sched = *collSched_[c];
    CollExec &ex = m_.collExecs[slot];
    ex.slotTime.assign(sched.recvSlots(), SimTime());
    ex.slotArrived.assign(sched.recvSlots(), 0);
    ex.cursor.assign(static_cast<std::size_t>(nranks_), 0);
    ex.rankTime.assign(static_cast<std::size_t>(nranks_),
                       SimTime());
    ex.rankState.assign(static_cast<std::size_t>(nranks_),
                        collAbsent);
    ex.remaining = nranks_;
    return slot;
}

void
Engine::startCollRank(std::uint32_t c, Rank r)
{
    Barrier &barrier = m_.barriers[c];
    if (barrier.exec == npos32)
        barrier.exec = acquireCollExec(c);
    CollExec &ex = m_.collExecs[barrier.exec];
    ex.rankTime[static_cast<std::size_t>(r)] =
        m_.ranks[static_cast<std::size_t>(r)].now;
    ex.rankState[static_cast<std::size_t>(r)] = collRunning;
    advanceCollRank(c, r);
}

/**
 * Walk rank `r`'s step list as far as it can go: send steps post
 * one transfer and park the cursor until the injection completes
 * (back-to-back sends serialize through the sender, like the
 * classic algorithms assume), recv steps retire as soon as their
 * pre-matched slot has arrived. A cursor that walks off the end
 * releases the rank.
 */
void
Engine::advanceCollRank(std::uint32_t c, Rank r)
{
    const std::uint32_t exec = m_.barriers[c].exec;
    const auto steps = collSched_[c]->stepsOf(r);
    const auto ri = static_cast<std::size_t>(r);
    for (;;) {
        CollExec &ex = m_.collExecs[exec];
        const std::uint32_t cur = ex.cursor[ri];
        if (cur >= steps.size())
            break;
        const coll::Step &step = steps[cur];
        if (step.isSend) {
            ex.rankState[ri] = collWaitInject;
            postCollTransfer(c, r, step, ex.rankTime[ri]);
            return;
        }
        if (!ex.slotArrived[step.slot]) {
            ex.rankState[ri] = collWaitRecv;
            return;
        }
        if (ex.slotTime[step.slot] > ex.rankTime[ri])
            ex.rankTime[ri] = ex.slotTime[step.slot];
        ++ex.cursor[ri];
        ++stats_.collSteps;
    }
    finishCollRank(c, r);
}

void
Engine::postCollTransfer(std::uint32_t c, Rank r,
                         const coll::Step &step, SimTime t)
{
    const Rank dst = step.peer;
    const auto idx = static_cast<std::uint32_t>(m_.transfers.size());
    Transfer &transfer = m_.transfers.emplace_back();
    if (m_.transfers.size() > stats_.arenaHighWater)
        stats_.arenaHighWater = m_.transfers.size();
    transfer.bytes = step.bytes;
    transfer.src = r;
    transfer.dst = dst;
    transfer.set(tfColl);
    // Eager semantics: the schedule executor owns the sender's
    // pacing (the cursor waits for injection), so the transfer
    // itself never blocks and never enters rendezvous.
    transfer.set(tfEager);
    if (nodeOf(r) == nodeOf(dst))
        transfer.set(tfLocal);
    transfer.sendReq = c;
    transfer.recvReq = step.slot;
    if (capture_) {
        // Keep the meta arena parallel; collective steps carry no
        // trace message id or tag.
        TransferMeta &meta = txMeta_.emplace_back();
        meta.sendPost = t;
    }
    auto &result = m_.ranks[static_cast<std::size_t>(r)].result;
    ++result.messagesSent;
    result.bytesSent += step.bytes;
    makeEligible(idx, t);
}

/**
 * A schedule send finished injecting: the sender's cursor resumes
 * past it. Exactly one un-injected collective send exists per rank
 * at a time (the cursor waits), so the event maps back to the
 * cursor without bookkeeping.
 */
void
Engine::onCollSendInjected(std::uint32_t idx, SimTime t)
{
    const Transfer &transfer = m_.transfers[idx];
    const std::uint32_t c = transfer.sendReq;
    const Rank r = transfer.src;
    const auto ri = static_cast<std::size_t>(r);
    CollExec &ex = m_.collExecs[m_.barriers[c].exec];
    ovlAssert(ex.rankState[ri] == collWaitInject,
              "collective injection for a rank not waiting on one");
    if (t > ex.rankTime[ri])
        ex.rankTime[ri] = t;
    ++ex.cursor[ri];
    ++stats_.collSteps;
    ex.rankState[ri] = collRunning;
    advanceCollRank(c, r);
}

/**
 * A schedule transfer arrived: record its slot and, when the
 * receiver's cursor is parked on exactly this slot, resume it.
 * Out-of-order arrivals (a later round's payload overtaking an
 * earlier sender) just mark their slot; the cursor consumes them
 * in order when it gets there.
 */
void
Engine::onCollArrived(std::uint32_t idx, SimTime t)
{
    const Transfer &transfer = m_.transfers[idx];
    const std::uint32_t c = transfer.sendReq;
    const std::uint32_t slot = transfer.recvReq;
    const Rank dst = transfer.dst;
    const auto di = static_cast<std::size_t>(dst);
    CollExec &ex = m_.collExecs[m_.barriers[c].exec];
    ovlAssert(!ex.slotArrived[slot],
              "collective slot arrived twice");
    ex.slotArrived[slot] = 1;
    ex.slotTime[slot] = t;
    ++m_.ranks[di].result.messagesReceived;
    if (ex.rankState[di] != collWaitRecv)
        return;
    const auto steps = collSched_[c]->stepsOf(dst);
    const coll::Step &step = steps[ex.cursor[di]];
    if (step.slot != slot)
        return;
    if (t > ex.rankTime[di])
        ex.rankTime[di] = t;
    ++ex.cursor[di];
    ++stats_.collSteps;
    ex.rankState[di] = collRunning;
    advanceCollRank(c, dst);
}

/**
 * Rank `r` retired its last step: release it at its schedule-local
 * time. When the last rank finishes, the execution state returns
 * to the pool — by then every transfer of the instance has arrived
 * (a rank cannot finish before consuming all its recv slots, and
 * every send is some rank's recv slot), so no event can reference
 * the slot afterwards.
 */
void
Engine::finishCollRank(std::uint32_t c, Rank r)
{
    Barrier &barrier = m_.barriers[c];
    CollExec &ex = m_.collExecs[barrier.exec];
    const auto ri = static_cast<std::size_t>(r);
    ex.rankState[ri] = collDone;
    const SimTime done = ex.rankTime[ri];
    if (--ex.remaining == 0) {
        m_.collExecFree.push_back(barrier.exec);
        barrier.exec = npos32;
    }
    wakeRank(r, done);
}

void
Engine::recordCommEvent(std::uint32_t idx, SimTime recv_complete)
{
    const Transfer &t = m_.transfers[idx];
    const TransferMeta &meta = txMeta_[idx];
    CommEvent event;
    event.message = meta.message;
    event.src = t.src;
    event.dst = t.dst;
    event.tag = meta.tag;
    event.bytes = t.bytes;
    event.sendPost = meta.sendPost;
    event.transferStart = meta.start;
    event.arrival = t.arriveTime;
    event.recvComplete = recv_complete;
    timeline_.addComm(event);
}

/**
 * A compiled scenario event fires. The handler arms the next event
 * of the stream first, so exactly one scenario event is pending at
 * any instant, then applies this one to whichever cost path the
 * replay runs on: on the link network by scaling link capacities
 * (and rerouting around dead links), on the flat bus through the
 * live entries of m_.active that the analytic pricing in
 * startTransfer reads.
 */
void
Engine::handleScenarioEvent(std::uint32_t i, SimTime t)
{
    // Every freeze and rollback moved this event along with the
    // rest of the machine and grew the shift by as much, so it
    // fires at its effective time and arms its successor at its
    // own.
    ovlAssert(t == m_.active.effective(scenario_.event(i).time),
              "scenario event fired off its effective time");
    if (i + 1 < scenario_.eventCount()) {
        schedule(m_.active.effective(scenario_.event(i + 1).time),
                 EventKind::scenario, i + 1);
    }
    m_.active.cursor = i + 1;
    ++stats_.scenarioEvents;
    const scen::ScenarioEvent &ev = scenario_.event(i);
    switch (ev.kind) {
      case scen::ScenEventKind::recover: {
        const std::uint32_t m = scenario_.matchOf(i);
        const scen::ScenarioEvent &undone = scenario_.event(m);
        m_.active.erase(m);
        if (netMode_) {
            applyScenLinkScales(m);
            m_.network.applyScales(t);
            if (undone.kind == scen::ScenEventKind::fail &&
                undone.semantics ==
                    scen::FailSemantics::reroute) {
                // Restored links can only add paths back; pairs
                // whose compiled route is alive again drop their
                // detours.
                const auto report =
                    m_.network.rerouteDeadLinks(t);
                ovlAssert(report.ok,
                          "recovery cannot remove paths");
            }
            drainNetReschedules();
        }
        break;
      }

      case scen::ScenEventKind::fail:
        if (ev.semantics == scen::FailSemantics::failStop) {
            // Nothing left to kill once every rank finished; the
            // stream keeps chaining for any later background
            // events.
            if (m_.doneRanks >= nranks_)
                break;
            // Without checkpointing the replay ends here, with the
            // failure-semantics mirror of reportDeadlock.
            if (!ckptMode_)
                throw scen::FailureError(failStopDiagnosis(i, t));
            // A rollback replays the stream from the snapshot's
            // cursor, so this failure fires again out of the
            // restored heap; the consumed mark makes the re-fire a
            // no-op (chain-only) instead of a second restart.
            if (!scenConsumed_[i]) {
                scenConsumed_[i] = 1;
                restartFromCheckpoint(i, t);
            }
            break;
        }
        [[fallthrough]];

      case scen::ScenEventKind::degrade:
        m_.active.live.push_back(i);
        if (netMode_) {
            applyScenLinkScales(i);
            m_.network.applyScales(t);
            if (ev.kind == scen::ScenEventKind::fail &&
                ev.semantics == scen::FailSemantics::reroute) {
                const auto report =
                    m_.network.rerouteDeadLinks(t);
                if (!report.ok) {
                    fatal("scenario event `", ev.describe(),
                          "`: no surviving route from node ",
                          report.src, " to node ", report.dst,
                          " (the topology has no path diversity "
                          "around the dead links)");
                }
            }
            drainNetReschedules();
        }
        break;

      case scen::ScenEventKind::background:
        startBackgroundFlow(i, t);
        break;
    }
}

/**
 * Recompute the capacity and latency scales of every link named by
 * scenario event `i` from the live entries that contain it:
 * concurrent degrades multiply (in index order), any live failure
 * pins the capacity to zero. Background flows own no link set.
 * Changes are staged in the network and committed by the caller's
 * applyScales().
 */
void
Engine::applyScenLinkScales(std::size_t i)
{
    for (const std::uint32_t link : scenario_.linksOf(i)) {
        double bw = 1.0;
        double lat = 1.0;
        for (const std::uint32_t j : m_.active.live) {
            if (!scenario_.linkSetContains(j, link))
                continue;
            const scen::ScenarioEvent &ej = scenario_.event(j);
            if (ej.kind == scen::ScenEventKind::degrade) {
                bw *= ej.bandwidthFactor;
                lat *= ej.latencyFactor;
            } else {
                bw = 0.0; // active stall/reroute failure
            }
        }
        m_.network.setLinkScale(link, bw);
        m_.linkLatScale[link] = lat;
    }
}

void
Engine::drainNetReschedules()
{
    for (const auto &[flow, finish] :
         m_.network.pendingReschedules())
        scheduleNetFinish(flow, finish);
    m_.network.clearPendingReschedules();
}

/** Map a LinkNetwork flow id back to its finish event kind. */
void
Engine::scheduleNetFinish(std::uint32_t flow, SimTime t)
{
    if (flow >= bgIdBase) {
        schedule(t, EventKind::backgroundFinish, flow - bgIdBase);
    } else {
        schedule(t, EventKind::transferInjected, flow);
    }
}

/**
 * Start the background flow of scenario event `i`: traffic that
 * occupies the interconnect without belonging to the app. On the
 * link network it is an ordinary flow (offset id, so it shares
 * links with app transfers through the same bottleneck machinery);
 * on the flat bus it holds one bus and the endpoints' links for its
 * serialization, possibly driving the free counts negative — app
 * transfers then wait until the counts recover.
 */
void
Engine::startBackgroundFlow(std::uint32_t i, SimTime t)
{
    const scen::ScenarioEvent &ev = scenario_.event(i);
    m_.active.live.push_back(i);
    SimTime finish;
    if (netMode_) {
        finish = m_.network.start(bgIdBase + i, ev.nodeA, ev.nodeB,
                                  ev.bytes, t);
    } else {
        if (busesLimited())
            --m_.busFree;
        if (outLimited())
            --m_.outFree[static_cast<std::size_t>(ev.nodeA)];
        if (inLimited())
            --m_.inFree[static_cast<std::size_t>(ev.nodeB)];
        SimTime lat;
        finish = flatScenPrice(ev.nodeA, ev.nodeB, ev.bytes, t, lat);
    }
    // A flow stalled forever never finishes; on the flat bus its
    // resources stay held.
    if (finish != SimTime::max())
        schedule(finish, EventKind::backgroundFinish, i);
}

void
Engine::handleBackgroundFinish(std::uint32_t i, SimTime t)
{
    const auto &live = m_.active.live;
    if (!std::binary_search(live.begin(), live.end(), i))
        return; // stale event after completion
    if (netMode_) {
        const auto check =
            m_.network.onFinishEvent(bgIdBase + i, t);
        if (!check.done) {
            if (check.reschedule) {
                schedule(check.retry,
                         EventKind::backgroundFinish, i);
            }
            return;
        }
        m_.active.erase(i);
        drainNetReschedules();
        return;
    }
    m_.active.erase(i);
    const scen::ScenarioEvent &ev = scenario_.event(i);
    releaseResources(static_cast<std::size_t>(ev.nodeA),
                     static_cast<std::size_t>(ev.nodeB));
    admitWaiting(t);
}

/** Structured where-was-everyone report of a fail-stop at `t`. */
scen::FailureDiagnosis
Engine::failStopDiagnosis(std::uint32_t i, SimTime t) const
{
    scen::FailureDiagnosis diag;
    diag.event = scenario_.event(i).describe();
    diag.time = t;
    for (const auto &ctx : m_.ranks) {
        if (ctx.done)
            continue;
        scen::BlockedRank blocked;
        blocked.rank = ctx.rank;
        blocked.state = ctx.blocked
            ? rankStateName(ctx.blockState)
            : "running";
        blocked.pc = static_cast<std::size_t>(ctx.pc);
        blocked.end = static_cast<std::size_t>(ctx.end);
        diag.blockedRanks.push_back(std::move(blocked));
    }
    return diag;
}

/**
 * A coordinated checkpoint fires at `t`: every rank stops, the
 * machine image is written out over ckptCost_, and execution
 * resumes shifted by exactly that cost. The freeze is a uniform
 * shift of every pending instant — heap events and link-network
 * flow clocks — which preserves their relative order, so the
 * post-freeze replay is the un-frozen replay delayed by the cost.
 * Rank-local clocks are left alone: a blocked rank's wake event
 * moved, so the freeze lands in its blocked-time accounting, and a
 * self-resuming rank wakes at the shifted instant (wakeRank only
 * moves clocks forward). The snapshot is taken after the shift,
 * anchored at t + ckptCost_ — the instant the written image is
 * consistent and restartable.
 */
void
Engine::handleCheckpoint(std::uint32_t level, SimTime t)
{
    // The application finished (only drain events remain): stop
    // chaining and let the heap empty.
    if (m_.doneRanks >= nranks_)
        return;
    ++checkpointsTaken_;
    const bool global = level == 1;
    const SimTime cost = global ? ckptGlobalCost_ : ckptCost_;
    freezeMachine(cost);
    // Arm the successor BEFORE imaging the machine: the snapshot
    // carries the whole heap, checkpoint chain included, so a
    // restore finds its next checkpoint pending exactly one
    // interval past the restart instant (anchor + interval + delta
    // = restore_at + interval) without any re-arming.
    schedule(t + cost +
                 (global ? ckptGlobalInterval_ : ckptInterval_),
             EventKind::checkpoint, level);
    takeSnapshot(t + cost);
    if (capture_)
        timeline_.addCheckpoint(t + cost, global);
    // A global checkpoint also refreshes the local image: the
    // newest restartable image is always at least as recent at the
    // cheap level as at the expensive one.
    if (global)
        refreshGlobalImage();
}

void
Engine::freezeMachine(SimTime cost)
{
    if (cost.ns() == 0)
        return;
    m_.shift(cost);
}

/**
 * Move every pending instant of the machine `delta` later. A uniform
 * shift keeps every pair of heap keys ordered as before, which is
 * exactly the contract DaryHeap::operator[] mutation demands. Stored
 * per-transfer instants need no shift: future ones (the arriveTime
 * of an in-flight transfer) are overwritten from the shifted event
 * when it fires, and past ones must stay where history put them.
 * Link-network flow clocks move with their armed events (an empty
 * network has none). The pending scenario event moved with the rest
 * of the machine, so the scenario's compiled-to-effective shift
 * grows by the same delta.
 */
void
Engine::Machine::shift(SimTime delta)
{
    for (std::size_t k = 0; k < events.size(); ++k)
        events[k].time += delta;
    network.shiftFlowClocks(delta);
    active.shift += delta;
}

/**
 * Capture the whole machine between two events. Containers are
 * copied into the retained snapshot arenas, so steady-state
 * checkpoints only allocate while the machine grows past its
 * high-water mark.
 */
void
Engine::takeSnapshot(SimTime anchor)
{
    ovlAssert(broadcastPending_ == 0,
              "checkpoint inside a release broadcast");
    ovlAssert(!resourcesFreed_, "checkpoint inside a release window");
    snapshot_.anchor = anchor;
    snapshot_.machine = m_;
    stats_.snapshotBytes += m_.imageBytes();
}

/** Copy the image just taken to the global level (two-level mode). */
void
Engine::refreshGlobalImage()
{
    snapshotGlobal_ = snapshot_;
    stats_.snapshotBytes += snapshot_.machine.imageBytes();
}

/**
 * The payload of every container the machine holds; the fixed-size
 * scalars are noise next to them. Off the link network the network
 * is empty, and under the analytic collective model so is the
 * CollExec pool, so both count zero there.
 */
std::uint64_t
Engine::Machine::imageBytes() const
{
    const auto bytes = [](const auto &v) -> std::uint64_t {
        return v.size() * sizeof(v[0]);
    };
    std::uint64_t total = bytes(events) + bytes(ranks) +
        bytes(transfers) + bytes(recvPool) + bytes(waitPool) +
        bytes(outWait) + bytes(inWait) + bytes(slots) +
        bytes(barriers) + bytes(outFree) + bytes(inFree) +
        bytes(active.live) + bytes(linkLatScale) +
        bytes(collExecs) + bytes(collExecFree) + network.stateBytes();
    for (const RankCtx &ctx : ranks)
        total += bytes(ctx.regs);
    for (const CollExec &ex : collExecs) {
        total += bytes(ex.slotTime) + bytes(ex.slotArrived) +
            bytes(ex.cursor) + bytes(ex.rankTime) +
            bytes(ex.rankState);
    }
    return total;
}

/**
 * Fail-stop event `i` fired at `t` with checkpointing enabled:
 * roll the machine back to the last checkpoint instead of killing
 * the replay — the local image normally, the global image (at its
 * own restart cost) for machine-wide `all` failures under two-level
 * checkpointing. The restored image re-enters simulated time at
 * t + restart cost: every pending instant in the snapshot shifts
 * forward by delta = (t + cost) - anchor — non-negative, since the
 * failure fired after the snapshot it rolls back to — so the
 * replayed tail is the checkpointed tail delayed by exactly the
 * work since the checkpoint plus the restart cost (the closed-form
 * accounting the resilience tests pin). In-flight traffic caught by
 * the failure is torn down first and the link occupancy invariant
 * asserted back to zero before the snapshot's own flows are
 * reinstated.
 *
 * The heap is restored whole — scenario and checkpoint chains
 * included, shifted like everything else. The snapshot's pending
 * scenario cursor replays the stream from the checkpoint: degrades,
 * stalls and background flows re-apply (a flow finishing after the
 * restart pays the re-applied capacities), while already-consumed
 * failures re-fire as chain-only no-ops (scenConsumed_). The
 * restored pending checkpoint sits exactly one interval after the
 * restart instant, because the snapshot was anchored at the instant
 * its own successor was armed an interval out.
 *
 * Per-rank accounting keeps the counters as of the checkpoint
 * (work is charged once) while totalTime absorbs the rework;
 * processed_ keeps counting across restarts — rolled-back events
 * were still simulated work, and the runaway guard must see them.
 * The timeline is deliberately NOT restored: capture records
 * through failures, the splice below truncates ahead-recorded
 * intervals at the cut and inserts a restart interval, so a Gantt
 * of a rolled-back run shows the wasted segments as first-class
 * history.
 */
void
Engine::restartFromCheckpoint(std::uint32_t i, SimTime t)
{
    ++restarts_;
    if (restarts_ > platform_.restartBudget) {
        scen::FailureDiagnosis diag = failStopDiagnosis(i, t);
        diag.event = strformat(
            "restart_budget (%llu) exhausted: observed MTBF "
            "~%.6g us against checkpoint_interval_us = %.17g; the "
            "platform fails faster than it recovers; last "
            "failure: ",
            static_cast<unsigned long long>(
                platform_.restartBudget),
            t.toUs() / static_cast<double>(restarts_),
            platform_.checkpointIntervalUs) + diag.event;
        throw scen::FailureError(std::move(diag));
    }
    ovlAssert(broadcastPending_ == 0,
              "restart inside a release broadcast");
    const bool global = ckptGlobalMode_ &&
        scenario_.event(i).target == scen::ScenTarget::all;
    const Snapshot &s = global ? snapshotGlobal_ : snapshot_;
    const SimTime restore_at =
        t + (global ? restartGlobalCost_ : restartCost_);
    ovlAssert(restore_at >= s.anchor,
              "fail-stop fired before the checkpoint it rolls "
              "back to");
    const SimTime delta = restore_at - s.anchor;

    // Byte conservation across the rollback: restoring can only
    // discard work, never invent traffic.
    std::uint64_t bytes_before = 0;
    std::uint64_t msgs_before = 0;
    for (const auto &ctx : m_.ranks) {
        bytes_before += ctx.result.bytesSent;
        msgs_before += ctx.result.messagesSent;
    }

    // Splice the timeline at the cut while the pre-rollback rank
    // states are still visible: ahead-recorded compute bursts are
    // clipped to what actually executed, open blocked windows are
    // closed at the failure instant (their tails past the cut are
    // wasted work, recorded as such).
    if (capture_) {
        timeline_.truncateAt(t);
        for (const auto &ctx : m_.ranks) {
            if (!ctx.done && ctx.blocked && ctx.blockStart < t) {
                timeline_.addInterval(ctx.rank, ctx.blockStart, t,
                                      ctx.blockState);
            }
        }
    }

    // Cancel what the failure caught mid-flight; occupancy must
    // return to zero before the image's flows take over.
    m_.network.cancelAll();
    ovlAssert(m_.network.totalLoad() == 0,
              "cancelled in-flight flows left link occupancy behind");

    // Restore the image whole and shift it into the restarted time
    // frame. The containers copy back onto their retained arenas,
    // so restores do not reallocate. Copying a valid heap array
    // builds the same array as pushing its entries in array order,
    // so the copy counts as that many pushes.
    m_ = s.machine;
    stats_.heapPushes += m_.events.size();
    // The image was taken with the stats pointer embedded; re-aim it
    // at this run's live counters (monotone across rollbacks, never
    // restored).
    m_.network.setStats(&stats_);
    m_.shift(delta);
    ovlAssert(m_.network.totalLoad() == s.machine.network.totalLoad(),
              "restore changed link occupancy");
    if (capture_)
        txMeta_.resize(m_.transfers.size());

    std::uint64_t bytes_after = 0;
    std::uint64_t msgs_after = 0;
    for (const auto &ctx : m_.ranks) {
        bytes_after += ctx.result.bytesSent;
        msgs_after += ctx.result.messagesSent;
    }
    ovlAssert(bytes_after <= bytes_before &&
                  msgs_after <= msgs_before,
              "rollback increased sent traffic");

    // Simulated time spent redoing rolled-back work plus the
    // restart cost itself — the rework this rollback added.
    stats_.rollbackReworkNs +=
        static_cast<std::uint64_t>(delta.ns());
    stats_.snapshotBytes += s.machine.imageBytes();

    // The machine pays the restart: every rank alive in the
    // restored image spends [t, restore_at] rolling back.
    if (capture_) {
        for (const auto &ctx : m_.ranks) {
            if (!ctx.done) {
                timeline_.addInterval(ctx.rank, t, restore_at,
                                      RankState::restart);
            }
        }
    }
}

/**
 * Flat-bus scenario pricing of a remote src -> dst node transfer
 * starting at `begin`: serialization and flight latency under the
 * product of the multipliers of every degrade in effect at that
 * instant, then the serialization stretched across the stall
 * windows it meets. Returns the injection instant (SimTime::max()
 * when a stall never recovers) and sets the flight latency.
 */
SimTime
Engine::flatScenPrice(int src, int dst, Bytes bytes, SimTime begin,
                      SimTime &lat)
{
    double bw = 1.0;
    double latm = 1.0;
    m_.active.flatDegrade(scenario_, src, dst, begin, bw, latm,
                          stats_.scenarioScanSteps);
    const double ser_ns = static_cast<double>(bytes) * 1e3 /
        (platform_.bandwidthMBps * bw);
    const SimTime ser = roundNs(ser_ns);
    lat = latm == 1.0
        ? latencyRemote_
        : roundNs(static_cast<double>(latencyRemote_.ns()) * latm);
    return m_.active.flatStallFinish(scenario_, src, dst, begin,
                                     begin + ser,
                                     stats_.scenarioScanSteps);
}

void
Engine::reportDeadlock() const
{
    std::string detail;
    for (const auto &ctx : m_.ranks) {
        if (ctx.done)
            continue;
        detail += strformat(
            "\n  rank %d: blocked=%s state=%s pc=%zu/%zu "
            "awaiting=%u",
            ctx.rank, ctx.blocked ? "yes" : "no",
            rankStateName(ctx.blockState),
            static_cast<std::size_t>(ctx.pc),
            static_cast<std::size_t>(ctx.end), ctx.awaitingCount);
        // A rank wedged inside a lowered collective names the
        // schedule step its cursor is parked on — "blocked in a
        // collective" alone does not say which transfer of which
        // operation never completed.
        if (!algorithmic_ || !ctx.blocked ||
            ctx.blockState != RankState::collective)
            continue;
        const auto ri = static_cast<std::size_t>(ctx.rank);
        for (std::uint32_t c = 0;
             c < static_cast<std::uint32_t>(m_.barriers.size());
             ++c) {
            const std::uint32_t exec = m_.barriers[c].exec;
            if (exec == npos32)
                continue;
            const CollExec &ex = m_.collExecs[exec];
            const std::uint8_t st = ex.rankState[ri];
            if (st != collWaitInject && st != collWaitRecv)
                continue;
            const auto steps = collSched_[c]->stepsOf(ctx.rank);
            const coll::Step &step = steps[ex.cursor[ri]];
            detail += strformat(
                " collective=%s#%u step=%u/%zu (%s rank %d)",
                trace::collOpName(
                    program_->collectives()[c].op),
                c, ex.cursor[ri], steps.size(),
                st == collWaitInject ? "send to" : "recv from",
                step.peer);
            break;
        }
    }
    // Frozen traffic with no recovery in the stream is the likely
    // culprit; say so.
    for (const std::uint32_t i : m_.active.live) {
        const scen::ScenarioEvent &ev = scenario_.event(i);
        if (ev.kind == scen::ScenEventKind::fail &&
            ev.semantics == scen::FailSemantics::stall &&
            scenario_.matchOf(i) == scen::CompiledScenario::npos) {
            detail += strformat(
                "\n  note: scenario event `%s` never recovers",
                ev.describe().c_str());
        }
    }
    fatal("replay deadlocked with ", nranks_ - m_.doneRanks,
          " rank(s) unfinished:", detail);
}

} // namespace

struct ReplaySession::Impl
{
    Engine engine;
};

ReplaySession::ReplaySession() : impl_(std::make_unique<Impl>()) {}
ReplaySession::~ReplaySession() = default;
ReplaySession::ReplaySession(ReplaySession &&) noexcept = default;
ReplaySession &
ReplaySession::operator=(ReplaySession &&) noexcept = default;

SimResult
ReplaySession::run(const trace::TraceSet &traces,
                   const PlatformConfig &platform)
{
    return impl_->engine.run(compileTrace(traces), platform);
}

SimResult
ReplaySession::run(const ReplayProgram &program,
                   const PlatformConfig &platform)
{
    return impl_->engine.run(program, platform);
}

SimResult
simulate(const trace::TraceSet &traces,
         const PlatformConfig &platform)
{
    Engine engine;
    return engine.run(compileTrace(traces), platform);
}

SimResult
simulate(const ReplayProgram &program,
         const PlatformConfig &platform)
{
    Engine engine;
    return engine.run(program, platform);
}

} // namespace ovlsim::sim
