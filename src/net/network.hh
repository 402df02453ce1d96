/**
 * @file
 * Link-level contention model over compiled topologies.
 *
 * LinkNetwork tracks the set of in-flight transfers (flows) of one
 * replay. A flow occupies every link of its route for its whole
 * serialization; each link's capacity is shared equally among
 * its occupants, and a flow progresses at the bandwidth of its
 * bottleneck link share — a simplified fluid model re-evaluated at
 * event granularity, in the spirit of SimGrid's flow-level network
 * models.
 *
 * The driver (sim/engine.cc) owns the event heap; LinkNetwork owns
 * bytes-remaining accounting and rate assignment:
 *
 *  - start() admits a flow and returns the finish time to schedule,
 *  - onFinishEvent() is called when a scheduled finish event fires;
 *    it either completes the flow (freeing its links and recomputing
 *    the rates of the flows it bottlenecked) or reports the
 *    corrected finish time to reschedule — flows slow down lazily
 *    (the stale early event re-arms itself) and speed up eagerly
 *    (completions emit reschedules via pendingReschedules()).
 *
 * Each flow carries its own hops: its effective route (the
 * topology's computed route, or a scenario reroute detour) is
 * resolved once at admission and at every reroute into a per-flow
 * slot of one flat hop array, and everything after reads it there.
 * The network holds no per-(src, dst) state: reroute overrides exist
 * only for pairs a dead link severed. Every link keeps a list of the
 * flows occupying it, so a join, leave, cancel or rescale visits only
 * the flows that share a link with the change; flows elsewhere keep
 * their (still exact) shares and armed events untouched.
 *
 * Between calls every in-flight flow's rate equals its bottleneck
 * share, the minimum over its links of capacity / occupancy, with
 * two exceptions the rules below allow: the occupants of links a
 * burst lowered, and flows finishing at the current instant. Two
 * update rules keep it so without re-deriving most rates, and a
 * third skips walks whose result nothing would read:
 *
 *  - an admission lowers shares on its own route only, so every
 *    flow there takes min(rate, the link's new share), and only the
 *    admitted flow walks its hops. The mins are deferred: each route
 *    link that holds another occupant joins a lowered-link list
 *    (once), and the occupants of every listed link take the min
 *    once, at the first call that is not another admission at the
 *    same instant — onFinishEvent, cancel, setLinkScale (so
 *    applyScales finds none pending), shiftFlowClocks, a committing
 *    rerouteDeadLinks or start() at another instant — before that
 *    call settles progress or changes a share. cancelAll and
 *    configure drop the list. Until then only the listed links'
 *    occupants may hold a rate above their bottleneck share;
 *  - a completion or cancel raises shares on the freed links only,
 *    so only flows whose rate equals a freed link's share before
 *    the leave can speed up; the rest are bottlenecked on an
 *    unchanged link. Those few walk their hops again;
 *  - a flow whose finish event is due by that instant (armed <= now)
 *    and whose bytes are done (remaining <= remainingEps) is not
 *    walked by a removal or rescale: its bytes can only fall
 *    further, so it completes at its own pending event whatever
 *    rate it holds, and it may keep a rate below its share until
 *    then.
 *
 * All three are exact: a min is; within an admission-only burst
 * shares only fall, so one min over the final shares equals the
 * sequence of mins; a share only falls as its link's occupancy
 * grows; and a finishing flow's re-arm could never be taken
 * (finish >= now >= armed). A rescale (applyScales) and a reroute
 * recompute every other flow they touch, and a staged rescale must
 * be committed before the next admission or removal.
 *
 * Only the progress settle (advanceAll) walks every flow, and only
 * when some flow's clock can be behind the settle instant: the
 * network keeps a floor under every flow's clock, so the settles of
 * a round that admits and retires many flows at one instant cost
 * one comparison each.
 *
 * Scheduling stays deterministic: each flow carries its admission
 * sequence number and rate changes are handed out in that order,
 * whatever order the occupant lists yield the flows in (the engine's
 * heap breaks ties by push order). All arithmetic is event-ordered
 * double precision, and equal replays produce equal event sequences
 * on any host or thread.
 */

#ifndef OVLSIM_NET_NETWORK_HH
#define OVLSIM_NET_NETWORK_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/topology.hh"
#include "obs/stats.hh"
#include "util/types.hh"

namespace ovlsim::net {

class LinkNetwork
{
  public:
    /**
     * Flow ids are dense from 0 (the engine's transfer indices) or
     * dense from this base (its background flows); the network
     * indexes its id -> slot tables directly by them.
     */
    static constexpr std::uint32_t backgroundIdBase = 1u << 28;

    LinkNetwork() = default;

    /**
     * Bind to a compiled topology with a base link bandwidth in
     * MB/s (a factor-1.0 link). Drops any in-flight flows; keeps
     * allocations, so sessions reconfigure per replay for free.
     */
    void configure(const CompiledTopology *topo, double base_mbps);

    /**
     * Aim the network's observability counters (rate recomputes
     * taken vs skipped, finish re-arms) at the owner's stats block.
     * Non-owning; null (the default) disables counting. The driver
     * re-installs the pointer after every snapshot restore — this
     * object is copied whole into checkpoint images, and the
     * counters must stay monotone across rollbacks rather than
     * follow the machine state back.
     */
    void setStats(obs::EngineStats *stats) { stats_ = stats; }

    /**
     * Admit flow `id` from `src` to `dst` nodes at `now` and return
     * the finish time the driver must schedule. Admission can only
     * slow other flows down; their already-scheduled finish events
     * re-arm lazily when they fire early. Returns SimTime::max()
     * when the route is currently frozen (a scenario stalled or
     * failed one of its links): the flow is admitted but makes no
     * progress, and a later applyScales() recovery reschedules it.
     */
    SimTime start(std::uint32_t id, int src, int dst, Bytes bytes,
                  SimTime now);

    struct FinishCheck
    {
        /** The flow completed; its links are freed. */
        bool done = false;
        /** When !done && reschedule: the corrected finish time. */
        SimTime retry;
        /**
         * When !done: whether the driver must schedule `retry` (a
         * pending event may already cover the corrected finish).
         */
        bool reschedule = false;
        /**
         * When done: the completed flow's effective route (arrival
         * pricing reads its hop count and links). Valid until the
         * next call that admits, removes or reroutes a flow.
         */
        std::span<const std::uint32_t> route;
    };

    /**
     * A finish event for `id` fired at `now`. Completion frees the
     * flow's links, advances every surviving flow and recomputes
     * the rates of those it bottlenecked (a freed link was their
     * bottleneck); flows that sped up appear in
     * pendingReschedules() for the engine to re-arm, in admission
     * order.
     */
    FinishCheck onFinishEvent(std::uint32_t id, SimTime now);

    /**
     * (flow id, earlier finish time) pairs produced by the last
     * completion; the driver schedules each and then clears.
     */
    std::span<const std::pair<std::uint32_t, SimTime>>
    pendingReschedules() const
    {
        return reschedules_;
    }

    void clearPendingReschedules() { reschedules_.clear(); }

    /** In-flight flow count (0 when the network is drained). */
    std::uint32_t
    activeFlows() const
    {
        return static_cast<std::uint32_t>(flows_.size());
    }

    /**
     * Sum of link occupancies. Invariant pinned by tests: equals
     * the summed route lengths of the in-flight flows, and zero
     * once the network drains.
     */
    std::uint64_t totalLoad() const;

    /** Current occupancy of one link (flows crossing it). */
    std::uint32_t
    linkLoad(std::uint32_t link) const
    {
        return linkLoad_[link];
    }

    /**
     * Scenario seam: scale a link's capacity relative to its
     * configured rate. 1.0 restores the compiled capacity, values
     * in (0, 1) degrade it, 0 kills the link (flows crossing it
     * freeze at rate 0). Takes effect at the next applyScales(),
     * which must come before the next start(), completion or
     * cancel: until then the link's share and the rates of its
     * flows disagree, and those calls update rates from the share
     * (they assert that nothing is staged).
     */
    void setLinkScale(std::uint32_t link, double scale);

    /** Current scenario scale of a link (1.0 when undisturbed). */
    double
    linkScale(std::uint32_t link) const
    {
        return linkScale_[link];
    }

    /**
     * Commit pending setLinkScale() changes at `now`: settle every
     * flow's progress under the old rates, then recompute the rates
     * of flows crossing a changed link through the same bottleneck
     * machinery as admission/completion. Slowdowns re-arm lazily
     * (the stale early event corrects itself); speedups — including
     * flows unfreezing after a recovery — appear in
     * pendingReschedules() for the driver.
     */
    void applyScales(SimTime now);

    /**
     * Effective route of a (src, dst) pair, copied out: the scenario
     * reroute override when one is active, else the topology's
     * route. For tests and diagnostics; admission resolves the same
     * route into the flow's own hop slot without allocating.
     */
    std::vector<std::uint32_t> routeOf(int src, int dst) const;

    /**
     * Resilience seam: slide every in-flight flow's clock forward
     * by `delta` without progressing any bytes. The checkpoint
     * freeze stops simulated time for the whole machine while the
     * checkpoint is written; the driver shifts its pending events
     * by the same delta, so each flow's armed event still matches
     * its (unchanged) remaining bytes and rate.
     */
    void shiftFlowClocks(SimTime delta);

    /** Bytes of state a copy of this network moves (a checkpoint
     * image or its restore), hop slots and overrides included. */
    std::size_t stateBytes() const;

    /**
     * Resilience seam: abort in-flight flow `id` at `now` without
     * completing it (a fail-stop rollback cancels the transfer).
     * Frees the flow's links exactly like a completion — so
     * totalLoad() drops by the effective route length and the
     * occupancy invariant is conserved — then recomputes the rates
     * of the survivors it bottlenecked; speedups appear in
     * pendingReschedules().
     */
    void cancel(std::uint32_t id, SimTime now);

    /** Cancel every in-flight flow (rollback of a whole replay
     * region) without settling it. Afterwards activeFlows() and
     * totalLoad() are 0. */
    void cancelAll();

    /** First unroutable pair when rerouteDeadLinks() fails. */
    struct RerouteReport
    {
        bool ok = true;
        int src = 0;
        int dst = 0;
    };

    /**
     * Re-resolve every (src, dst) pair whose computed route
     * crosses a dead (scale == 0) link: breadth-first shortest path
     * over the surviving directed links of the topology graph,
     * deterministic (links expand in id order). Only those severed
     * pairs get an override; the rest follow their computed route.
     * Visits every pair, but holds no per-pair memory. In-flight
     * flows re-resolve their hops and migrate — their occupancy
     * moves from the old route to the new one and every rate is
     * recomputed, so totalLoad() stays equal to the summed
     * effective route lengths. Returns {false, src, dst} for the
     * first pair with no surviving path (the topology has no
     * diversity there); the caller decides how fatal that is. A
     * failed reroute is a no-op: routes, loads and flows stay
     * exactly as they were.
     */
    RerouteReport rerouteDeadLinks(SimTime now);

  private:
    struct Flow
    {
        std::uint32_t id = 0;
        int src = 0;
        int dst = 0;
        /** First of this flow's occupant nodes (one per route hop,
         * chained through Occupant::sibling). */
        std::uint32_t occ = 0;
        /** Admission sequence number: the order rate changes are
         * handed out in. */
        std::uint64_t seq = 0;
        /** Bytes still to serialize through the bottleneck. */
        double remaining = 0.0;
        /** Current bottleneck share, bytes per ns. */
        double rate = 0.0;
        SimTime lastUpdate;
        /**
         * Time of the pending finish event believed to be the
         * earliest for this flow. Between rate changes there is
         * always one pending event at `armed`, so no completion is
         * ever missed; extra stale events re-arm or fall through
         * harmlessly.
         */
        SimTime armed;
        /** Already in visit_ (see collect()); false between calls. */
        bool collected = false;
        /** Route length: the flow's links are the first `hops`
         * entries of its slot in hops_. */
        std::uint32_t hops = 0;
    };
    static_assert(sizeof(Flow) == 64, "Flow spans one cache line");

    /**
     * One hop of one flow: a node of the link's doubly-linked
     * occupant list. Nodes live in one flat pool (occ_, free list
     * through `next`) so a snapshot copy stays a few flat vectors.
     */
    struct Occupant
    {
        std::uint32_t flow = 0; // slot in flows_
        std::uint32_t link = 0;
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
        std::uint32_t sibling = 0; // next hop of the same flow
    };

    /** Bottleneck share of flow `slot` under current occupancies. */
    double bottleneckRate(std::uint32_t slot) const;

    /** Re-derive the cached per-flow share of `link`. */
    void refreshShare(std::uint32_t link);

    /** Links of flow `slot` (its hop slot's used prefix). */
    std::span<const std::uint32_t>
    hopsOf(std::uint32_t slot) const
    {
        return {hops_.data() + std::size_t{slot} * stride_,
                flows_[slot].hops};
    }

    /**
     * Write the effective route of (src, dst) — its reroute
     * override, else the topology's route — into `out` (room for
     * stride_ ids); returns the length.
     */
    std::uint32_t resolve(int src, int dst, std::uint32_t *out) const;

    /** Resolve flow `slot`'s route into its hop slot, then put the
     * flow on every one of those links. */
    void occupy(std::uint32_t slot);

    /** Take flow `slot` off every link it occupies. */
    void vacate(std::uint32_t slot);

    /**
     * Append to visit_ the flows occupying one of `links`, once
     * each: the only flows whose bottleneck share a load or rate
     * change on those links can move. With `freed` (the links a
     * removal just left) only flows whose rate equals a link's
     * share before the leave are collected. A flow that finishes
     * at `now` (armed <= now, bytes done) is never collected. Every
     * other occupant visit counts as recomputesSkipped.
     */
    void collect(std::span<const std::uint32_t> links, bool freed,
                 SimTime now);

    /**
     * Give every occupant of a listed link min(rate, the link's
     * share) and empty the list: the deferred admission mins of the
     * last burst (see the file comment). Each visit counts as
     * recomputesSkipped.
     */
    void applyLowered();

    /**
     * Recompute the rates of the collected flows in collection order
     * and re-arm eagerly the ones that sped up; only those re-arms
     * are sorted into admission order and emitted as reschedules.
     * Clears visit_. Shared tail of completion, cancel, applyScales
     * and rerouteDeadLinks.
     */
    void rebalance(SimTime now);

    /** Settle, drop flow `slot` (completed or cancelled) and hand
     * its freed capacity to the flows it bottlenecked. */
    void remove(std::uint32_t slot, SimTime now);

    /** Slot-table entry of flow `id` (npos when not in flight). */
    std::uint32_t &slotOf(std::uint32_t id);

    /**
     * Progress every flow to `now` at its current rate. Returns at
     * once when `now` is not past settleFloor_: no flow's clock is
     * behind it, so the walk would advance none.
     */
    void advanceAll(SimTime now);

    /**
     * Finish instant of a flow at its current rate (ceil to the
     * integer-ns clock, so the event never fires with bytes left
     * from rounding alone). A rate so small that the count passes
     * the clock raises FatalError (roundNs).
     */
    static SimTime finishTime(const Flow &flow, SimTime now);

    /** Override-map key of a (src, dst) pair (row-major order). */
    std::uint64_t
    pairKey(int src, int dst) const
    {
        return static_cast<std::uint64_t>(src) *
            static_cast<std::uint64_t>(topo_->nodes()) +
            static_cast<std::uint64_t>(dst);
    }

    const CompiledTopology *topo_ = nullptr;
    /** Per-link capacity in bytes/ns and current occupancy. */
    std::vector<double> linkRate_;
    std::vector<std::uint32_t> linkLoad_;
    /** linkRate_ / linkLoad_ per occupied link (stale when empty). */
    std::vector<double> linkShare_;
    /** Head of each link's occupant list (npos when empty). */
    std::vector<std::uint32_t> linkHead_;
    /** Per link: 1 while it is in lowered_. */
    std::vector<std::uint8_t> linkListed_;
    /** Links an admission of the current burst shared with another
     * occupant, once each: their occupants' mins are pending. */
    std::vector<std::uint32_t> lowered_;
    /** Instant of the burst lowered_ belongs to. */
    SimTime loweredAt_;
    std::vector<Occupant> occ_;
    std::uint32_t occFree_ = 0;
    /** Configured (scale-1.0) capacity per link. */
    std::vector<double> linkBase_;
    /** Scenario capacity scale per link (1.0 = undisturbed). */
    std::vector<double> linkScale_;
    /** Links changed since the last applyScales(). */
    std::vector<std::uint32_t> scaleDirty_;
    /** Reroute overrides, one per severed pair: sorted pairKey()s,
     * each with its detour at overrideLinks_[overrideBegin_[i],
     * overrideBegin_[i + 1]). Empty = no overrides. */
    std::vector<std::uint64_t> overrideKeys_;
    std::vector<std::uint32_t> overrideBegin_;
    std::vector<std::uint32_t> overrideLinks_;
    /** In-flight flows, packed: a removal moves the last flow (and
     * its hop slot) into the hole and re-points its occupant
     * nodes. */
    std::vector<Flow> flows_;
    /** Hop slots, stride_ ids per flow slot: the topology's
     * maxRouteLength(), or the longest override when one is
     * longer. */
    std::vector<std::uint32_t> hops_;
    std::size_t stride_ = 0;
    /** Route of the last removed flow (FinishCheck::route). */
    std::vector<std::uint32_t> gone_;
    /** Flow id -> slot: [0] by transfer id, [1] by id minus
     * backgroundIdBase. */
    std::vector<std::uint32_t> slots_[2];
    std::uint64_t nextSeq_ = 0;
    /**
     * Lower bound on every in-flight flow's lastUpdate (max() after
     * configure() and cancelAll()): a settle walk raises it to its
     * instant, an admission lowers it to the admitted flow's, a
     * clock shift moves it with the flows, and a removal or a single
     * flow's progress cannot take a clock below it.
     */
    SimTime settleFloor_ = SimTime::max();
    /** Flow slots collected for the current rebalance (its re-arms
     * once the rates are recomputed). */
    std::vector<std::uint32_t> visit_;
    std::vector<std::pair<std::uint32_t, SimTime>> reschedules_;
    /** Observability sink (see setStats); null = disabled. */
    obs::EngineStats *stats_ = nullptr;
};

} // namespace ovlsim::net

#endif // OVLSIM_NET_NETWORK_HH
