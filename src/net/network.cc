#include "network.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"
#include "util/mathutil.hh"

namespace ovlsim::net {

namespace {

/**
 * Residual-byte tolerance when deciding that a flow has finished.
 * finishTime() rounds up to the integer-ns clock, so at the armed
 * instant a flow's remaining bytes are <= 0 up to double rounding;
 * anything materially positive means a slowdown intervened and the
 * event fired early.
 */
constexpr double remainingEps = 1e-3;

/** End of an occupant list / chain. */
constexpr std::uint32_t npos = std::numeric_limits<std::uint32_t>::max();

} // namespace

void
LinkNetwork::configure(const CompiledTopology *topo,
                       double base_mbps)
{
    ovlAssert(topo != nullptr, "LinkNetwork: null topology");
    ovlAssert(base_mbps > 0.0,
              "LinkNetwork: base bandwidth must be positive");
    topo_ = topo;
    const std::size_t links = topo->linkCount();
    linkRate_.resize(links);
    linkBase_.resize(links);
    for (std::size_t l = 0; l < links; ++l) {
        // MB/s = 1e6 bytes per second = 1e-3 bytes per ns.
        linkBase_[l] = topo->linkFactor(
                           static_cast<std::uint32_t>(l)) *
            base_mbps * 1e-3;
        linkRate_[l] = linkBase_[l];
    }
    linkScale_.assign(links, 1.0);
    scaleDirty_.clear();
    overrideKeys_.clear();
    overrideBegin_.clear();
    overrideLinks_.clear();
    linkLoad_.assign(links, 0);
    linkShare_.assign(links, 0.0);
    linkHead_.assign(links, npos);
    linkListed_.assign(links, 0);
    lowered_.clear();
    occ_.clear();
    occFree_ = npos;
    flows_.clear();
    hops_.clear();
    stride_ = topo->maxRouteLength();
    gone_.clear();
    slots_[0].clear();
    slots_[1].clear();
    nextSeq_ = 0;
    settleFloor_ = SimTime::max();
    reschedules_.clear();
}

std::uint32_t
LinkNetwork::resolve(int src, int dst, std::uint32_t *out) const
{
    if (!overrideKeys_.empty()) {
        const std::uint64_t key = pairKey(src, dst);
        const auto it = std::lower_bound(overrideKeys_.begin(),
                                         overrideKeys_.end(), key);
        if (it != overrideKeys_.end() && *it == key) {
            const auto i =
                static_cast<std::size_t>(it - overrideKeys_.begin());
            const std::uint32_t *begin =
                overrideLinks_.data() + overrideBegin_[i];
            const std::uint32_t *end =
                overrideLinks_.data() + overrideBegin_[i + 1];
            std::copy(begin, end, out);
            return static_cast<std::uint32_t>(end - begin);
        }
    }
    return static_cast<std::uint32_t>(
        topo_->route(src, dst, {out, stride_}).size());
}

std::vector<std::uint32_t>
LinkNetwork::routeOf(int src, int dst) const
{
    std::vector<std::uint32_t> route(stride_);
    route.resize(resolve(src, dst, route.data()));
    return route;
}

void
LinkNetwork::refreshShare(std::uint32_t link)
{
    if (linkLoad_[link] > 0)
        linkShare_[link] = linkRate_[link] /
            static_cast<double>(linkLoad_[link]);
}

void
LinkNetwork::occupy(std::uint32_t slot)
{
    Flow &flow = flows_[slot];
    flow.occ = npos;
    flow.hops = resolve(flow.src, flow.dst,
                        hops_.data() + std::size_t{slot} * stride_);
    for (const std::uint32_t link : hopsOf(slot)) {
        std::uint32_t n = occFree_;
        if (n == npos) {
            n = static_cast<std::uint32_t>(occ_.size());
            occ_.emplace_back();
        } else {
            occFree_ = occ_[n].next;
        }
        occ_[n] = Occupant{slot, link, npos, linkHead_[link], flow.occ};
        if (linkHead_[link] != npos)
            occ_[linkHead_[link]].prev = n;
        linkHead_[link] = n;
        flow.occ = n;
        ++linkLoad_[link];
        refreshShare(link);
    }
}

void
LinkNetwork::vacate(std::uint32_t slot)
{
    for (std::uint32_t n = flows_[slot].occ; n != npos;) {
        const Occupant o = occ_[n];
        if (o.prev != npos)
            occ_[o.prev].next = o.next;
        else
            linkHead_[o.link] = o.next;
        if (o.next != npos)
            occ_[o.next].prev = o.prev;
        ovlAssert(linkLoad_[o.link] > 0,
                  "LinkNetwork: link occupancy underflow");
        --linkLoad_[o.link];
        refreshShare(o.link);
        occ_[n].next = occFree_;
        occFree_ = n;
        n = o.sibling;
    }
    flows_[slot].occ = npos;
}

void
LinkNetwork::collect(std::span<const std::uint32_t> links, bool freed,
                     SimTime now)
{
    for (const std::uint32_t link : links) {
        // A freed link's share before the leave (the division
        // refreshShare() cached while the removed flow held it). A
        // flow below it is bottlenecked on a link the leave did not
        // touch, so its rate cannot move; with no leave every rate
        // (>= 0) passes.
        const double before = freed
            ? linkRate_[link] / static_cast<double>(linkLoad_[link] + 1)
            : 0.0;
        for (std::uint32_t n = linkHead_[link]; n != npos;
             n = occ_[n].next) {
            Flow &flow = flows_[occ_[n].flow];
            // A flow whose bytes are done and whose finish event is
            // due by now completes at that event whatever its rate
            // (its bytes can only fall further), and finish >= now
            // >= armed could never re-arm it.
            if (flow.collected || flow.rate < before ||
                (flow.armed <= now && flow.remaining <= remainingEps)) {
                if (stats_)
                    ++stats_->recomputesSkipped;
                continue;
            }
            flow.collected = true;
            visit_.push_back(occ_[n].flow);
        }
    }
}

void
LinkNetwork::applyLowered()
{
    // Within a burst shares only fell, so one min over each listed
    // link's final share equals the per-admission mins it replaces.
    std::uint64_t visits = 0;
    for (const std::uint32_t link : lowered_) {
        linkListed_[link] = 0;
        const double share = linkShare_[link];
        visits += linkLoad_[link];
        for (std::uint32_t n = linkHead_[link]; n != npos;
             n = occ_[n].next) {
            Flow &flow = flows_[occ_[n].flow];
            if (share < flow.rate)
                flow.rate = share;
        }
    }
    lowered_.clear();
    if (stats_)
        stats_->recomputesSkipped += visits;
}

double
LinkNetwork::bottleneckRate(std::uint32_t slot) const
{
    double rate = std::numeric_limits<double>::infinity();
    for (const std::uint32_t link : hopsOf(slot)) {
        if (linkShare_[link] < rate)
            rate = linkShare_[link];
    }
    // Rate 0 is legal: a scenario froze a link on the route and the
    // flow is parked until recovery.
    ovlAssert(rate >= 0.0 && std::isfinite(rate),
              "LinkNetwork: flow over an empty route");
    return rate;
}

void
LinkNetwork::advanceAll(SimTime now)
{
    // No flow's clock is behind the floor, so a settle at or before
    // it would advance none: the usual case when a round admits and
    // retires many flows at one instant.
    if (now <= settleFloor_)
        return;
    for (Flow &flow : flows_) {
        const std::int64_t dt = (now - flow.lastUpdate).ns();
        if (dt <= 0)
            continue;
        flow.remaining -= flow.rate * static_cast<double>(dt);
        if (flow.remaining < 0.0)
            flow.remaining = 0.0;
        flow.lastUpdate = now;
    }
    settleFloor_ = now;
}

void
LinkNetwork::rebalance(SimTime now)
{
    // A flow's new rate reads link shares this loop never writes,
    // and its re-arm reads only the flow itself, so the flows are
    // recomputed in collection order. The re-arms are compacted to
    // the front of visit_ and handed out in admission order, so the
    // engine pushes reschedules — and its heap breaks their ties —
    // exactly as a walk over every flow in admission order would.
    std::size_t rearms = 0;
    for (const std::uint32_t slot : visit_) {
        Flow &flow = flows_[slot];
        flow.collected = false;
        if (stats_)
            ++stats_->rateRecomputes;
        const double rate = bottleneckRate(slot);
        if (rate == flow.rate) {
            if (stats_)
                ++stats_->rearmsSkipped;
            continue;
        }
        flow.rate = rate;
        const SimTime finish = finishTime(flow, now);
        if (finish < flow.armed) {
            flow.armed = finish;
            visit_[rearms++] = slot;
            if (stats_)
                ++stats_->rearmsTaken;
        } else if (stats_) {
            ++stats_->rearmsSkipped;
        }
    }
    visit_.resize(rearms);
    if (rearms > 1)
        std::sort(visit_.begin(), visit_.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return flows_[a].seq < flows_[b].seq;
                  });
    for (const std::uint32_t slot : visit_)
        reschedules_.emplace_back(flows_[slot].id, flows_[slot].armed);
    visit_.clear();
}

SimTime
LinkNetwork::finishTime(const Flow &flow, SimTime now)
{
    if (flow.remaining <= 0.0)
        return now;
    if (flow.rate <= 0.0)
        return SimTime::max(); // frozen: only a recovery re-arms
    return now + roundNs(std::ceil(flow.remaining / flow.rate));
}

std::uint32_t &
LinkNetwork::slotOf(std::uint32_t id)
{
    const bool background = id >= backgroundIdBase;
    std::vector<std::uint32_t> &table = slots_[background];
    const std::uint32_t i = background ? id - backgroundIdBase : id;
    if (i >= table.size())
        table.resize(i + 1, npos);
    return table[i];
}

SimTime
LinkNetwork::start(std::uint32_t id, int src, int dst, Bytes bytes,
                   SimTime now)
{
    ovlAssert(topo_ != nullptr, "LinkNetwork: not configured");
    ovlAssert(src != dst,
              "LinkNetwork: intra-node traffic bypasses the "
              "network");
    ovlAssert(scaleDirty_.empty(),
              "LinkNetwork: admission with a link scale staged");
    // An admission at another instant ends the burst; its mins come
    // first. Then settle everyone's progress under the pre-admission
    // rates.
    if (now != loweredAt_)
        applyLowered();
    loweredAt_ = now;
    advanceAll(now);

    Flow flow;
    flow.id = id;
    flow.src = src;
    flow.dst = dst;
    flow.seq = nextSeq_++;
    flow.remaining = static_cast<double>(bytes);
    flow.lastUpdate = now;
    settleFloor_ = std::min(settleFloor_, now);
    const auto slot = static_cast<std::uint32_t>(flows_.size());
    std::uint32_t &entry = slotOf(id);
    ovlAssert(entry == npos, "LinkNetwork: flow id already in flight");
    entry = slot;
    flows_.push_back(flow);
    hops_.resize(flows_.size() * stride_);
    occupy(slot);

    // Occupancy grew only on the admitted route, so only the shares
    // there dropped. The admitted flow walks its own hops for its
    // bottleneck; every other flow on the route was at its
    // bottleneck share before, so its new bottleneck is the smaller
    // of its rate and the link's new share. That min is deferred:
    // each route link holding another occupant is listed once, and
    // applyLowered() visits its occupants at the first call that is
    // not another admission at this instant. Rates only drop, so no
    // armed event needs replacing: stale early events re-arm when
    // they fire. (A flow admitted mid-rendezvous-overhead may have
    // lastUpdate ahead of older flows; advanceAll clamps dt >= 0.)
    Flow &admitted = flows_[slot];
    admitted.rate = std::numeric_limits<double>::infinity();
    for (const std::uint32_t link : hopsOf(slot)) {
        admitted.rate = std::min(admitted.rate, linkShare_[link]);
        if (linkLoad_[link] > 1 && !linkListed_[link]) {
            linkListed_[link] = 1;
            lowered_.push_back(link);
        }
    }
    if (stats_)
        ++stats_->rateRecomputes;
    ovlAssert(std::isfinite(admitted.rate),
              "LinkNetwork: flow over an empty route");
    admitted.armed = finishTime(admitted, now);
    return admitted.armed;
}

LinkNetwork::FinishCheck
LinkNetwork::onFinishEvent(std::uint32_t id, SimTime now)
{
    applyLowered();
    const std::uint32_t slot = slotOf(id);
    ovlAssert(slot != npos, "LinkNetwork: finish event for unknown flow");
    {
        Flow &flow = flows_[slot];
        const std::int64_t dt = (now - flow.lastUpdate).ns();
        if (dt > 0) {
            flow.remaining -=
                flow.rate * static_cast<double>(dt);
            flow.lastUpdate = now;
        }
        if (flow.remaining > remainingEps) {
            // Early (stale) event: a slowdown moved the finish out.
            // Re-arm unless a pending event already covers it. A
            // frozen flow (rate 0) parks instead: no event to
            // schedule, the recovery's applyScales() re-arms it.
            const SimTime retry = finishTime(flow, now);
            FinishCheck check;
            check.retry = retry;
            if (retry == SimTime::max()) {
                flow.armed = SimTime::max();
                return check;
            }
            if (retry < flow.armed || flow.armed <= now) {
                flow.armed = retry;
                check.reschedule = true;
            }
            return check;
        }
    }

    // Completed: free the links, settle the survivors under the old
    // rates, then hand out the speedups to the flows bottlenecked on
    // a freed link — the only ones whose rate can have moved.
    remove(slot, now);
    FinishCheck check;
    check.done = true;
    check.retry = now;
    check.route = gone_;
    return check;
}

void
LinkNetwork::remove(std::uint32_t slot, SimTime now)
{
    ovlAssert(scaleDirty_.empty(),
              "LinkNetwork: removal with a link scale staged");
    advanceAll(now);
    // The hole is refilled below; the freed links are kept aside
    // for the rebalance (and the caller's arrival pricing).
    const auto route = hopsOf(slot);
    gone_.assign(route.begin(), route.end());
    vacate(slot);
    slotOf(flows_[slot].id) = npos;
    const auto last = static_cast<std::uint32_t>(flows_.size() - 1);
    if (slot != last) {
        Flow &moved = flows_[slot];
        moved = flows_[last];
        slotOf(moved.id) = slot;
        for (std::uint32_t n = moved.occ; n != npos;
             n = occ_[n].sibling)
            occ_[n].flow = slot;
        std::copy_n(hops_.data() + std::size_t{last} * stride_,
                    moved.hops,
                    hops_.data() + std::size_t{slot} * stride_);
    }
    flows_.pop_back();
    hops_.resize(flows_.size() * stride_);
    collect(gone_, true, now);
    rebalance(now);
}

void
LinkNetwork::shiftFlowClocks(SimTime delta)
{
    applyLowered();
    for (Flow &flow : flows_) {
        flow.lastUpdate = flow.lastUpdate + delta;
        if (flow.armed != SimTime::max())
            flow.armed = flow.armed + delta;
    }
    if (settleFloor_ != SimTime::max())
        settleFloor_ = settleFloor_ + delta;
}

std::size_t
LinkNetwork::stateBytes() const
{
    const auto bytes = [](const auto &v) {
        return v.size() * sizeof(v[0]);
    };
    return bytes(linkRate_) + bytes(linkLoad_) + bytes(linkShare_) +
        bytes(linkHead_) + bytes(linkListed_) + bytes(lowered_) +
        bytes(occ_) + bytes(linkBase_) +
        bytes(linkScale_) + bytes(scaleDirty_) +
        bytes(overrideKeys_) + bytes(overrideBegin_) +
        bytes(overrideLinks_) + bytes(flows_) + bytes(hops_) +
        bytes(gone_) + bytes(slots_[0]) + bytes(slots_[1]) +
        bytes(visit_) + bytes(reschedules_);
}

void
LinkNetwork::cancel(std::uint32_t id, SimTime now)
{
    // Identical bookkeeping to a completion, minus the "bytes hit
    // zero" part: settle everyone under the old rates, free the
    // aborted flow's links, redistribute the shares.
    applyLowered();
    const std::uint32_t slot = slotOf(id);
    ovlAssert(slot != npos, "LinkNetwork: cancel for unknown flow");
    remove(slot, now);
}

void
LinkNetwork::cancelAll()
{
    // No settle or rate recompute is needed: no survivors remain.
    for (const std::uint32_t link : lowered_)
        linkListed_[link] = 0;
    lowered_.clear();
    for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
        vacate(slot);
        slotOf(flows_[slot].id) = npos;
    }
    flows_.clear();
    hops_.clear();
    settleFloor_ = SimTime::max();
    reschedules_.clear();
}

std::uint64_t
LinkNetwork::totalLoad() const
{
    std::uint64_t total = 0;
    for (const std::uint32_t load : linkLoad_)
        total += load;
    return total;
}

void
LinkNetwork::setLinkScale(std::uint32_t link, double scale)
{
    ovlAssert(scale >= 0.0,
              "LinkNetwork: link scale must be non-negative");
    // The burst's mins must read the shares it lowered, not a
    // rescaled one.
    applyLowered();
    if (linkScale_[link] == scale)
        return;
    linkScale_[link] = scale;
    linkRate_[link] = linkBase_[link] * scale;
    refreshShare(link);
    scaleDirty_.push_back(link);
}

void
LinkNetwork::applyScales(SimTime now)
{
    // No burst mins can be pending: the setLinkScale() that staged a
    // change took them, and no admission comes between the two.
    if (scaleDirty_.empty())
        return;
    advanceAll(now);
    collect(scaleDirty_, false, now);
    scaleDirty_.clear();
    // Speedups (including unfreezes, whose armed is "never")
    // re-arm eagerly; slowdowns wait for their stale event.
    rebalance(now);
}

LinkNetwork::RerouteReport
LinkNetwork::rerouteDeadLinks(SimTime now)
{
    ovlAssert(topo_ != nullptr, "LinkNetwork: not configured");
    const int nodes = topo_->nodes();
    const std::uint32_t links = topo_->linkCount();

    // Adjacency of the surviving directed graph, links in id order
    // so the breadth-first parents — and hence every detour — are
    // deterministic.
    std::vector<std::vector<std::uint32_t>> out(
        topo_->vertexCount());
    for (std::uint32_t l = 0; l < links; ++l) {
        if (linkScale_[l] > 0.0)
            out[topo_->linkFrom(l)].push_back(l);
    }
    const auto isDead = [&](std::span<const std::uint32_t> route) {
        for (const std::uint32_t l : route)
            if (linkScale_[l] <= 0.0)
                return true;
        return false;
    };
    constexpr std::uint32_t noParent =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> parent(topo_->vertexCount());
    std::vector<std::uint32_t> queue;
    std::vector<std::uint32_t> computed(topo_->maxRouteLength());

    // Build the overrides aside, in pair order (so the keys come out
    // sorted); nothing is committed until every pair has a
    // surviving path.
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> detours;
    std::size_t stride = topo_->maxRouteLength();
    for (int s = 0; s < nodes; ++s) {
        for (int d = 0; d < nodes; ++d) {
            if (s == d || !isDead(topo_->route(s, d, computed)))
                continue; // computed route survives; no override
            // Shortest surviving path s -> d by hop count.
            parent.assign(parent.size(), noParent);
            queue.clear();
            queue.push_back(static_cast<std::uint32_t>(s));
            bool found = false;
            for (std::size_t head = 0;
                 head < queue.size() && !found; ++head) {
                const std::uint32_t v = queue[head];
                for (const std::uint32_t l : out[v]) {
                    const std::uint32_t w = topo_->linkTo(l);
                    if (w == static_cast<std::uint32_t>(s) ||
                        parent[w] != noParent)
                        continue;
                    parent[w] = l;
                    if (w == static_cast<std::uint32_t>(d)) {
                        found = true;
                        break;
                    }
                    queue.push_back(w);
                }
            }
            if (!found) {
                RerouteReport report;
                report.ok = false;
                report.src = s;
                report.dst = d;
                return report;
            }
            const std::size_t first = detours.size();
            for (std::uint32_t v = static_cast<std::uint32_t>(d);
                 v != static_cast<std::uint32_t>(s);
                 v = topo_->linkFrom(parent[v]))
                detours.push_back(parent[v]);
            std::reverse(detours.begin() +
                             static_cast<std::ptrdiff_t>(first),
                         detours.end());
            stride = std::max(stride, detours.size() - first);
            keys.push_back(pairKey(s, d));
            offsets.push_back(
                static_cast<std::uint32_t>(detours.size()));
        }
    }

    // Commit: settle progress, move every flow's occupancy from the
    // route it held to its new effective one (re-resolved into hop
    // slots of the new stride), then recompute every rate —
    // occupancies may have moved anywhere. Total load is conserved:
    // each flow holds exactly one route's worth at a time.
    applyLowered();
    advanceAll(now);
    for (std::uint32_t slot = 0; slot < flows_.size(); ++slot)
        vacate(slot);
    overrideKeys_ = std::move(keys);
    overrideLinks_ = std::move(detours);
    if (overrideKeys_.empty())
        overrideBegin_.clear();
    else
        overrideBegin_ = std::move(offsets);
    stride_ = stride;
    hops_.resize(flows_.size() * stride_);
    for (std::uint32_t slot = 0; slot < flows_.size(); ++slot) {
        occupy(slot);
        visit_.push_back(slot);
    }
    rebalance(now);
    return RerouteReport{};
}

} // namespace ovlsim::net
