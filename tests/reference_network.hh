/**
 * @file
 * Reference link-contention model for differential tests: the O(F)
 * formulation of net::LinkNetwork, in which every join, leave, cancel
 * and rescale walks every in-flight flow (admission-ordered vector,
 * linear id search, middle-of-vector erase, a touched-links epoch
 * filter and per-hop share divisions). It is deliberately naive, so
 * that its answers are easy to trust; test_net drives it side by side
 * with the production network and demands identical finish times,
 * finish checks, reschedule sequences and link loads.
 *
 * One behaviour differs from the original O(F) code on purpose:
 * rerouteDeadLinks() is transactional here as in production (a pair
 * with no surviving path leaves every route, load and flow
 * untouched), so fuzz streams may keep going after a failed reroute.
 * Routes are looked up per pair on every use, through a per-pair
 * override index (production resolves each flow's hops once and
 * keeps overrides only for severed pairs).
 */

#ifndef OVLSIM_TESTS_REFERENCE_NETWORK_HH
#define OVLSIM_TESTS_REFERENCE_NETWORK_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "helpers.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace ovlsim::testing {

class ReferenceLinkNetwork
{
  public:
    using FinishCheck = net::LinkNetwork::FinishCheck;
    using RerouteReport = net::LinkNetwork::RerouteReport;

    void
    configure(const net::CompiledTopology *topo, double base_mbps)
    {
        topo_ = topo;
        const std::size_t links = topo->linkCount();
        linkRate_.resize(links);
        linkBase_.resize(links);
        for (std::size_t l = 0; l < links; ++l) {
            linkBase_[l] =
                topo->linkFactor(static_cast<std::uint32_t>(l)) *
                base_mbps * 1e-3;
            linkRate_[l] = linkBase_[l];
        }
        linkScale_.assign(links, 1.0);
        scaleDirty_.clear();
        overrideIdx_.clear();
        overrideRoutes_.clear();
        linkLoad_.assign(links, 0);
        linkTouch_.assign(links, 0);
        touchEpoch_ = 0;
        flows_.clear();
        reschedules_.clear();
    }

    SimTime
    start(std::uint32_t id, int src, int dst, Bytes bytes, SimTime now)
    {
        advanceAll(now);
        for (const std::uint32_t link : routeOf(src, dst))
            ++linkLoad_[link];
        markTouched(src, dst);
        Flow flow;
        flow.id = id;
        flow.src = src;
        flow.dst = dst;
        flow.remaining = static_cast<double>(bytes);
        flow.lastUpdate = now;
        flows_.push_back(flow);
        for (Flow &f : flows_) {
            if (touches(f))
                f.rate = bottleneckRate(f);
        }
        Flow &admitted = flows_.back();
        admitted.armed = finishTime(admitted, now);
        return admitted.armed;
    }

    FinishCheck
    onFinishEvent(std::uint32_t id, SimTime now)
    {
        const std::size_t slot = find(id);
        {
            Flow &flow = flows_[slot];
            const std::int64_t dt = (now - flow.lastUpdate).ns();
            if (dt > 0) {
                flow.remaining -= flow.rate * static_cast<double>(dt);
                flow.lastUpdate = now;
            }
            if (flow.remaining > 1e-3) {
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
        remove(slot, now);
        FinishCheck check;
        check.done = true;
        check.retry = now;
        return check;
    }

    void cancel(std::uint32_t id, SimTime now) { remove(find(id), now); }

    void
    cancelAll()
    {
        for (const Flow &flow : flows_) {
            for (const std::uint32_t link : routeOf(flow.src, flow.dst))
                --linkLoad_[link];
        }
        flows_.clear();
        reschedules_.clear();
    }

    void
    shiftFlowClocks(SimTime delta)
    {
        for (Flow &flow : flows_) {
            flow.lastUpdate = flow.lastUpdate + delta;
            if (flow.armed != SimTime::max())
                flow.armed = flow.armed + delta;
        }
    }

    void
    setLinkScale(std::uint32_t link, double scale)
    {
        if (linkScale_[link] == scale)
            return;
        linkScale_[link] = scale;
        linkRate_[link] = linkBase_[link] * scale;
        scaleDirty_.push_back(link);
    }

    void
    applyScales(SimTime now)
    {
        if (scaleDirty_.empty())
            return;
        advanceAll(now);
        ++touchEpoch_;
        for (const std::uint32_t link : scaleDirty_)
            linkTouch_[link] = touchEpoch_;
        scaleDirty_.clear();
        rebalance(now, true);
    }

    RerouteReport
    rerouteDeadLinks(SimTime now)
    {
        const int nodes = topo_->nodes();
        const std::uint32_t links = topo_->linkCount();
        std::vector<std::vector<std::uint32_t>> out(topo_->vertexCount());
        for (std::uint32_t l = 0; l < links; ++l) {
            if (linkScale_[l] > 0.0)
                out[topo_->linkFrom(l)].push_back(l);
        }
        constexpr std::uint32_t noParent =
            std::numeric_limits<std::uint32_t>::max();
        std::vector<std::uint32_t> parent(topo_->vertexCount());
        std::vector<std::uint32_t> queue;
        std::vector<std::int32_t> idx(
            static_cast<std::size_t>(nodes) *
                static_cast<std::size_t>(nodes),
            -1);
        std::vector<std::vector<std::uint32_t>> routes;
        for (int s = 0; s < nodes; ++s) {
            for (int d = 0; d < nodes; ++d) {
                if (s == d)
                    continue;
                const auto compiled = testing::routeOf(*topo_, s, d);
                if (std::none_of(compiled.begin(), compiled.end(),
                                 [&](std::uint32_t l) {
                                     return linkScale_[l] <= 0.0;
                                 }))
                    continue;
                parent.assign(parent.size(), noParent);
                queue.assign(1, static_cast<std::uint32_t>(s));
                bool found = false;
                for (std::size_t head = 0; head < queue.size() && !found;
                     ++head) {
                    for (const std::uint32_t l : out[queue[head]]) {
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
                if (!found)
                    return RerouteReport{false, s, d};
                std::vector<std::uint32_t> path;
                for (std::uint32_t v = static_cast<std::uint32_t>(d);
                     v != static_cast<std::uint32_t>(s);
                     v = topo_->linkFrom(parent[v]))
                    path.push_back(parent[v]);
                std::reverse(path.begin(), path.end());
                idx[rowOf(s, d)] =
                    static_cast<std::int32_t>(routes.size());
                routes.push_back(std::move(path));
            }
        }
        advanceAll(now);
        std::vector<std::vector<std::uint32_t>> held;
        for (const Flow &flow : flows_) {
            const auto r = routeOf(flow.src, flow.dst);
            held.emplace_back(r.begin(), r.end());
        }
        overrideRoutes_ = std::move(routes);
        overrideIdx_ = std::move(idx);
        if (overrideRoutes_.empty())
            overrideIdx_.clear();
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            for (const std::uint32_t l : held[i])
                --linkLoad_[l];
            for (const std::uint32_t l :
                 routeOf(flows_[i].src, flows_[i].dst))
                ++linkLoad_[l];
        }
        rebalance(now, false);
        return RerouteReport{};
    }

    std::span<const std::pair<std::uint32_t, SimTime>>
    pendingReschedules() const
    {
        return reschedules_;
    }

    void clearPendingReschedules() { reschedules_.clear(); }

    std::uint32_t
    activeFlows() const
    {
        return static_cast<std::uint32_t>(flows_.size());
    }

    std::uint64_t
    totalLoad() const
    {
        std::uint64_t total = 0;
        for (const std::uint32_t load : linkLoad_)
            total += load;
        return total;
    }

    std::uint32_t linkLoad(std::uint32_t link) const
    {
        return linkLoad_[link];
    }

    std::vector<std::uint32_t>
    routeOf(int src, int dst) const
    {
        if (!overrideRoutes_.empty()) {
            const std::int32_t o = overrideIdx_[rowOf(src, dst)];
            if (o >= 0)
                return overrideRoutes_[static_cast<std::size_t>(o)];
        }
        return testing::routeOf(*topo_, src, dst);
    }

  private:
    struct Flow
    {
        std::uint32_t id = 0;
        int src = 0;
        int dst = 0;
        double remaining = 0.0;
        double rate = 0.0;
        SimTime lastUpdate;
        SimTime armed;
    };

    std::size_t
    rowOf(int src, int dst) const
    {
        return static_cast<std::size_t>(src) *
            static_cast<std::size_t>(topo_->nodes()) +
            static_cast<std::size_t>(dst);
    }

    std::size_t
    find(std::uint32_t id) const
    {
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            if (flows_[i].id == id)
                return i;
        }
        ovlAssert(false, "ReferenceLinkNetwork: unknown flow");
        return flows_.size();
    }

    double
    bottleneckRate(const Flow &flow) const
    {
        double rate = std::numeric_limits<double>::infinity();
        for (const std::uint32_t link : routeOf(flow.src, flow.dst)) {
            const double share =
                linkRate_[link] / static_cast<double>(linkLoad_[link]);
            if (share < rate)
                rate = share;
        }
        return rate;
    }

    void
    advanceAll(SimTime now)
    {
        for (Flow &flow : flows_) {
            const std::int64_t dt = (now - flow.lastUpdate).ns();
            if (dt <= 0)
                continue;
            flow.remaining -= flow.rate * static_cast<double>(dt);
            if (flow.remaining < 0.0)
                flow.remaining = 0.0;
            flow.lastUpdate = now;
        }
    }

    static SimTime
    finishTime(const Flow &flow, SimTime now)
    {
        if (flow.remaining <= 0.0)
            return now;
        if (flow.rate <= 0.0)
            return SimTime::max();
        const double ns = std::ceil(flow.remaining / flow.rate);
        return now + SimTime::fromNs(static_cast<std::int64_t>(ns));
    }

    void
    markTouched(int src, int dst)
    {
        ++touchEpoch_;
        for (const std::uint32_t link : routeOf(src, dst))
            linkTouch_[link] = touchEpoch_;
    }

    bool
    touches(const Flow &flow) const
    {
        for (const std::uint32_t link : routeOf(flow.src, flow.dst)) {
            if (linkTouch_[link] == touchEpoch_)
                return true;
        }
        return false;
    }

    /** Free flow `slot`'s links and hand out the speedups. */
    void
    remove(std::size_t slot, SimTime now)
    {
        const Flow gone = flows_[slot];
        advanceAll(now);
        flows_.erase(flows_.begin() + static_cast<std::ptrdiff_t>(slot));
        for (const std::uint32_t link : routeOf(gone.src, gone.dst))
            --linkLoad_[link];
        markTouched(gone.src, gone.dst);
        rebalance(now, true);
    }

    /** Recompute touched (or, with !filtered, all) flows' rates in
     * admission order, emitting speedups. */
    void
    rebalance(SimTime now, bool filtered)
    {
        for (Flow &flow : flows_) {
            if (filtered && !touches(flow))
                continue;
            const double rate = bottleneckRate(flow);
            if (rate == flow.rate)
                continue;
            flow.rate = rate;
            const SimTime finish = finishTime(flow, now);
            if (finish < flow.armed) {
                flow.armed = finish;
                reschedules_.emplace_back(flow.id, finish);
            }
        }
    }

    const net::CompiledTopology *topo_ = nullptr;
    std::vector<double> linkRate_;
    std::vector<std::uint32_t> linkLoad_;
    std::vector<double> linkBase_;
    std::vector<double> linkScale_;
    std::vector<std::uint32_t> scaleDirty_;
    std::vector<std::int32_t> overrideIdx_;
    std::vector<std::vector<std::uint32_t>> overrideRoutes_;
    std::vector<std::uint32_t> linkTouch_;
    std::uint32_t touchEpoch_ = 0;
    std::vector<Flow> flows_;
    std::vector<std::pair<std::uint32_t, SimTime>> reschedules_;
};

} // namespace ovlsim::testing

#endif // OVLSIM_TESTS_REFERENCE_NETWORK_HH
