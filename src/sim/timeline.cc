#include "timeline.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ovlsim::sim {

const char *
rankStateName(RankState state)
{
    switch (state) {
      case RankState::compute: return "compute";
      case RankState::sendBlocked: return "send-blocked";
      case RankState::recvBlocked: return "recv-blocked";
      case RankState::waitBlocked: return "wait-blocked";
      case RankState::collective: return "collective";
      case RankState::idle: return "idle";
      case RankState::restart: return "restart";
    }
    panic("rankStateName: bad state");
}

char
rankStateCode(RankState state)
{
    switch (state) {
      case RankState::compute: return '#';
      case RankState::sendBlocked: return 'S';
      case RankState::recvBlocked: return 'R';
      case RankState::waitBlocked: return 'W';
      case RankState::collective: return 'C';
      case RankState::idle: return '.';
      case RankState::restart: return 'X';
    }
    panic("rankStateCode: bad state");
}

void
Timeline::addInterval(Rank r, SimTime begin, SimTime end,
                      RankState state)
{
    ovlAssert(r >= 0 && r < ranks(), "timeline rank out of range");
    auto &list = perRank_[static_cast<std::size_t>(r)];
    if (!list.empty()) {
        StateInterval &tail = list.back();
        // Never overlap the recorded past: a rollback splice leaves
        // the tail at the restored cut, and the first wake after it
        // reports a blocked window that started before the cut —
        // only the remainder past the tail is new information.
        if (begin < tail.end)
            begin = tail.end;
        if (end > begin && tail.end == begin && tail.state == state) {
            tail.end = end;
            return;
        }
    }
    if (end > begin)
        list.push_back(StateInterval{begin, end, state});
}

void
Timeline::truncateAt(SimTime cut)
{
    for (auto &list : perRank_) {
        // Begins never decrease, so everything from the first
        // interval beginning at or after the cut goes, and only the
        // interval before it may straddle the cut.
        const auto from = std::partition_point(
            list.begin(), list.end(),
            [cut](const StateInterval &iv) { return iv.begin < cut; });
        list.erase(from, list.end());
        if (!list.empty() && list.back().end > cut)
            list.back().end = cut;
    }
}

std::span<const StateInterval>
Timeline::intervals(Rank r) const
{
    ovlAssert(r >= 0 && r < ranks(), "timeline rank out of range");
    return perRank_[static_cast<std::size_t>(r)];
}

SimTime
Timeline::span() const
{
    SimTime latest = SimTime::zero();
    for (const auto &list : perRank_) {
        if (!list.empty() && list.back().end > latest)
            latest = list.back().end;
    }
    return latest;
}

SimTime
Timeline::timeInState(Rank r, RankState state) const
{
    SimTime total = SimTime::zero();
    for (const auto &iv : intervals(r)) {
        if (iv.state == state)
            total += iv.end - iv.begin;
    }
    return total;
}

} // namespace ovlsim::sim
