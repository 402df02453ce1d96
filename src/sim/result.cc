#include "result.hh"

#include <sstream>

#include "util/strings.hh"

namespace ovlsim::sim {

double
SimResult::computeFraction() const
{
    if (perRank.empty() || totalTime.ns() == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &rr : perRank) {
        sum += static_cast<double>(rr.computeTime.ns()) /
            static_cast<double>(totalTime.ns());
    }
    return sum / static_cast<double>(perRank.size());
}

double
SimResult::commFraction() const
{
    if (perRank.empty() || totalTime.ns() == 0)
        return 0.0;
    double sum = 0.0;
    for (const auto &rr : perRank) {
        sum += static_cast<double>(rr.blockedTime().ns()) /
            static_cast<double>(totalTime.ns());
    }
    return sum / static_cast<double>(perRank.size());
}

std::string
SimResult::toString() const
{
    std::ostringstream os;
    os << "application time: " << humanTime(totalTime) << "\n";
    os << "events processed: " << eventsProcessed << "\n";
    os << "transfers: " << transfers << "\n";
    os << strformat("compute fraction: %.1f%%  comm fraction: "
                    "%.1f%%\n",
                    computeFraction() * 100.0,
                    commFraction() * 100.0);
    for (const auto &rr : perRank) {
        os << strformat(
            "  rank %3d: end %-10s comp %-10s sendb %-10s recvb "
            "%-10s waitb %-10s coll %-10s\n",
            rr.rank, humanTime(rr.endTime).c_str(),
            humanTime(rr.computeTime).c_str(),
            humanTime(rr.sendBlockedTime).c_str(),
            humanTime(rr.recvBlockedTime).c_str(),
            humanTime(rr.waitBlockedTime).c_str(),
            humanTime(rr.collectiveTime).c_str());
    }
    return os.str();
}

} // namespace ovlsim::sim
