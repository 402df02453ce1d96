#include "stats.hh"

#include <algorithm>
#include <sstream>

#include "logging.hh"

namespace ovlsim {

void
OnlineStats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    mean_ += (x - mean_) / static_cast<double>(count_);
}

double
OnlineStats::min() const
{
    ovlAssert(count_ > 0, "min() of empty stats");
    return min_;
}

double
OnlineStats::max() const
{
    ovlAssert(count_ > 0, "max() of empty stats");
    return max_;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    ovlAssert(hi > lo, "histogram range must be non-empty");
    ovlAssert(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    const double frac = (x - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::size_t>(
        frac * static_cast<double>(counts_.size()));
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(i) /
        static_cast<double>(counts_.size());
}

double
Histogram::binHigh(std::size_t i) const
{
    return binLow(i + 1);
}

std::string
Histogram::render(std::size_t width) const
{
    std::uint64_t peak = 1;
    for (const auto c : counts_)
        peak = std::max(peak, c);

    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto bar_len = static_cast<std::size_t>(
            static_cast<double>(counts_[i]) /
            static_cast<double>(peak) * static_cast<double>(width));
        os << "[" << binLow(i) << ", " << binHigh(i) << ") "
           << std::string(bar_len, '#') << " " << counts_[i] << "\n";
    }
    return os.str();
}

} // namespace ovlsim
