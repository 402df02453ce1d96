/**
 * @file
 * Small statistics toolkit used by the analysis layer and the tests.
 */

#ifndef OVLSIM_UTIL_STATS_HH
#define OVLSIM_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ovlsim {

/**
 * Running summary of a stream of doubles: count, sum, min, max and
 * mean (Welford's update), without storing the samples.
 */
class OnlineStats
{
  public:
    /** Add one sample. */
    void add(double x);

    std::size_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const;
    double max() const;

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Fixed-bin histogram over a [lo, hi) range with overflow and
 * underflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t bins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const { return total_; }
    double binLow(std::size_t i) const;
    double binHigh(std::size_t i) const;

    /** Render as a fixed-width ASCII bar chart, one bin per line. */
    std::string render(std::size_t width = 50) const;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_STATS_HH
