/**
 * @file
 * Statistics and bookkeeping helpers of the campaign benchmark:
 * medians and quartiles (the same definition Python's
 * `statistics.quantiles(values, n=4)` uses), the highest tail
 * percentile a sample set supports, self times of a span tree, and
 * the FNV-1a digest that pins simulated outputs.
 */

#ifndef OVLSIM_PERFBENCH_BENCH_STATS_HH
#define OVLSIM_PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** Median of `values` (mean of the middle two for an even count);
 * 0 for an empty set. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** First, second and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles (its default): the data are treated as a
 * sample, positions are i(n+1)/4 and clamp to the first and last
 * interval. One value gives that value three times; none gives
 * zeros.
 */
inline Quartiles
quartiles(std::vector<double> values)
{
    Quartiles q;
    if (values.empty())
        return q;
    std::sort(values.begin(), values.end());
    const long n = static_cast<long>(values.size());
    if (n == 1) {
        q.q1 = q.q2 = q.q3 = values[0];
        return q;
    }
    double cut[3] = {0.0, 0.0, 0.0};
    const long m = n + 1;
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                          static_cast<double>(4 - delta) +
                      values[static_cast<std::size_t>(j)] *
                          static_cast<double>(delta)) /
            4.0;
    }
    q.q1 = cut[0];
    q.q2 = cut[1];
    q.q3 = cut[2];
    return q;
}

/** A tail percentile and its (nearest-rank) value. */
struct TailPoint
{
    double percentile = 0.0;
    double value = 0.0;
};

/**
 * The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that
 * has at least `min_beyond` samples beyond it, with its nearest-rank
 * value; empty when even the median has fewer. "Beyond" is the high
 * side, so pass times (not rates) to read the slow tail.
 */
inline std::optional<TailPoint>
highestTail(std::vector<double> values, std::size_t min_beyond = 10)
{
    static constexpr double kPercentiles[] = {99.9, 99.0, 95.0,
                                              90.0, 75.0, 50.0};
    const std::size_t n = values.size();
    std::sort(values.begin(), values.end());
    for (const double p : kPercentiles) {
        // Nearest rank: the smallest k with k >= p/100 * n; the
        // n - k samples above it are the ones beyond.
        const double exact = p / 100.0 * static_cast<double>(n);
        std::size_t rank = static_cast<std::size_t>(exact);
        if (static_cast<double>(rank) < exact)
            ++rank;
        if (rank == 0 || n - rank < min_beyond)
            continue;
        return TailPoint{p, values[rank - 1]};
    }
    return std::nullopt;
}

/** One interval of a span tree: [begin, end) in ns, and the index of
 * its parent span (-1 for a root). */
struct Interval
{
    std::int64_t beginNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;
};

/**
 * Self time of every span: its duration minus the length of the
 * union of its children's intervals. Children are not clipped to
 * their parent, so a child that leaks outside it (a malformed tree)
 * drives the parent's self time down, possibly below zero, and the
 * sum of self times then no longer equals the summed root durations
 * — which is what the benchmark's consistency check looks for.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Interval> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Interval &span : spans) {
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)]
                .emplace_back(span.beginNs, span.endNs);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t reach = std::numeric_limits<std::int64_t>::min();
        for (const auto &[begin, end] : kids) {
            const std::int64_t from = std::max(begin, reach);
            if (end > from)
                covered += end - from;
            reach = std::max(reach, end);
        }
        self[i] = spans[i].endNs - spans[i].beginNs - covered;
    }
    return self;
}

/** 64-bit FNV-1a, the digest of simulated outputs. */
inline std::uint64_t
fnv1a(std::string_view bytes,
      std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Sixteen lower-case hex digits. */
inline std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace perfbench

#endif // OVLSIM_PERFBENCH_BENCH_STATS_HH
