/**
 * @file
 * Fundamental value types shared across the whole environment.
 *
 * The simulator clock is an integer nanosecond count (SimTime) and
 * application "work" is an instruction count (Instr), mirroring the
 * paper's time model: computation bursts are measured in instructions
 * executed and scaled by an average MIPS rate only when a trace is
 * replayed on a concrete platform.
 */

#ifndef OVLSIM_UTIL_TYPES_HH
#define OVLSIM_UTIL_TYPES_HH

#include <cstdint>
#include <compare>
#include <limits>

namespace ovlsim {

/** MPI-like rank index of a simulated process. */
using Rank = std::int32_t;

/** Message tag. */
using Tag = std::int32_t;

/** Payload size in bytes. */
using Bytes = std::uint64_t;

/** Count of virtual instructions executed in a computation burst. */
using Instr = std::uint64_t;

/**
 * Sentinel rank for "any source" matching. The replay engine does
 * not implement wildcard matching: traces using the sentinel are
 * flagged by trace::validateTraceSet and rejected with FatalError at
 * replay.
 */
inline constexpr Rank anyRank = -1;

/** Sentinel tag for "any tag" matching; unsupported like anyRank —
 * validated against and rejected at replay. */
inline constexpr Tag anyTag = -1;

/**
 * Simulated time: a strongly-typed integer nanosecond count.
 *
 * Integer time keeps event ordering exact and deterministic across the
 * eight-decade bandwidth sweeps the study performs; doubles appear only
 * at the analysis boundary (speedups, plots).
 */
class SimTime
{
  public:
    constexpr SimTime() : ns_(0) {}

    /** Construct from a raw nanosecond count. */
    static constexpr SimTime
    fromNs(std::int64_t ns)
    {
        return SimTime(ns);
    }

    /** Construct from microseconds (truncates toward zero). */
    static constexpr SimTime
    fromUs(double us)
    {
        return SimTime(static_cast<std::int64_t>(us * 1e3));
    }

    /** Largest representable instant; used as "never". */
    static constexpr SimTime
    max()
    {
        return SimTime(std::numeric_limits<std::int64_t>::max());
    }

    /** Zero duration / origin of time. */
    static constexpr SimTime
    zero()
    {
        return SimTime(0);
    }

    constexpr std::int64_t ns() const { return ns_; }
    constexpr double toUs() const { return static_cast<double>(ns_) / 1e3; }

    constexpr auto operator<=>(const SimTime &) const = default;

    constexpr SimTime
    operator+(SimTime other) const
    {
        return SimTime(ns_ + other.ns_);
    }

    constexpr SimTime
    operator-(SimTime other) const
    {
        return SimTime(ns_ - other.ns_);
    }

    constexpr SimTime &
    operator+=(SimTime other)
    {
        ns_ += other.ns_;
        return *this;
    }

    constexpr SimTime &
    operator-=(SimTime other)
    {
        ns_ -= other.ns_;
        return *this;
    }

    /** Scale a duration by an integer factor. */
    constexpr SimTime
    operator*(std::int64_t k) const
    {
        return SimTime(ns_ * k);
    }

  private:
    explicit constexpr SimTime(std::int64_t ns) : ns_(ns) {}

    std::int64_t ns_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_TYPES_HH
