/**
 * @file
 * Small integer-math helpers shared across modules, and the one
 * checked conversion of a double nanosecond count to the clock.
 */

#ifndef OVLSIM_UTIL_MATHUTIL_HH
#define OVLSIM_UTIL_MATHUTIL_HH

#include <cmath>
#include <cstdint>

#include "util/logging.hh"
#include "util/types.hh"

namespace ovlsim {

/** Ceiling division for non-negative integers. */
constexpr std::uint64_t
ceilDiv(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0 : (num + den - 1) / den;
}

/** ceil(log2(x)) for x >= 1; log2ceil(1) == 0. */
constexpr std::uint32_t
log2Ceil(std::uint64_t x)
{
    std::uint32_t bits = 0;
    std::uint64_t value = 1;
    while (value < x) {
        value <<= 1;
        ++bits;
    }
    return bits;
}

/** True if x is a power of two (x > 0). */
constexpr bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** Round up to the next multiple of `align` (align > 0). */
constexpr std::uint64_t
roundUp(std::uint64_t x, std::uint64_t align)
{
    return ceilDiv(x, align) * align;
}

/**
 * A nanosecond count computed in doubles, rounded to the nearest
 * integer instant (std::llround). A count that does not fit the
 * 64-bit clock (not below 2^63 ns, or NaN) raises a FatalError
 * naming it: llround's result is unspecified there, and a duration
 * that overflowed would be priced as free.
 */
inline SimTime
roundNs(double ns)
{
    if (!(ns < 0x1p63 && ns >= -0x1p63))
        fatal("a duration of ", ns,
              " ns overflows the 64-bit nanosecond clock");
    return SimTime::fromNs(static_cast<std::int64_t>(std::llround(ns)));
}

} // namespace ovlsim

#endif // OVLSIM_UTIL_MATHUTIL_HH
