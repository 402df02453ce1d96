/**
 * @file
 * The seeded stateful generator behind apps/alya's irregular
 * partition.
 *
 * Every other stochastic choice draws through the counter-based
 * generator (util/counter_rng.hh). Alya's recorded traces, and so
 * the benchmark's reference digest, depend on this generator's exact
 * stream, so it stays until that reference is recorded again.
 */

#ifndef OVLSIM_UTIL_RANDOM_HH
#define OVLSIM_UTIL_RANDOM_HH

#include <array>
#include <cstdint>

namespace ovlsim {

/** xoshiro256** generator (Blackman & Vigna), seeded via
 * SplitMix64. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded with SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit output. */
    std::uint64_t operator()();

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t nextBelow(std::uint64_t bound);

  private:
    std::array<std::uint64_t, 4> state_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_RANDOM_HH
