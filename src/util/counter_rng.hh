/**
 * @file
 * Counter-based (splittable) deterministic random generator.
 *
 * Stochastic scenario generation (src/res/) must produce the same
 * scenario for the same seed no matter which sweep lane expands it,
 * in what order the cells run, or how many processes a fault model
 * has. A stateful generator like util/random.hh's xoshiro makes
 * draw N depend on draws 0..N-1 across the whole program, so any
 * reordering of callers changes every stream. A counter-based
 * generator instead computes draw N as a pure hash of
 * (key, stream, N): every (key, stream) pair is an independent
 * sequence that can be created from scratch anywhere — on any
 * thread, in any order — and always yields the same values. This is
 * the Philox/Threefry idea in its cheapest useful form: a SplitMix64
 * style finalizer applied three times over the three words, which
 * passes the avalanche bar these mixers were designed for and costs
 * a handful of multiplies per draw.
 */

#ifndef OVLSIM_UTIL_COUNTER_RNG_HH
#define OVLSIM_UTIL_COUNTER_RNG_HH

#include <cstdint>

namespace ovlsim {

/**
 * One independent random sequence addressed by (key, stream).
 *
 * The object only carries the address and a draw counter; it is
 * trivially copyable and two instances with equal (key, stream)
 * always produce identical sequences. Use a different `stream` per
 * logical consumer (one per fault process, one per fuzz iteration)
 * so consumers never share or steal each other's draws.
 */
class CounterRng
{
  public:
    explicit CounterRng(std::uint64_t key, std::uint64_t stream = 0)
        : key_(key), stream_(stream)
    {}

    /** Independent child sequence; does not consume a draw. */
    CounterRng
    substream(std::uint64_t stream) const
    {
        return CounterRng(key_, mix(stream_ ^ mix(stream)));
    }

    /** Next raw 64-bit draw: a pure hash of (key, stream, n). */
    std::uint64_t
    next()
    {
        return at(counter_++);
    }

    /** Draw `n` without disturbing the counter (random access). */
    std::uint64_t
    at(std::uint64_t n) const
    {
        std::uint64_t x = mix(key_ + 0x9e3779b97f4a7c15ULL);
        x = mix(x ^ (stream_ + 0xbf58476d1ce4e5b9ULL));
        x = mix(x ^ (n + 0x94d049bb133111ebULL));
        return x;
    }

    /** Uniform double in [0, 1) (53 mantissa bits). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    nextDouble(double lo, double hi)
    {
        return lo + (hi - lo) * nextDouble();
    }

    /**
     * Exponentially distributed double with the given mean (the
     * MTBF/MTTR draw). -log(1 - u) with u in [0, 1) never takes the
     * log of zero.
     */
    double nextExponential(double mean);

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Debiased multiply-shift would need 128-bit arithmetic;
        // generation consumers tolerate the (2^-64 scale) modulo
        // bias, determinism is what matters here.
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextInRange(std::int64_t lo, std::int64_t hi)
    {
        return lo +
            static_cast<std::int64_t>(nextBelow(
                static_cast<std::uint64_t>(hi - lo) + 1));
    }

    std::uint64_t key() const { return key_; }
    std::uint64_t stream() const { return stream_; }

  private:
    /** Murmur3/SplitMix64-style 64-bit finalizer. */
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return x;
    }

    std::uint64_t key_;
    std::uint64_t stream_;
    std::uint64_t counter_ = 0;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_COUNTER_RNG_HH
