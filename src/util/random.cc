#include "random.hh"

#include "logging.hh"

namespace ovlsim {

namespace {

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

std::uint64_t
Rng::operator()()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    ovlAssert(bound > 0, "nextBelow bound must be positive");
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        const std::uint64_t threshold = (-bound) % bound;
        while (low < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

} // namespace ovlsim
