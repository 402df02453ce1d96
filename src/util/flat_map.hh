/**
 * @file
 * Open-addressing flat hash map for simulator hot paths.
 *
 * The trace compiler keys its per-channel pairing frontier and
 * per-rank request tables by small integers; node-based
 * std::map/unordered_map spend most of their time chasing pointers
 * and hitting the allocator. This map stores key/value slots
 * contiguously in one power-of-two array, probes linearly (one cache
 * line covers several probes) and erases by backward shifting, so
 * steady-state insert/find/erase never allocate and never leave
 * tombstones behind.
 *
 * Intentional non-goals: iterator/reference stability across
 * mutation, and allocator support. Iteration order is unspecified;
 * engine code must never let results depend on it (the determinism
 * tests guard this).
 */

#ifndef OVLSIM_UTIL_FLAT_MAP_HH
#define OVLSIM_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace ovlsim {

/**
 * Default hasher: finalizes integral keys with a splitmix64-style
 * mixer so that packed keys with low-entropy bits (e.g. channel keys
 * whose tag field is constant) still spread over the table.
 * Non-integral keys defer to std::hash.
 */
template <typename Key>
struct FlatHash
{
    std::size_t
    operator()(const Key &key) const
    {
        if constexpr (std::is_integral_v<Key> ||
                      std::is_enum_v<Key>) {
            auto x = static_cast<std::uint64_t>(key);
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ULL;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebULL;
            x ^= x >> 31;
            return static_cast<std::size_t>(x);
        } else {
            return std::hash<Key>{}(key);
        }
    }
};

/**
 * Open-addressing hash map with linear probing and backward-shift
 * deletion. Capacity is always a power of two; the table grows at
 * the loadLimit() threshold (50% load). Keys must be
 * equality-comparable and cheap to copy.
 */
template <typename Key, typename T, typename Hash = FlatHash<Key>>
class FlatMap
{
  public:
    struct Slot
    {
        Key key;
        T value;
        bool used = false;
    };

    std::size_t size() const { return size_; }

    /** Drop all entries; keeps the allocation. */
    void
    clear()
    {
        for (auto &slot : slots_)
            slot.used = false;
        size_ = 0;
    }

    /** Pointer to the mapped value, or nullptr if absent. */
    T *
    find(const Key &key)
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &slot = slots_[i];
            if (!slot.used)
                return nullptr;
            if (slot.key == key)
                return &slot.value;
        }
    }

    bool contains(const Key &key) { return find(key) != nullptr; }

    /** Insert or overwrite; returns true if the key was new. */
    bool
    insertOrAssign(const Key &key, T value)
    {
        if (T *existing = find(key)) {
            *existing = std::move(value);
            return false;
        }
        Slot &slot = slots_[insertionSlot(key)];
        slot.used = true;
        slot.key = key;
        slot.value = std::move(value);
        ++size_;
        return true;
    }

    /** Remove `key` if present; returns true if something was erased. */
    bool
    erase(const Key &key)
    {
        if (slots_.empty())
            return false;
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &slot = slots_[i];
            if (!slot.used)
                return false;
            if (slot.key == key) {
                eraseSlot(i);
                --size_;
                return true;
            }
        }
    }

    /**
     * Visit every live entry as fn(key, value&). The visitation order
     * is unspecified; callers must not mutate the map during the
     * sweep.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (auto &slot : slots_) {
            if (slot.used)
                fn(slot.key, slot.value);
        }
    }

  private:
    static constexpr std::size_t minCapacity = 16;

    /**
     * Maximum live entries for a given capacity: 50% load. Linear
     * probing degrades sharply as load grows (expected probe length
     * goes with 1/(1-load)^2), so trade memory for short chains.
     */
    static std::size_t
    loadLimit(std::size_t cap)
    {
        return cap / 2;
    }

    std::size_t
    home(const Key &key) const
    {
        return hash_(key) & (slots_.size() - 1);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void
    growIfNeeded()
    {
        if (slots_.empty()) {
            rehash(minCapacity);
        } else if (size_ + 1 > loadLimit(slots_.size())) {
            rehash(slots_.size() * 2);
        }
    }

    /**
     * Index of the empty slot where a NEW key must be stored,
     * growing first if the insertion would cross the load limit.
     * The key must not already be present.
     */
    std::size_t
    insertionSlot(const Key &key)
    {
        growIfNeeded();
        std::size_t i = home(key);
        while (slots_[i].used)
            i = next(i);
        return i;
    }

    void
    rehash(std::size_t new_cap)
    {
        ovlAssert((new_cap & (new_cap - 1)) == 0,
                  "flat map capacity must be a power of two");
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(new_cap, Slot{});
        for (auto &slot : old) {
            if (!slot.used)
                continue;
            std::size_t i = home(slot.key);
            while (slots_[i].used)
                i = next(i);
            slots_[i] = std::move(slot);
        }
    }

    /**
     * Backward-shift deletion: pull later elements of the probe chain
     * into the hole so lookups never need tombstones.
     */
    void
    eraseSlot(std::size_t hole)
    {
        std::size_t i = hole;
        std::size_t j = hole;
        while (true) {
            slots_[i].used = false;
            while (true) {
                j = next(j);
                if (!slots_[j].used)
                    return;
                // An element may fill the hole only if its home
                // position does not lie cyclically in (i, j]; such an
                // element would become unreachable from its home.
                const std::size_t h = home(slots_[j].key);
                const bool stuck = i <= j ? (i < h && h <= j)
                                          : (i < h || h <= j);
                if (!stuck)
                    break;
            }
            slots_[i] = std::move(slots_[j]);
            slots_[j].used = false;
            slots_[i].used = true;
            i = j;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    [[no_unique_address]] Hash hash_;
};

} // namespace ovlsim

#endif // OVLSIM_UTIL_FLAT_MAP_HH
