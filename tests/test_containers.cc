/**
 * @file
 * Unit tests for the hot-path containers behind the replay engine:
 * the open-addressing FlatMap and the 4-ary event heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/dary_heap.hh"
#include "util/flat_map.hh"

namespace ovlsim {
namespace {

/** Deterministic xorshift generator for the randomized tests. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed | 1) {}

    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

TEST(FlatMapTest, EmptyMapBasics)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_FALSE(map.contains(42));
    EXPECT_FALSE(map.erase(42));
}

TEST(FlatMapTest, InsertFindEraseRoundTrip)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.insertOrAssign(7, 70));
    EXPECT_TRUE(map.insertOrAssign(9, 90));
    EXPECT_FALSE(map.insertOrAssign(7, 71)); // overwrite
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(7), nullptr);
    EXPECT_EQ(*map.find(7), 71);
    ASSERT_NE(map.find(9), nullptr);
    EXPECT_EQ(*map.find(9), 90);
    EXPECT_TRUE(map.erase(7));
    EXPECT_EQ(map.find(7), nullptr);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_FALSE(map.erase(7));
}

TEST(FlatMapTest, GrowthPreservesAllEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    constexpr std::uint64_t n = 10'000;
    for (std::uint64_t key = 0; key < n; ++key)
        map.insertOrAssign(key * 977, key);
    EXPECT_EQ(map.size(), n);
    for (std::uint64_t key = 0; key < n; ++key) {
        const auto *value = map.find(key * 977);
        ASSERT_NE(value, nullptr) << "key " << key;
        EXPECT_EQ(*value, key);
    }
}

TEST(FlatMapTest, ClearDropsEntries)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t key = 0; key < 100; ++key)
        map.insertOrAssign(key, 1);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(50), nullptr);
    map.insertOrAssign(50, 2);
    EXPECT_EQ(*map.find(50), 2);
}

TEST(FlatMapTest, ForEachVisitsEveryLiveEntry)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t key = 1; key <= 64; ++key)
        map.insertOrAssign(key, static_cast<int>(key));
    map.erase(10);
    map.erase(20);
    std::uint64_t key_sum = 0;
    std::size_t count = 0;
    map.forEach([&](std::uint64_t key, int &value) {
        key_sum += key;
        EXPECT_EQ(static_cast<int>(key), value);
        ++count;
    });
    EXPECT_EQ(count, 62u);
    EXPECT_EQ(key_sum, 64u * 65u / 2 - 30u);
}

/** Hash that sends every key to one bucket: worst-case clustering. */
struct CollidingHash
{
    std::size_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatMapTest, BackwardShiftSurvivesFullCollisionChains)
{
    FlatMap<std::uint64_t, int, CollidingHash> map;
    for (std::uint64_t key = 1; key <= 40; ++key)
        map.insertOrAssign(key, static_cast<int>(key * 3));
    // Erase from the middle of the probe chain, then verify every
    // remaining key is still reachable.
    for (std::uint64_t key = 10; key <= 30; key += 2)
        EXPECT_TRUE(map.erase(key));
    for (std::uint64_t key = 1; key <= 40; ++key) {
        const bool erased = key >= 10 && key <= 30 && key % 2 == 0;
        const auto *value = map.find(key);
        if (erased) {
            EXPECT_EQ(value, nullptr) << "key " << key;
        } else {
            ASSERT_NE(value, nullptr) << "key " << key;
            EXPECT_EQ(*value, static_cast<int>(key * 3));
        }
    }
}

TEST(FlatMapTest, RandomizedDifferentialAgainstUnorderedMap)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    Rng rng(0xbeefcafe);
    for (int op = 0; op < 200'000; ++op) {
        const std::uint64_t key = rng.next() % 512;
        switch (rng.next() % 3) {
          case 0: {
            const std::uint64_t value = rng.next();
            map.insertOrAssign(key, value);
            reference[key] = value;
            break;
          }
          case 1: {
            EXPECT_EQ(map.erase(key), reference.erase(key) > 0);
            break;
          }
          case 2: {
            const auto *found = map.find(key);
            const auto it = reference.find(key);
            if (it == reference.end()) {
                EXPECT_EQ(found, nullptr);
            } else {
                ASSERT_NE(found, nullptr);
                EXPECT_EQ(*found, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(map.size(), reference.size());
    }
}

TEST(DaryHeapTest, EmptyAndSize)
{
    DaryHeap<int> heap;
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.size(), 0u);
    heap.push(3);
    EXPECT_FALSE(heap.empty());
    EXPECT_EQ(heap.size(), 1u);
    EXPECT_EQ(heap.top(), 3);
    heap.pop();
    EXPECT_TRUE(heap.empty());
}

TEST(DaryHeapTest, PopsInAscendingOrder)
{
    DaryHeap<int> heap;
    const std::vector<int> values{9, 1, 8, 2, 7, 3, 6, 4, 5, 5, 0};
    for (int v : values)
        heap.push(v);
    std::vector<int> drained;
    while (!heap.empty()) {
        drained.push_back(heap.top());
        heap.pop();
    }
    std::vector<int> expected = values;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(drained, expected);
}

TEST(DaryHeapTest, MatchesPriorityQueueOnRandomStream)
{
    DaryHeap<std::uint64_t> heap;
    std::priority_queue<std::uint64_t,
                        std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        reference;
    Rng rng(0x5eed);
    for (int op = 0; op < 100'000; ++op) {
        if (reference.empty() || rng.next() % 3 != 0) {
            const std::uint64_t value = rng.next() % 1000;
            heap.push(value);
            reference.push(value);
        } else {
            ASSERT_EQ(heap.top(), reference.top());
            heap.pop();
            reference.pop();
        }
        ASSERT_EQ(heap.size(), reference.size());
    }
    while (!reference.empty()) {
        ASSERT_EQ(heap.top(), reference.top());
        heap.pop();
        reference.pop();
    }
    EXPECT_TRUE(heap.empty());
}

/** Mimics the engine's Event ordering: time, then sequence number. */
struct FakeEvent
{
    int time;
    int seq;

    bool
    operator>(const FakeEvent &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

TEST(DaryHeapTest, TieBreaksBySequenceLikeTheEventQueue)
{
    DaryHeap<FakeEvent, 4, std::greater<FakeEvent>> heap;
    heap.push({5, 2});
    heap.push({5, 0});
    heap.push({3, 3});
    heap.push({5, 1});
    heap.push({3, 4});
    std::vector<std::pair<int, int>> drained;
    while (!heap.empty()) {
        drained.emplace_back(heap.top().time, heap.top().seq);
        heap.pop();
    }
    const std::vector<std::pair<int, int>> expected{
        {3, 3}, {3, 4}, {5, 0}, {5, 1}, {5, 2}};
    EXPECT_EQ(drained, expected);
}

TEST(DaryHeapTest, ClearEmptiesTheHeap)
{
    DaryHeap<int> heap;
    for (int v = 0; v < 16; ++v)
        heap.push(v);
    heap.clear();
    EXPECT_TRUE(heap.empty());
    heap.push(7);
    EXPECT_EQ(heap.top(), 7);
}

} // namespace
} // namespace ovlsim
