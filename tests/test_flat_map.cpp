/**
 * @file
 * FlatMap unit tests: basic semantics, backshift-erase cluster
 * integrity, growth behavior, and a randomized differential check
 * against std::unordered_map (the container it replaced in the cache,
 * TLB and page-directory hot paths).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"

namespace gex {
namespace {

TEST(FlatMap, StartsEmpty)
{
    FlatMap<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(0x40), nullptr);
    EXPECT_FALSE(m.contains(0x40));
    EXPECT_FALSE(m.erase(0x40));
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t> m;
    m[0x1000] = 7;
    m[0x2000] = 9;
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(0x1000), nullptr);
    EXPECT_EQ(*m.find(0x1000), 7u);
    ASSERT_NE(m.find(0x2000), nullptr);
    EXPECT_EQ(*m.find(0x2000), 9u);
    EXPECT_EQ(m.find(0x3000), nullptr);

    // operator[] on an existing key returns the same value.
    m[0x1000] = 8;
    EXPECT_EQ(*m.find(0x1000), 8u);
    EXPECT_EQ(m.size(), 2u);

    EXPECT_TRUE(m.erase(0x1000));
    EXPECT_FALSE(m.erase(0x1000));
    EXPECT_EQ(m.find(0x1000), nullptr);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, InsertOnlyAddsAbsentKeys)
{
    FlatMap<std::uint64_t> m;
    EXPECT_TRUE(m.insert(0x1000));
    ASSERT_NE(m.find(0x1000), nullptr);
    EXPECT_EQ(*m.find(0x1000), 0u);
    *m.find(0x1000) = 5;
    EXPECT_FALSE(m.insert(0x1000));
    EXPECT_EQ(*m.find(0x1000), 5u); // an existing value is kept
    EXPECT_EQ(m.size(), 1u);
    // Inserts past the load limit grow the table and keep every key.
    for (Addr a = 1; a <= 100; ++a)
        EXPECT_TRUE(m.insert(0x1000 + a * 64));
    EXPECT_EQ(m.size(), 101u);
    for (Addr a = 0; a <= 100; ++a)
        EXPECT_FALSE(m.insert(0x1000 + a * 64));
}

TEST(FlatMap, ClearKeepsCapacity)
{
    FlatMap<int> m;
    for (Addr a = 0; a < 100; ++a)
        m[a * 64] = static_cast<int>(a);
    std::size_t cap = m.capacity();
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.find(0), nullptr);
}

TEST(FlatMap, ReserveAvoidsGrowth)
{
    FlatMap<int> m;
    m.reserve(1000);
    std::size_t cap = m.capacity();
    for (Addr a = 0; a < 1000; ++a)
        m[a] = 1;
    EXPECT_EQ(m.capacity(), cap);
    EXPECT_EQ(m.size(), 1000u);
}

TEST(FlatMap, GrowthPreservesContents)
{
    FlatMap<Addr> m; // minimal initial capacity
    const int n = 10'000;
    for (int i = 0; i < n; ++i)
        m[static_cast<Addr>(i) * 0x40] = static_cast<Addr>(i);
    EXPECT_EQ(m.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const Addr *v = m.find(static_cast<Addr>(i) * 0x40);
        ASSERT_NE(v, nullptr) << "key " << i;
        EXPECT_EQ(*v, static_cast<Addr>(i));
    }
}

TEST(FlatMap, BackshiftEraseKeepsClusterReachable)
{
    // Force colliding keys by brute-force search: many keys, erase
    // every other one, and verify the survivors stay findable even
    // when their probe clusters wrapped or contained the erased slot.
    FlatMap<int> m;
    std::vector<Addr> keys;
    for (Addr a = 1; keys.size() < 500; a += 0x40)
        keys.push_back(a);
    for (Addr k : keys)
        m[k] = static_cast<int>(k);
    for (std::size_t i = 0; i < keys.size(); i += 2)
        EXPECT_TRUE(m.erase(keys[i]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (i % 2 == 0) {
            EXPECT_EQ(m.find(keys[i]), nullptr);
        } else {
            ASSERT_NE(m.find(keys[i]), nullptr);
            EXPECT_EQ(*m.find(keys[i]), static_cast<int>(keys[i]));
        }
    }
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce)
{
    FlatMap<int> m;
    for (Addr a = 0; a < 64; ++a)
        m[a * 0x1000] = 1;
    int visits = 0;
    Addr key_sum = 0;
    m.forEach([&](Addr k, const int &v) {
        visits += v;
        key_sum += k;
    });
    EXPECT_EQ(visits, 64);
    EXPECT_EQ(key_sum, 0x1000ull * (63 * 64 / 2));
}

TEST(FlatMap, ForEachMutableCanUpdateValues)
{
    FlatMap<int> m;
    m[0x10] = 1;
    m[0x20] = 2;
    m.forEach([](Addr, int &v) { v *= 10; });
    EXPECT_EQ(*m.find(0x10), 10);
    EXPECT_EQ(*m.find(0x20), 20);
}

TEST(FlatMap, EraseIfRemovesExactlyMatching)
{
    FlatMap<std::uint64_t> m;
    for (Addr a = 0; a < 100; ++a)
        m[a] = a;
    std::size_t removed = m.eraseIf(
        [](Addr, const std::uint64_t &v) { return v % 3 == 0; });
    EXPECT_EQ(removed, 34u); // 0,3,...,99
    EXPECT_EQ(m.size(), 66u);
    for (Addr a = 0; a < 100; ++a)
        EXPECT_EQ(m.contains(a), a % 3 != 0) << a;
}

TEST(FlatMap, RandomizedDifferentialAgainstUnorderedMap)
{
    // Drive FlatMap and std::unordered_map with the same operation
    // stream (insert / overwrite / insert-if-absent / erase / eraseIf /
    // clear) over a
    // small key universe so collisions, backshifts and growth all
    // trigger, and require identical observable state throughout.
    std::mt19937_64 rng(0xC0FFEEu);
    FlatMap<std::uint64_t> fm;
    std::unordered_map<Addr, std::uint64_t> ref;
    auto rand_key = [&] { return (rng() % 997) * 0x40; };

    for (int step = 0; step < 200'000; ++step) {
        switch (rng() % 10) {
          case 0: case 1: case 2: { // insert/overwrite
            Addr k = rand_key();
            std::uint64_t v = rng();
            fm[k] = v;
            ref[k] = v;
            break;
          }
          case 3: { // insert if absent, default value
            Addr k = rand_key();
            EXPECT_EQ(fm.insert(k), ref.try_emplace(k, 0).second);
            break;
          }
          case 4: case 5: case 6: { // erase
            Addr k = rand_key();
            EXPECT_EQ(fm.erase(k), ref.erase(k) > 0);
            break;
          }
          case 7: case 8: { // find
            Addr k = rand_key();
            auto it = ref.find(k);
            const std::uint64_t *p = fm.find(k);
            if (it == ref.end()) {
                EXPECT_EQ(p, nullptr);
            } else {
                ASSERT_NE(p, nullptr);
                EXPECT_EQ(*p, it->second);
            }
            break;
          }
          case 9: { // occasionally eraseIf or clear
            if (rng() % 50 == 0) {
                fm.clear();
                ref.clear();
            } else {
                std::uint64_t bit = rng() % 8;
                std::size_t n = fm.eraseIf(
                    [bit](Addr, const std::uint64_t &v) {
                        return (v >> bit) & 1;
                    });
                std::size_t nref = 0;
                for (auto it = ref.begin(); it != ref.end();) {
                    if ((it->second >> bit) & 1) {
                        it = ref.erase(it);
                        ++nref;
                    } else {
                        ++it;
                    }
                }
                EXPECT_EQ(n, nref);
            }
            break;
          }
        }
        EXPECT_EQ(fm.size(), ref.size());
    }

    // Full final sweep both directions.
    std::size_t seen = 0;
    fm.forEach([&](Addr k, const std::uint64_t &v) {
        auto it = ref.find(k);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(v, it->second);
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
}

} // namespace
} // namespace gex
