/**
 * @file
 * Bitmask and MaskWalk unit tests: a randomized differential check
 * against a std::vector<bool> reference at every size 1..1024 (most of
 * them not a multiple of the 64-bit word), covering set/reset/test,
 * next-clear-in-range over two masks, range popcount, and the warp
 * schedulers' rotated walk with a head/skip index and one or two
 * tallies.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/bitmask.hpp"

namespace gex {
namespace {

using Ref = std::vector<bool>;

int
refNextClear(const Ref &a, const Ref &b, int from, int to)
{
    for (int i = from; i < to; ++i)
        if (!a[static_cast<std::size_t>(i)] && !b[static_cast<std::size_t>(i)])
            return i;
    return to;
}

int
refCount(const Ref &a, int from, int to)
{
    int n = 0;
    for (int i = from; i < to; ++i)
        n += a[static_cast<std::size_t>(i)] ? 1 : 0;
    return n;
}

/** The visit order MaskWalk documents, spelled out warp by warp. */
std::vector<int>
refOrder(int head, int start, int n)
{
    std::vector<int> order;
    if (head >= 0)
        order.push_back(head);
    for (int i = 0; i < n; ++i) {
        const int p = (start + i) % n;
        if (p != head)
            order.push_back(p);
    }
    return order;
}

/** Uniform in [0, n). */
int
below(std::mt19937_64 &rng, int n)
{
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
}

void
randomize(std::mt19937_64 &rng, Bitmask &m, Ref &ref, int density)
{
    for (int i = 0; i < m.size(); ++i) {
        const bool on = below(rng, 100) < density;
        if (on)
            m.set(i);
        else
            m.reset(i);
        ref[static_cast<std::size_t>(i)] = on;
    }
}

TEST(Bitmask, StartsClearAndTogglesSingleBits)
{
    Bitmask m(130);
    EXPECT_EQ(m.size(), 130);
    for (int i = 0; i < 130; ++i)
        EXPECT_FALSE(m.test(i));
    m.set(0);
    m.set(63);
    m.set(64);
    m.set(129);
    EXPECT_TRUE(m.test(63));
    EXPECT_TRUE(m.test(64));
    EXPECT_EQ(m.count(0, 130), 4);
    EXPECT_EQ(m.count(1, 129), 2);
    EXPECT_EQ(m.nextClear(63, 130, m), 65);
    m.reset(64);
    EXPECT_EQ(m.nextClear(63, 130, m), 64);
    m.clear();
    EXPECT_EQ(m.count(0, 130), 0);
}

TEST(Bitmask, DifferentialAgainstVectorBool)
{
    std::mt19937_64 rng(0x5eed);
    for (int n = 1; n <= 1024; ++n) {
        SCOPED_TRACE("size " + std::to_string(n));
        Bitmask a(n), b(n);
        Ref ra(static_cast<std::size_t>(n)), rb(static_cast<std::size_t>(n));
        // Dense masks leave long runs of set bits to skip; sparse ones
        // leave the clear bit in the first word looked at.
        const int density = below(rng, 101);
        randomize(rng, a, ra, density);
        randomize(rng, b, rb, density / 2);
        for (int step = 0; step < 8; ++step) {
            const int i = below(rng, n);
            if (rng() & 1) {
                a.set(i);
                ra[static_cast<std::size_t>(i)] = true;
            } else {
                a.reset(i);
                ra[static_cast<std::size_t>(i)] = false;
            }
            for (int j = 0; j < n; ++j)
                ASSERT_EQ(a.test(j), ra[static_cast<std::size_t>(j)]) << j;

            int from = below(rng, n + 1);
            int to = below(rng, n + 1);
            if (from > to)
                std::swap(from, to);
            ASSERT_EQ(a.nextClear(from, to, b), refNextClear(ra, rb, from, to))
                << "[" << from << ", " << to << ")";
            ASSERT_EQ(a.nextClear(from, to, a), refNextClear(ra, ra, from, to))
                << "[" << from << ", " << to << ")";
            ASSERT_EQ(a.count(from, to), refCount(ra, from, to))
                << "[" << from << ", " << to << ")";
        }
    }
}

TEST(Bitmask, RotatedWalkMatchesWarpByWarpScan)
{
    std::mt19937_64 rng(0xa11c);
    for (int size = 1; size <= 1024; ++size) {
        SCOPED_TRACE("size " + std::to_string(size));
        Bitmask a(size), b(size), tally(size);
        Ref ra(static_cast<std::size_t>(size)),
            rb(static_cast<std::size_t>(size)),
            rt(static_cast<std::size_t>(size));
        randomize(rng, a, ra, below(rng, 101));
        randomize(rng, b, rb, below(rng, 60));
        randomize(rng, tally, rt, below(rng, 101));

        // The walk may cover a prefix of the mask (activeWarps), and
        // GTO's head may lie past that prefix.
        const int n = 1 + below(rng, size);
        const bool gto = rng() & 1;
        const int head = gto ? below(rng, size) : -1;
        const int start = gto ? 0 : below(rng, n);
        // Stop after a random number of picks, like a scan that runs
        // out of issue slots; tally only what was passed before it.
        const int stopAfter = below(rng, 6);

        std::vector<int> expectPicks;
        std::uint64_t expectTally = 0;
        for (int p : refOrder(head, start, n)) {
            if (static_cast<int>(expectPicks.size()) == stopAfter)
                break;
            const std::size_t u = static_cast<std::size_t>(p);
            if (!ra[u] && !rb[u])
                expectPicks.push_back(p);
            else if (rt[u])
                ++expectTally;
        }

        MaskWalk walk(head, start, n);
        std::vector<int> picks;
        for (int p; static_cast<int>(picks.size()) < stopAfter &&
                    (p = walk.next(a, b, &tally)) >= 0;) {
            picks.push_back(p);
            // The caller's own updates to a visited position must not
            // reach the tally.
            tally.set(p);
        }
        EXPECT_EQ(picks, expectPicks)
            << "head " << head << " start " << start << " n " << n;
        EXPECT_EQ(walk.tallied(), expectTally)
            << "head " << head << " start " << start << " n " << n;

        // An untallied walk to exhaustion visits every clear position.
        MaskWalk all(head, start, n);
        std::vector<int> full;
        for (int p; (p = all.next(a, b)) >= 0;)
            full.push_back(p);
        std::vector<int> expectFull;
        for (int p : refOrder(head, start, n))
            if (!ra[static_cast<std::size_t>(p)] &&
                !rb[static_cast<std::size_t>(p)])
                expectFull.push_back(p);
        EXPECT_EQ(full, expectFull);
        EXPECT_EQ(all.tallied(), 0u);

        // The two-tally walk (the issue scan with the LSU closed): a
        // third gating mask, and each passed-over position counted in
        // every tally mask it is set in.
        Bitmask c(size), t0(size), t1(size);
        Ref rc(static_cast<std::size_t>(size)),
            rt0(static_cast<std::size_t>(size)),
            rt1(static_cast<std::size_t>(size));
        randomize(rng, c, rc, below(rng, 60));
        randomize(rng, t0, rt0, below(rng, 101));
        randomize(rng, t1, rt1, below(rng, 101));
        std::vector<int> expect3;
        std::uint64_t expect0 = 0, expect1 = 0;
        for (int p : refOrder(head, start, n)) {
            if (static_cast<int>(expect3.size()) == stopAfter)
                break;
            const std::size_t u = static_cast<std::size_t>(p);
            if (!ra[u] && !rb[u] && !rc[u]) {
                expect3.push_back(p);
                continue;
            }
            expect0 += rt0[u];
            expect1 += rt1[u];
        }
        MaskWalk walk3(head, start, n);
        std::vector<int> picks3;
        for (int p; static_cast<int>(picks3.size()) < stopAfter &&
                    (p = walk3.next(a, b, c, &t0, &t1)) >= 0;) {
            picks3.push_back(p);
            t0.set(p);
            t1.set(p);
        }
        EXPECT_EQ(picks3, expect3)
            << "head " << head << " start " << start << " n " << n;
        EXPECT_EQ(walk3.tallied(0), expect0);
        EXPECT_EQ(walk3.tallied(1), expect1);
    }
}

} // namespace
} // namespace gex
