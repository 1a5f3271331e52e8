/** @file Unit tests: memory access coalescing (paper Figure 5). */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sm/coalescer.hpp"

namespace gex::sm {
namespace {

TEST(Coalescer, EmptyInput)
{
    EXPECT_TRUE(coalesce({}).empty());
}

TEST(Coalescer, FullyCoalescedWarp)
{
    // 32 consecutive 8 B accesses => 2 lines of 128 B.
    std::vector<Addr> addrs;
    for (int lane = 0; lane < 32; ++lane)
        addrs.push_back(0x1000 + static_cast<Addr>(lane) * 8);
    auto lines = coalesce(addrs);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0x1000u);
    EXPECT_EQ(lines[1], 0x1080u);
}

TEST(Coalescer, BroadcastSingleLine)
{
    std::vector<Addr> addrs(32, 0x2008);
    auto lines = coalesce(addrs);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], 0x2000u);
}

TEST(Coalescer, FullyScattered)
{
    std::vector<Addr> addrs;
    for (int lane = 0; lane < 32; ++lane)
        addrs.push_back(static_cast<Addr>(lane) * 4096);
    EXPECT_EQ(coalesce(addrs).size(), 32u);
}

TEST(Coalescer, UnalignedStraddle)
{
    // Accesses within one line plus one just past the boundary.
    std::vector<Addr> addrs = {120, 127, 128};
    auto lines = coalesce(addrs);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], 128u);
}

TEST(Coalescer, ResultSortedUnique)
{
    std::vector<Addr> addrs = {512, 0, 256, 0, 512, 256};
    auto lines = coalesce(addrs);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], 0u);
    EXPECT_EQ(lines[1], 256u);
    EXPECT_EQ(lines[2], 512u);
}

TEST(Coalescer, SortFreePassMatchesSortUnique)
{
    // coalesceLines skips the sort when the lanes' lines never fall;
    // either way its output must be exactly sort plus unique.
    std::mt19937_64 rng(0x5eed);
    for (int iter = 0; iter < 20000; ++iter) {
        const std::size_t n = rng() % (kWarpSize + 1);
        const Addr base = (rng() % 4096) * kLineSize;
        std::vector<Addr> addrs;
        for (std::size_t i = 0; i < n; ++i) {
            switch (iter % 4) {
              case 0: // monotone strides, repeats within a line
                addrs.push_back(base + i * (8 << (iter / 4 % 6)));
                break;
              case 1: // monotone with duplicates and equal lines
                addrs.push_back(base + (i / 3) * kLineSize + rng() % 16 * 8);
                break;
              case 2: // a few lines, shuffled
                addrs.push_back(base + rng() % 4 * kLineSize + rng() % 16);
                break;
              default: // anywhere
                addrs.push_back(rng() % (1 << 24));
                break;
            }
        }
        if (iter % 4 == 0 && iter % 3 == 0)
            std::shuffle(addrs.begin(), addrs.end(), rng);
        std::vector<Addr> want;
        for (Addr a : addrs)
            want.push_back(lineOf(a));
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());

        Addr lines[kWarpSize];
        const std::size_t k = coalesceLines(addrs.data(), n, lines);
        ASSERT_EQ(std::vector<Addr>(lines, lines + k), want)
            << "iteration " << iter;
        ASSERT_EQ(coalesce(addrs), want);
    }
}

} // namespace
} // namespace gex::sm
