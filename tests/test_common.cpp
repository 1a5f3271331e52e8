/** @file Unit tests: common utilities (stats, rng, math, types). */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace gex {
namespace {

TEST(StatSet, AddAndGet)
{
    StatSet s;
    EXPECT_EQ(s.get("x"), 0.0);
    EXPECT_FALSE(s.has("x"));
    s.add("x");
    s.add("x", 2.5);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.5);
    EXPECT_TRUE(s.has("x"));
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.add("x", 10);
    s.set("x", 3);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
}

TEST(StatSet, MaxOf)
{
    StatSet s;
    s.maxOf("m", 5);
    s.maxOf("m", 2);
    EXPECT_DOUBLE_EQ(s.get("m"), 5.0);
    s.maxOf("m", 9);
    EXPECT_DOUBLE_EQ(s.get("m"), 9.0);
}

TEST(StatSet, MergeSumsSharedNames)
{
    StatSet a, b;
    a.add("x", 1);
    a.add("y", 2);
    b.add("x", 10);
    b.add("z", 3);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 11.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 2.0);
    EXPECT_DOUBLE_EQ(a.get("z"), 3.0);
}

TEST(StatSet, DumpFormat)
{
    StatSet s;
    s.set("a", 1);
    std::ostringstream os;
    s.dump(os, "p.");
    EXPECT_EQ(os.str(), "p.a = 1\n");
}

TEST(StatSet, CsvFormat)
{
    StatSet s;
    s.set("b", 2.5);
    s.set("a", 1);
    std::ostringstream os;
    s.dumpCsv(os);
    EXPECT_EQ(os.str(), "stat,value\na,1\nb,2.5\n");
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double x = r.real();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, SpreadsValues)
{
    Rng r(1);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 256; ++i)
        seen.insert(r.below(1024));
    EXPECT_GT(seen.size(), 180u); // near-uniform draw
}

TEST(Types, PageAndLineHelpers)
{
    EXPECT_EQ(pageOf(0), 0u);
    EXPECT_EQ(pageOf(4095), 0u);
    EXPECT_EQ(pageOf(4096), 1u);
    EXPECT_EQ(lineOf(0), 0u);
    EXPECT_EQ(lineOf(127), 0u);
    EXPECT_EQ(lineOf(128), 128u);
    EXPECT_EQ(lineOf(255), 128u);
}

} // namespace
} // namespace gex
