/** @file Unit tests: common utilities (stats, rng, math, types, digests). */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "common/digest.hpp"
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

// Fnv1a backs every persisted and pinned digest (knob result/schema
// digests, journal spec digests, golden and observer-stream pins); a
// change to its output must fail here first.
TEST(Digest, Fnv1aKnownAnswers)
{
    Fnv1a empty;
    empty.bytes("", 0);
    EXPECT_EQ(empty.h, 0xcbf29ce484222325ull);
    Fnv1a a;
    a.bytes("a", 1);
    EXPECT_EQ(a.h, 0xaf63dc4c8601ec8cull);
    Fnv1a w;
    w.u64(0x0123456789abcdefull);
    EXPECT_EQ(w.h, 0x37eb3f3347761c55ull);
}

TEST(Digest, WordHashBulkMatchesWordByWord)
{
    // Every split of the buffered partial stripe against the bulk path.
    for (std::size_t prefix = 0; prefix < 4; ++prefix) {
        for (std::size_t n : {0, 1, 3, 4, 5, 8, 9, 512}) {
            std::vector<std::uint64_t> ws(n);
            for (std::size_t i = 0; i < n; ++i)
                ws[i] = i * 0x0101010101010101ull + 1;
            WordHash bulk, one;
            for (std::size_t i = 0; i < prefix; ++i) {
                bulk.u64(100 + i);
                one.u64(100 + i);
            }
            bulk.u64s(ws.data(), n);
            for (std::uint64_t w : ws)
                one.u64(w);
            EXPECT_EQ(bulk.finish(), one.finish())
                << "prefix " << prefix << " n " << n;
        }
    }
}

TEST(Digest, WordHashSeesOrderAndLength)
{
    auto hash = [](std::vector<std::uint64_t> ws) {
        WordHash h;
        for (std::uint64_t w : ws)
            h.u64(w);
        return h.finish();
    };
    EXPECT_NE(hash({1, 2}), hash({2, 1}));
    EXPECT_NE(hash({}), hash({0}));
    EXPECT_NE(hash({0}), hash({0, 0}));
    EXPECT_NE(hash({1, 2, 3, 4}), hash({1, 2, 3, 4, 0}));
    EXPECT_NE(hash({1, 2, 3, 4, 5, 6, 7, 8}),
              hash({5, 6, 7, 8, 1, 2, 3, 4}));
    // Every word of full stripes and of the partial tail counts.
    const std::vector<std::uint64_t> ws = {1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (std::size_t i = 0; i < ws.size(); ++i) {
        std::vector<std::uint64_t> flipped = ws;
        flipped[i] ^= 1ull << 63;
        EXPECT_NE(hash(flipped), hash(ws)) << "word " << i;
    }
}

} // namespace
} // namespace gex
