/** @file Unit + integration tests: functional simulator semantics. */

#include <gtest/gtest.h>
#include "common/error.hpp"

#include <bit>
#include <cmath>
#include <set>

#include "func/functional_sim.hpp"
#include "kasm/builder.hpp"

namespace gex::func {
namespace {

using kasm::Cmp;
using kasm::KernelBuilder;
using kasm::PLogic;
using kasm::SpecialReg;

constexpr Addr kIn = 1 << 20;
constexpr Addr kOut = 2 << 20;

/** Run a single-block kernel and return its trace. */
trace::KernelTrace
run1(GlobalMemory &mem, isa::Program prog, std::uint32_t threads,
     std::vector<std::uint64_t> params = {},
     std::uint32_t blocks = 1)
{
    Kernel k;
    k.program = std::move(prog);
    k.grid = {blocks, 1, 1};
    k.block = {threads, 1, 1};
    k.params = std::move(params);
    FunctionalSim fsim(mem);
    return fsim.run(k);
}

TEST(GlobalMemory, CopiesAndMovesDoNotShareTheLastPageMemo)
{
    GlobalMemory a;
    a.write64(kIn, 1);
    GlobalMemory b = a;
    b.write64(kIn, 2);
    EXPECT_EQ(a.read64(kIn), 1u);
    EXPECT_EQ(b.read64(kIn), 2u);

    // c's memo names its own kOut page, which the assignment frees.
    GlobalMemory c;
    c.write64(kOut, 3);
    c = a;
    EXPECT_EQ(c.read64(kOut), 0u);
    c.write64(kIn, 4);
    EXPECT_EQ(a.read64(kIn), 1u);

    GlobalMemory d = std::move(b);
    EXPECT_EQ(d.read64(kIn), 2u);
    d.write64(kIn + 8, 5);
    const GlobalMemory &cd = d;
    EXPECT_EQ(cd.read64(kIn + 8), 5u);
}

TEST(Functional, VectorIncrement)
{
    GlobalMemory mem;
    for (int i = 0; i < 64; ++i)
        mem.write64(kIn + 8 * static_cast<Addr>(i),
                    static_cast<std::uint64_t>(i));
    KernelBuilder b("vecinc");
    b.setNumParams(2);
    b.s2r(0, SpecialReg::GlobalTid);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.shli(3, 0, 3);
    b.iadd(4, 3, 1);
    b.ldGlobal(5, 4);
    b.iaddi(5, 5, 1);
    b.iadd(4, 3, 2);
    b.stGlobal(4, 0, 5);
    b.exit();
    run1(mem, b.build(), 64, {kIn, kOut}, 2);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(mem.read64(kOut + 8 * static_cast<Addr>(i)),
                  static_cast<std::uint64_t>(i) + 1)
            << "element " << i;
}

TEST(Functional, SpecialRegisters)
{
    GlobalMemory mem;
    KernelBuilder b("sregs");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::GlobalTid);
    b.shli(2, 0, 5); // 4 values x 8 bytes per thread
    b.iadd(2, 2, 1);
    b.s2r(3, SpecialReg::TidX);
    b.stGlobal(2, 0, 3);
    b.s2r(3, SpecialReg::CtaIdX);
    b.stGlobal(2, 8, 3);
    b.s2r(3, SpecialReg::LaneId);
    b.stGlobal(2, 16, 3);
    b.s2r(3, SpecialReg::WarpId);
    b.stGlobal(2, 24, 3);
    b.exit();
    run1(mem, b.build(), 64, {kOut}, 2);
    // Thread 70 = block 1, tid 6, warp 0, lane 6.
    Addr base = kOut + 70 * 32;
    EXPECT_EQ(mem.read64(base + 0), 6u);
    EXPECT_EQ(mem.read64(base + 8), 1u);
    EXPECT_EQ(mem.read64(base + 16), 6u);
    EXPECT_EQ(mem.read64(base + 24), 0u);
    // Thread 33 of block 0: warp 1, lane 1.
    base = kOut + 33 * 32;
    EXPECT_EQ(mem.read64(base + 16), 1u);
    EXPECT_EQ(mem.read64(base + 24), 1u);
}

TEST(Functional, FloatOpsMatchHost)
{
    GlobalMemory mem;
    mem.writeF64(kIn, 2.25);
    mem.writeF64(kIn + 8, -0.5);
    KernelBuilder b("fops");
    b.setNumParams(2);
    b.ldparam(0, 0);
    b.ldparam(1, 1);
    b.ldGlobal(2, 0);
    b.ldGlobal(3, 0, 8);
    b.ffma(4, 2, 3, 2);     // 2.25*-0.5 + 2.25
    b.fsqrt(5, 2);
    b.fsin(6, 3);
    b.fdiv(7, 2, 3);
    b.stGlobal(1, 0, 4);
    b.stGlobal(1, 8, 5);
    b.stGlobal(1, 16, 6);
    b.stGlobal(1, 24, 7);
    b.exit();
    run1(mem, b.build(), 1, {kIn, kOut});
    EXPECT_DOUBLE_EQ(mem.readF64(kOut), std::fma(2.25, -0.5, 2.25));
    EXPECT_DOUBLE_EQ(mem.readF64(kOut + 8), std::sqrt(2.25));
    EXPECT_DOUBLE_EQ(mem.readF64(kOut + 16), std::sin(-0.5));
    EXPECT_DOUBLE_EQ(mem.readF64(kOut + 24), 2.25 / -0.5);
}

TEST(Functional, DivergentBranchBothSidesExecute)
{
    GlobalMemory mem;
    KernelBuilder b("div");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.shli(2, 0, 3);
    b.iadd(2, 2, 1);
    b.setpi(0, Cmp::LT, 0, 16);
    auto merge = b.label();
    auto els = b.label();
    b.ssy(merge);
    b.guard(0, true);
    b.bra(els);
    b.clearGuard();
    b.movi(3, 111); // lanes 0..15
    b.bra(merge);
    b.bind(els);
    b.movi(3, 222); // lanes 16..31
    b.bind(merge);
    b.join();
    b.stGlobal(2, 0, 3);
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (int lane = 0; lane < 32; ++lane)
        EXPECT_EQ(mem.read64(kOut + 8 * static_cast<Addr>(lane)),
                  lane < 16 ? 111u : 222u)
            << "lane " << lane;
}

TEST(Functional, DivergentLoopTripCounts)
{
    // Each lane loops laneid+1 times accumulating its lane id.
    GlobalMemory mem;
    KernelBuilder b("dloop");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.movi(2, 0); // acc
    b.movi(3, 0); // i
    auto done = b.label();
    auto loop = b.label();
    b.ssy(done);
    b.bind(loop);
    b.setp(0, Cmp::GT, 3, 0); // i > laneid ?
    b.guard(0);
    b.bra(done);
    b.clearGuard();
    b.iadd(2, 2, 0);
    b.iaddi(3, 3, 1);
    b.bra(loop);
    b.bind(done);
    b.join();
    b.shli(4, 0, 3);
    b.iadd(4, 4, 1);
    b.stGlobal(4, 0, 2);
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (std::uint64_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(mem.read64(kOut + 8 * lane), lane * (lane + 1))
            << "lane " << lane;
}

TEST(Functional, SharedMemoryAndBarrier)
{
    // Cross-warp reversal through shared memory: thread i writes
    // s[i], reads s[N-1-i] after a barrier.
    GlobalMemory mem;
    KernelBuilder b("rev");
    b.setNumParams(1);
    b.setSharedBytes(64 * 8);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::TidX);
    b.shli(2, 0, 3);
    b.stShared(2, 0, 0);
    b.bar();
    b.movi(3, 63);
    b.isub(3, 3, 0);
    b.shli(3, 3, 3);
    b.ldShared(4, 3);
    b.shli(5, 0, 3);
    b.iadd(5, 5, 1);
    b.stGlobal(5, 0, 4);
    b.exit();
    run1(mem, b.build(), 64, {kOut});
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(mem.read64(kOut + 8 * i), 63 - i);
}

TEST(Functional, AtomicsAccumulateAcrossBlocks)
{
    GlobalMemory mem;
    KernelBuilder b("atom");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.movi(2, 1);
    b.atomAdd(isa::kRegZero, 1, 2);
    b.exit();
    run1(mem, b.build(), 64, {kOut}, 4);
    EXPECT_EQ(mem.read64(kOut), 4u * 64u);
}

TEST(Functional, AtomicCasAndExch)
{
    GlobalMemory mem;
    mem.write64(kOut, 7);
    KernelBuilder b("cas");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.movi(2, 7);
    b.movi(3, 9);
    b.atomCas(4, 1, 2, 3);      // 7 -> 9, returns 7
    b.stGlobal(1, 8, 4);
    b.movi(5, 42);
    b.atomExch(6, 1, 5);        // 9 -> 42, returns 9
    b.stGlobal(1, 16, 6);
    b.exit();
    run1(mem, b.build(), 1, {kOut});
    EXPECT_EQ(mem.read64(kOut), 42u);
    EXPECT_EQ(mem.read64(kOut + 8), 7u);
    EXPECT_EQ(mem.read64(kOut + 16), 9u);
}

TEST(Functional, AllocReturnsDistinctChunks)
{
    GlobalMemory mem;
    mem.setHeap(8 << 20, 1 << 20);
    KernelBuilder b("alloc");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.movi(2, 64);
    b.alloc(3, 2);
    b.stGlobal(3, 0, 0);  // touch the chunk
    b.s2r(0, SpecialReg::GlobalTid);
    b.shli(4, 0, 3);
    b.iadd(4, 4, 1);
    b.stGlobal(4, 0, 3);  // publish pointer
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    std::set<std::uint64_t> ptrs;
    for (std::uint64_t i = 0; i < 32; ++i) {
        std::uint64_t p = mem.read64(kOut + 8 * i);
        EXPECT_GE(p, (8u << 20) + 16u);
        EXPECT_EQ(p % 16, 0u);
        ptrs.insert(p);
    }
    EXPECT_EQ(ptrs.size(), 32u); // all distinct
}

TEST(Functional, PredicatedExecutionNoBranch)
{
    GlobalMemory mem;
    KernelBuilder b("pred");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.shli(2, 0, 3);
    b.iadd(2, 2, 1);
    b.movi(3, 5);
    b.setpi(0, Cmp::EQ, 0, 3); // lane 3 only
    b.guard(0);
    b.movi(3, 99);
    b.clearGuard();
    b.stGlobal(2, 0, 3);
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (std::uint64_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(mem.read64(kOut + 8 * lane), lane == 3 ? 99u : 5u);
}

TEST(Functional, SelAndPsetp)
{
    GlobalMemory mem;
    KernelBuilder b("sel");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.setpi(0, Cmp::GE, 0, 8);
    b.setpi(1, Cmp::LT, 0, 24);
    b.psetp(2, PLogic::And, 0, 1); // 8 <= lane < 24
    b.movi(3, 1);
    b.movi(4, 0);
    b.sel(5, 3, 4, 2);
    b.shli(6, 0, 3);
    b.iadd(6, 6, 1);
    b.stGlobal(6, 0, 5);
    b.exit();
    run1(mem, b.build(), 32, {kOut});
    for (std::uint64_t lane = 0; lane < 32; ++lane)
        EXPECT_EQ(mem.read64(kOut + 8 * lane),
                  (lane >= 8 && lane < 24) ? 1u : 0u);
}

TEST(Functional, TraceRecordsCoalescedLines)
{
    GlobalMemory mem;
    KernelBuilder b("coal");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::LaneId);
    b.shli(2, 0, 3); // consecutive 8B: 32 lanes -> 2 lines
    b.iadd(2, 2, 1);
    b.ldGlobal(3, 2);
    b.shli(2, 0, 7); // 128B stride: 32 lanes -> 32 lines
    b.iadd(2, 2, 1);
    b.ldGlobal(3, 2);
    b.exit();
    trace::KernelTrace kt = run1(mem, b.build(), 32, {kIn});
    const trace::WarpTrace &w = kt.blocks[0].warps[0];
    std::vector<int> lines;
    for (const auto &ti : w.insts)
        if (ti.numLines > 0)
            lines.push_back(ti.numLines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], 2);
    EXPECT_EQ(lines[1], 32);
}

TEST(Functional, PartialLastWarpMask)
{
    GlobalMemory mem;
    KernelBuilder b("partial");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::GlobalTid);
    b.shli(2, 0, 3);
    b.iadd(2, 2, 1);
    b.stGlobal(2, 0, 0);
    b.exit();
    trace::KernelTrace kt = run1(mem, b.build(), 40, {kOut});
    ASSERT_EQ(kt.blocks[0].warps.size(), 2u);
    // Second warp has only 8 live lanes.
    for (const auto &ti : kt.blocks[0].warps[1].insts)
        EXPECT_EQ(ti.active & ~0xffu, 0u);
    EXPECT_EQ(mem.read64(kOut + 39 * 8), 39u);
}

TEST(Functional, DeadlockDetectionOnDivergentBarrier)
{
    GlobalMemory mem;
    KernelBuilder b("dbar");
    b.s2r(0, SpecialReg::LaneId);
    b.setpi(0, Cmp::LT, 0, 16);
    auto merge = b.label();
    b.ssy(merge);
    b.guard(0, true);
    b.bra(merge);
    b.clearGuard();
    b.bar(); // divergent barrier: illegal
    b.bind(merge);
    b.join();
    b.exit();
    Kernel k;
    k.program = b.build();
    k.grid = {1, 1, 1};
    k.block = {32, 1, 1};
    FunctionalSim fsim(mem);
    EXPECT_THROW(fsim.run(k), TraceError);
}

TEST(Functional, DynamicInstCountsConsistent)
{
    GlobalMemory mem;
    KernelBuilder b("count");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::GlobalTid);
    b.shli(2, 0, 3);
    b.iadd(2, 2, 1);
    b.ldGlobal(3, 2);
    b.stGlobal(2, 0, 3);
    b.exit();
    trace::KernelTrace kt = run1(mem, b.build(), 64, {kIn}, 3);
    // 7 instructions x 2 warps x 3 blocks.
    EXPECT_EQ(kt.dynamicInsts(), 7u * 2u * 3u);
    EXPECT_EQ(kt.memInsts, 2u * 2u * 3u);
}

} // namespace
} // namespace gex::func
