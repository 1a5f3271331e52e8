/**
 * @file
 * Block-parallel tracing: FunctionalSim runs thread blocks
 * speculatively on worker threads and commits them in launch order.
 * At any worker count the trace, the memory image and every error must
 * equal those of the serial loop (one worker). These tests compare the
 * two on every workload and on kernels built to defeat speculation:
 * cross-block dependences through live-destination atomics and CAS, a
 * stale read that would panic, a late TraceError and ALLOC.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "func/functional_sim.hpp"
#include "func/memory.hpp"
#include "kasm/builder.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace gex::func {
namespace {

using kasm::Cmp;
using kasm::KernelBuilder;
using kasm::SpecialReg;

constexpr unsigned kWorkerCounts[] = {2, 3, 4, 8};
constexpr Addr kIn = 1 << 20;
constexpr Addr kOut = 2 << 20;

/** Every field of two traces, block by block and warp by warp. */
void
expectSameTrace(const trace::KernelTrace &a, const trace::KernelTrace &b)
{
    EXPECT_EQ(a.memInsts, b.memInsts);
    EXPECT_EQ(a.memRequests, b.memRequests);
    EXPECT_EQ(a.stats.scalars(), b.stats.scalars());
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        const trace::BlockTrace &ba = a.blocks[i], &bb = b.blocks[i];
        SCOPED_TRACE("block " + std::to_string(i));
        EXPECT_EQ(ba.blockId, bb.blockId);
        ASSERT_EQ(ba.warps.size(), bb.warps.size());
        for (std::size_t w = 0; w < ba.warps.size(); ++w) {
            const trace::WarpTrace &wa = ba.warps[w], &wb = bb.warps[w];
            ASSERT_EQ(wa.insts.size(), wb.insts.size()) << "warp " << w;
            EXPECT_EQ(wa.linePool, wb.linePool) << "warp " << w;
            for (std::size_t k = 0; k < wa.insts.size(); ++k) {
                const trace::TraceInst &x = wa.insts[k], &y = wb.insts[k];
                ASSERT_TRUE(x.staticIdx == y.staticIdx &&
                            x.active == y.active &&
                            x.lineOff == y.lineOff &&
                            x.numLines == y.numLines &&
                            x.numActive == y.numActive &&
                            x.arithFault == y.arithFault)
                    << "warp " << w << " inst " << k;
            }
        }
    }
}

/** One traced run: its memory, trace and speculated block count. */
struct Traced {
    GlobalMemory mem;
    trace::KernelTrace trace;
    std::uint32_t speculated = 0;
};

Traced
traceWorkload(const std::string &name, unsigned workers)
{
    Traced t;
    const Kernel k = workloads::make(name, t.mem, 1).kernel;
    FunctionalSim sim(t.mem, workers);
    t.trace = sim.run(k);
    t.speculated = sim.speculatedBlocks();
    return t;
}

/** @p setup fills the memory; @p kernel runs at @p workers. */
template <typename Setup>
Traced
traceKernel(const Kernel &kernel, unsigned workers, Setup setup)
{
    Traced t;
    setup(t.mem);
    FunctionalSim sim(t.mem, workers);
    t.trace = sim.run(kernel);
    t.speculated = sim.speculatedBlocks();
    return t;
}

void
expectSameRun(const Traced &serial, const Traced &par)
{
    expectSameTrace(serial.trace, par.trace);
    EXPECT_EQ(serial.mem.digest(), par.mem.digest());
    EXPECT_EQ(serial.mem.touchedPages(), par.mem.touchedPages());
}

Kernel
launch(isa::Program prog, std::uint32_t blocks, std::uint32_t threads,
       std::vector<std::uint64_t> params)
{
    Kernel k;
    k.program = std::move(prog);
    k.grid = {blocks, 1, 1};
    k.block = {threads, 1, 1};
    k.params = std::move(params);
    return k;
}

/**
 * How many blocks of each workload commit from speculation at any
 * worker count: all of them, only block 0 (a later block reads what an
 * earlier one wrote), or none (the kernel calls ALLOC). The table in
 * docs/PERFORMANCE.md, "Block-parallel tracing".
 */
enum class Commits { All, FirstOnly, None };

Commits
expectedCommits(const std::string &name)
{
    if (name == "bfs")
        return Commits::FirstOnly;
    if (name.rfind("ha-", 0) == 0 || name == "quad-tree")
        return Commits::None;
    return Commits::All;
}

TEST(FunctionalParallel, EveryWorkloadIdenticalAtAnyWorkerCount)
{
    for (const std::string &name : workloads::allNames()) {
        SCOPED_TRACE(name);
        const Traced serial = traceWorkload(name, 1);
        EXPECT_EQ(serial.speculated, 0u);
        const auto nblocks =
            static_cast<std::uint32_t>(serial.trace.blocks.size());
        for (unsigned w : kWorkerCounts) {
            SCOPED_TRACE("workers " + std::to_string(w));
            const Traced par = traceWorkload(name, w);
            expectSameRun(serial, par);
            switch (expectedCommits(name)) {
              case Commits::All: EXPECT_EQ(par.speculated, nblocks); break;
              case Commits::FirstOnly: EXPECT_EQ(par.speculated, 1u); break;
              case Commits::None: EXPECT_EQ(par.speculated, 0u); break;
            }
        }
    }
}

TEST(FunctionalParallel, BlindAtomicsCommitAndReplayInOrder)
{
    // histo and tpacf update shared bins with RZ-destination atomics:
    // writes only, so every block commits and its log's atomics
    // replay on the committed bins.
    for (const char *name : {"histo", "tpacf"}) {
        SCOPED_TRACE(name);
        const Traced serial = traceWorkload(name, 1);
        const Traced par = traceWorkload(name, 4);
        expectSameRun(serial, par);
        EXPECT_EQ(par.speculated, serial.trace.blocks.size());
    }
}

TEST(FunctionalParallel, BfsFallsBackToTheSerialLoop)
{
    // bfs's later blocks load depths that earlier blocks relaxed.
    const Traced serial = traceWorkload("bfs", 1);
    const Traced par = traceWorkload("bfs", 4);
    expectSameRun(serial, par);
    EXPECT_EQ(par.speculated, 1u);
}

TEST(FunctionalParallel, AllocKernelsRunSerially)
{
    const Traced serial = traceWorkload("ha-grid", 1);
    const Traced par = traceWorkload("ha-grid", 4);
    expectSameRun(serial, par);
    EXPECT_EQ(par.speculated, 0u);
}

TEST(FunctionalParallel, LiveAtomicResultAsAddressIsRerun)
{
    // Each thread takes a ticket from a shared counter and writes its
    // id at out[ticket]: block b's tickets depend on every earlier
    // block, so only block 0 may commit from speculation.
    KernelBuilder b("tickets");
    b.setNumParams(2);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.s2r(0, SpecialReg::GlobalTid);
    b.movi(3, 1);
    b.atomAdd(4, 1, 3);
    b.shli(4, 4, 3);
    b.iadd(4, 4, 2);
    b.stGlobal(4, 0, 0);
    b.exit();
    const Kernel k = launch(b.build(), 6, 64, {kIn, kOut});
    auto setup = [](GlobalMemory &) {};
    const Traced serial = traceKernel(k, 1, setup);
    for (unsigned w : kWorkerCounts) {
        SCOPED_TRACE("workers " + std::to_string(w));
        const Traced par = traceKernel(k, w, setup);
        expectSameRun(serial, par);
        EXPECT_EQ(par.speculated, 1u);
    }
    EXPECT_EQ(serial.mem.read64(kIn), 6u * 64u);
}

TEST(FunctionalParallel, CasResultAsAddressIsRerun)
{
    // Each thread swaps its id + 1 into a slot still holding 0 and
    // writes at the address the old value selects. Only the CAS reads
    // the slot's page, so it must count as a read for block 1 to see
    // block 0's swap and be re-run.
    KernelBuilder b("cas-chain");
    b.setNumParams(2);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.s2r(0, SpecialReg::GlobalTid);
    b.movi(3, 0);       // expected: the slot's initial value
    b.iaddi(5, 0, 1);   // swap: id + 1
    b.atomCas(4, 1, 3, 5);
    b.shli(4, 4, 3);
    b.iadd(4, 4, 2);
    b.stGlobal(4, 0, 5);
    b.exit();
    const Kernel k = launch(b.build(), 5, 32, {kIn, kOut});
    auto setup = [](GlobalMemory &m) { m.write64(kIn, 0); };
    const Traced serial = traceKernel(k, 1, setup);
    for (unsigned w : kWorkerCounts) {
        SCOPED_TRACE("workers " + std::to_string(w));
        const Traced par = traceKernel(k, w, setup);
        expectSameRun(serial, par);
        EXPECT_EQ(par.speculated, 1u);
    }
}

TEST(FunctionalParallel, StaleReadThatWouldPanicIsRerun)
{
    // Block 0 publishes an aligned base pointer over an unaligned one;
    // the other blocks store through it. Run against the pre-launch
    // memory, those blocks compute unaligned addresses, which abort
    // the serial loop; speculation must only discard and re-run them.
    KernelBuilder b("publish");
    b.setNumParams(2);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.s2r(0, SpecialReg::GlobalTid);
    b.s2r(6, SpecialReg::CtaIdX);
    auto consumer = b.label();
    b.setpi(0, Cmp::NE, 6, 0);
    b.guard(0);
    b.bra(consumer);
    b.clearGuard();
    b.stGlobal(1, 0, 2);
    b.exit();
    b.bind(consumer);
    b.ldGlobal(3, 1);
    b.shli(4, 0, 3);
    b.iadd(4, 4, 3);
    b.stGlobal(4, 0, 0);
    b.exit();
    const Kernel k = launch(b.build(), 8, 32, {kIn, kOut});
    auto setup = [](GlobalMemory &m) { m.write64(kIn, 1); };
    const Traced serial = traceKernel(k, 1, setup);
    for (unsigned w : kWorkerCounts) {
        SCOPED_TRACE("workers " + std::to_string(w));
        const Traced par = traceKernel(k, w, setup);
        expectSameRun(serial, par);
        EXPECT_EQ(par.speculated, 1u);
    }
    EXPECT_EQ(serial.mem.read64(kOut + 8 * 32), 32u);
}

TEST(FunctionalParallel, LateTraceErrorMatchesTheSerialLoop)
{
    // Every block writes its threads' ids; block 6 of 8 then reaches a
    // barrier with half its lanes. The first failure in launch order
    // must surface with the serial loop's type and message, over the
    // same memory: blocks 0-5 and block 6's stores.
    KernelBuilder b("late-error");
    b.setNumParams(1);
    b.ldparam(1, 0);
    b.s2r(0, SpecialReg::GlobalTid);
    b.s2r(6, SpecialReg::CtaIdX);
    b.s2r(7, SpecialReg::TidX);
    b.shli(2, 0, 3);
    b.iadd(2, 2, 1);
    b.stGlobal(2, 0, 0);
    auto done = b.label();
    b.setpi(0, Cmp::NE, 6, 6);
    b.guard(0);
    b.bra(done);
    b.clearGuard();
    auto merge = b.label();
    b.ssy(merge);
    b.setpi(1, Cmp::GE, 7, 16);
    b.guard(1);
    b.bra(merge);
    b.clearGuard();
    b.bar(); // divergent barrier: illegal
    b.bind(merge);
    b.join();
    b.bind(done);
    b.exit();
    const Kernel k = launch(b.build(), 8, 32, {kOut});

    auto failure = [&](unsigned workers, std::uint64_t *digest) {
        GlobalMemory mem;
        FunctionalSim sim(mem, workers);
        std::string what = "no error";
        try {
            sim.run(k);
        } catch (const TraceError &e) {
            what = e.what();
        }
        *digest = mem.digest();
        return what;
    };
    std::uint64_t serialDigest = 0;
    const std::string serial = failure(1, &serialDigest);
    EXPECT_NE(serial.find("divergent barrier"), std::string::npos)
        << serial;
    for (unsigned w : kWorkerCounts) {
        SCOPED_TRACE("workers " + std::to_string(w));
        std::uint64_t digest = 0;
        EXPECT_EQ(failure(w, &digest), serial);
        EXPECT_EQ(digest, serialDigest);
    }
}

TEST(FunctionalParallel, PanicsThrowOnlyInsideTheScope)
{
    {
        PanicsThrow recoverable;
        EXPECT_THROW(panic("stale block"), SpeculativePanic);
        {
            PanicsThrow nested;
        }
        // The nested scope's end keeps the outer one in force.
        EXPECT_THROW(GEX_ASSERT(false, "still recoverable"),
                     SpeculativePanic);
    }
    EXPECT_DEATH(panic("a real bug"), "a real bug");
}

} // namespace
} // namespace gex::func
