/**
 * @file
 * Determinism contract of the phased multi-threaded tick engine
 * (GpuConfig::smThreads, see docs/PERFORMANCE.md): a run's SimResult —
 * cycle count, instruction count and a digest over EVERY exported
 * statistic — must be bit-identical at any thread count, across all
 * five exception schemes, under demand paging, under UC1 block
 * switching (the staged bulk-DRAM path), under fault injection, and
 * with an observer attached (whose event sequence must also match the
 * serial order exactly).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/digest.hpp"
#include "gex.hpp"
#include "kasm/builder.hpp"

namespace gex {
namespace {

/** Same FNV-1a digest as test_golden_stats.cpp. */
std::uint64_t
digestStats(const gpu::SimResult &r)
{
    Fnv1a f{1469598103934665603ull};
    for (const auto &kv : r.stats.scalars()) {
        f.bytes(kv.first.data(), kv.first.size());
        double v = kv.second;
        f.bytes(&v, sizeof v);
    }
    return f.h;
}

constexpr std::initializer_list<int> kThreadCounts = {1, 4, 8};

/**
 * Run the same simulation at smThreads 1 and each of @p threads and
 * require bit-identical outcomes. Returns the smThreads=1 result for
 * extra assertions.
 */
gpu::SimResult
expectInvariant(const func::Kernel &kernel,
                const trace::KernelTrace &trace,
                const gpu::GpuConfig &base, const vm::VmPolicy &policy,
                std::initializer_list<int> threads = kThreadCounts)
{
    gpu::GpuConfig cfg = base;
    cfg.smThreads = 1;
    gpu::Gpu serial(cfg);
    gpu::SimResult ref = serial.run(kernel, trace, policy);
    std::uint64_t refDigest = digestStats(ref);

    for (int t : threads) {
        if (t == 1)
            continue;
        SCOPED_TRACE("smThreads=" + std::to_string(t));
        cfg.smThreads = t;
        gpu::Gpu g(cfg);
        gpu::SimResult r = g.run(kernel, trace, policy);
        EXPECT_EQ(r.cycles, ref.cycles);
        EXPECT_EQ(r.instructions, ref.instructions);
        EXPECT_EQ(digestStats(r), refDigest)
            << "a statistic moved with the thread count — the phased "
               "tick engine is no longer deterministic";
    }
    return ref;
}

gpu::SimResult
expectInvariant(const harness::TracedWorkload &tw,
                const gpu::GpuConfig &base, const vm::VmPolicy &policy,
                std::initializer_list<int> threads = kThreadCounts)
{
    return expectInvariant(tw.kernel, tw.trace, base, policy, threads);
}

/**
 * An oversubscribed kernel whose blocks fault on distinct input pages
 * and then compute — the same shape as test_block_switching's
 * workload, guaranteed to trigger UC1 switch-outs (and therefore the
 * staged bulk-DRAM save/restore path) under demand paging.
 */
struct SwitchyWorkload {
    func::GlobalMemory mem;
    func::Kernel kernel;
    trace::KernelTrace trace;

    SwitchyWorkload()
    {
        constexpr Addr kIn = 1 << 20;
        constexpr Addr kOut = 16 << 20;
        constexpr std::uint32_t blocks = 64;
        std::uint64_t n = static_cast<std::uint64_t>(blocks) * 256;
        for (std::uint64_t i = 0; i < n; ++i)
            mem.write64(kIn + i * 8, i & 1023);
        kasm::KernelBuilder b("switchy");
        b.setNumParams(2);
        b.setMinRegs(120); // 1 block of 256 threads per SM
        b.s2r(0, kasm::SpecialReg::GlobalTid);
        b.ldparam(1, 0);
        b.ldparam(2, 1);
        b.shli(3, 0, 3);
        b.iadd(1, 1, 3);
        b.ldGlobal(4, 1); // faults under demand paging
        for (int i = 0; i < 24; ++i)
            b.ffma(4, 4, 4, 4);
        b.iadd(2, 2, 3);
        b.stGlobal(2, 0, 4);
        b.exit();
        kernel.program = b.build();
        kernel.grid = {blocks, 1, 1};
        kernel.block = {256, 1, 1};
        kernel.params = {kIn, kOut};
        kernel.buffers.push_back(
            {"in", kIn, n * 8, func::BufferKind::Input});
        kernel.buffers.push_back(
            {"out", kOut, n * 8, func::BufferKind::Output});
        func::FunctionalSim fsim(mem);
        trace = fsim.run(kernel);
    }
};

TEST(ParallelTick, AllFiveSchemesBitIdenticalUnderDemandPaging)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("bfs");
    for (gpu::Scheme s : gpu::allSchemes()) {
        SCOPED_TRACE(gpu::schemeName(s));
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = s;
        expectInvariant(tw, cfg, vm::VmPolicy::demandPaging());
    }
}

TEST(ParallelTick, AllFiveSchemesBitIdenticalAllResident)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("sgemm");
    for (gpu::Scheme s : gpu::allSchemes()) {
        SCOPED_TRACE(gpu::schemeName(s));
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = s;
        expectInvariant(tw, cfg, vm::VmPolicy::allResident());
    }
}

/** UC1 context switching: the staged bulk-DRAM save/restore path. */
TEST(ParallelTick, BlockSwitchingBitIdentical)
{
    SwitchyWorkload sw;
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue;
    cfg.blockSwitching = true;
    gpu::SimResult ref = expectInvariant(sw.kernel, sw.trace, cfg,
                                         vm::VmPolicy::demandPaging());
    // The invariance is vacuous unless context switches happened.
    EXPECT_GT(ref.stats.get("sm.switch_outs"), 0.0);
    EXPECT_GT(ref.stats.get("sm.context_bytes_moved"), 0.0);
}

TEST(ParallelTick, IdealContextSwitchBitIdentical)
{
    SwitchyWorkload sw;
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::OperandLog;
    cfg.blockSwitching = true;
    cfg.idealContextSwitch = true;
    gpu::SimResult ref = expectInvariant(sw.kernel, sw.trace, cfg,
                                         vm::VmPolicy::demandPaging());
    EXPECT_GT(ref.stats.get("sm.switch_outs"), 0.0);
}

TEST(ParallelTick, FaultInjectionBitIdentical)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("spmv");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue;
    vm::VmPolicy policy = vm::VmPolicy::allResident();
    policy.inject.model = inject::ModelKind::Bernoulli;
    policy.inject.rate = 0.01;
    policy.inject.seed = 7;
    gpu::SimResult ref = expectInvariant(tw, cfg, policy);
    EXPECT_GT(ref.stats.get("mmu.injected_faults"), 0.0);
    EXPECT_GT(ref.stats.get("resil.replays_total"), 0.0);
}

/**
 * Observer events must arrive in the exact serial order at any thread
 * count: the per-SM buffers are flushed in ascending SM index each
 * cycle, reproducing the serial tick's emission sequence. Checks each
 * of @p threads against smThreads 1.
 */
void
expectEventOrderInvariant(const harness::TracedWorkload &tw,
                          gpu::GpuConfig cfg, const vm::VmPolicy &policy,
                          std::initializer_list<int> threads)
{
    auto record = [&](int t) {
        cfg.smThreads = t;
        obs::RecordingObserver rec;
        gpu::Gpu g(cfg);
        g.setObserver(&rec);
        g.run(tw.kernel, tw.trace, policy);
        return std::move(rec.events);
    };

    std::vector<obs::PipeEvent> serial = record(1);
    ASSERT_FALSE(serial.empty());
    for (int t : threads) {
        if (t == 1)
            continue;
        SCOPED_TRACE("smThreads=" + std::to_string(t));
        std::vector<obs::PipeEvent> par = record(t);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            const obs::PipeEvent &a = serial[i];
            const obs::PipeEvent &b = par[i];
            ASSERT_TRUE(a.cycle == b.cycle && a.sm == b.sm &&
                        a.slot == b.slot && a.warp == b.warp &&
                        a.kind == b.kind && a.traceIdx == b.traceIdx &&
                        a.staticIdx == b.staticIdx && a.arg == b.arg)
                << "event " << i << " diverged at cycle "
                << static_cast<unsigned long long>(b.cycle);
        }
    }
}

TEST(ParallelTick, ObserverEventOrderIdentical)
{
    harness::TraceCache cache;
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::OperandLog;
    expectEventOrderInvariant(cache.get("bfs"), cfg,
                              vm::VmPolicy::demandPaging(), kThreadCounts);
}

/**
 * Quiet-SM sleep: under demand paging histo's SMs mostly wait on
 * faults. About half of the cycles the driver ticks have at most one
 * awake SM (the serial fallback), the rest hand only the awake SMs to
 * the pool, and the asleep SMs' stall counters are charged in bulk.
 */
TEST(ParallelTick, MostlyAsleepSmsBitIdentical)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("histo");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue;
    const vm::VmPolicy policy = vm::VmPolicy::demandPaging();
    expectInvariant(tw, cfg, policy, {1, 2, 4});
    expectEventOrderInvariant(tw, cfg, policy, {1, 2, 4});
}

/** Thread counts beyond numSms clamp instead of misbehaving. */
TEST(ParallelTick, OversubscribedThreadCountClamps)
{
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 2;
    gpu::Gpu serial(cfg);
    gpu::SimResult ref =
        serial.run(tw.kernel, tw.trace, vm::VmPolicy::allResident());

    cfg.smThreads = 64; // > numSms, > any host core count
    gpu::Gpu g(cfg);
    gpu::SimResult r =
        g.run(tw.kernel, tw.trace, vm::VmPolicy::allResident());
    EXPECT_EQ(r.cycles, ref.cycles);
    EXPECT_EQ(digestStats(r), digestStats(ref));
}

/** The sweep engine composes with per-run smThreads (jobs × threads). */
TEST(ParallelTick, NestedSweepParallelismDeterministic)
{
    auto grid = [](int jobs, int smThreads) {
        harness::SweepEngine eng(jobs);
        for (const char *w : {"bfs", "sgemm"}) {
            for (gpu::Scheme s :
                 {gpu::Scheme::StallOnFault, gpu::Scheme::ReplayQueue}) {
                harness::RunSpec rs;
                rs.workload = w;
                rs.cfg = gpu::GpuConfig::baseline();
                rs.cfg.scheme = s;
                rs.cfg.smThreads = smThreads;
                eng.add(std::move(rs));
            }
        }
        return eng.run();
    };
    auto serial = grid(1, 1);
    auto nested = grid(2, 4);
    ASSERT_EQ(serial.size(), nested.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].result.cycles, nested[i].result.cycles);
        EXPECT_EQ(digestStats(serial[i].result),
                  digestStats(nested[i].result));
    }
}

} // namespace
} // namespace gex
