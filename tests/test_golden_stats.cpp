/**
 * @file
 * Golden end-to-end results: a grid of (workload, scheme, paging
 * policy, block switching) points with the exact cycle count,
 * instruction count and a digest over EVERY exported statistic,
 * captured before the hot-path container overhaul (flat maps, ring
 * buffers, scan gating). Performance work on the timing loop must be
 * behavior-neutral; any change to any stat on any point fails here.
 *
 * To regenerate after an *intentional* behavior change, print the new
 * table with the digest below (FNV-1a over the sorted scalars' names
 * and raw double bits) and review every moved point.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/digest.hpp"
#include "gex.hpp"
#include "gpu/context_switch.hpp"

namespace gex {
namespace {

std::uint64_t
digestStats(const gpu::SimResult &r)
{
    // FNV-1a 64-bit over each scalar's name bytes then its raw value
    // bits, in the StatSet's sorted order. Bit-exact by construction.
    // The seed is not the standard offset basis (one digit short); the
    // pins below were taken with it, so it stays.
    Fnv1a f{1469598103934665603ull};
    for (const auto &kv : r.stats.scalars()) {
        f.bytes(kv.first.data(), kv.first.size());
        double v = kv.second;
        f.bytes(&v, sizeof v);
    }
    return f.h;
}

vm::VmPolicy
policyByName(const std::string &p)
{
    if (p == "all-resident")
        return vm::VmPolicy::allResident();
    if (p == "demand-paging")
        return vm::VmPolicy::demandPaging();
    if (p == "output-local")
        return vm::VmPolicy::outputFaults(true);
    if (p == "output-cpu")
        return vm::VmPolicy::outputFaults(false);
    if (p == "heap-local")
        return vm::VmPolicy::heapFaults(true);
    ADD_FAILURE() << "unknown policy " << p;
    return vm::VmPolicy::allResident();
}

struct GoldenPoint {
    const char *workload;
    const char *scheme;
    const char *policy;
    bool blockSwitching;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t statsDigest;
};

// Captured at the pre-overhaul baseline (std::unordered_map /
// std::deque containers, full-width warp scans). Covers every
// exception scheme fault-free, demand paging, block switching (the
// saved-warp context path), local/CPU output faults and the GPU-local
// heap handler.
const GoldenPoint kGolden[] = {
    {"bfs", "baseline", "all-resident", false,
     15338ull, 50994ull, 0x1935f1c9fb129810ull},
    {"bfs", "wd-commit", "all-resident", false,
     15967ull, 50994ull, 0x7b993b39894332bbull},
    {"bfs", "wd-lastcheck", "all-resident", false,
     15499ull, 50994ull, 0xd5757877af1736c5ull},
    {"bfs", "replay-queue", "all-resident", false,
     15468ull, 50994ull, 0x360532fe14697848ull},
    {"bfs", "operand-log", "all-resident", false,
     15989ull, 50994ull, 0x98748b7a4f332beeull},
    {"spmv", "baseline", "all-resident", false,
     261971ull, 135892ull, 0xdcdf28d380e734e7ull},
    {"spmv", "replay-queue", "all-resident", false,
     262261ull, 135892ull, 0x4c64c8a25f6bc9bcull},
    {"spmv", "operand-log", "all-resident", false,
     264751ull, 135892ull, 0xec4ac5b7893bc2cdull},
    {"lbm", "wd-lastcheck", "all-resident", false,
     49762ull, 116736ull, 0x9da746263d97ce5eull},
    {"sgemm", "replay-queue", "all-resident", false,
     19441ull, 287232ull, 0x11e3def4164c7b8cull},
    {"bfs", "baseline", "demand-paging", false,
     155021ull, 50994ull, 0x823563883bca5143ull},
    {"bfs", "replay-queue", "demand-paging", false,
     146874ull, 50994ull, 0xe73334ce5390b7d2ull},
    {"bfs", "replay-queue", "demand-paging", true,
     146874ull, 50994ull, 0xe73334ce5390b7d2ull},
    {"spmv", "operand-log", "demand-paging", true,
     705846ull, 135892ull, 0x09cc3b7b543a7c3aull},
    {"stencil", "replay-queue", "output-local", false,
     411997ull, 176640ull, 0x3ce98445f903fd70ull},
    {"stencil", "replay-queue", "output-cpu", false,
     270677ull, 176640ull, 0xd22b5e468ee3e491ull},
    {"ha-prob", "operand-log", "heap-local", false,
     71499ull, 32064ull, 0x08650c7ab646df8eull},
    {"quad-tree", "replay-queue", "heap-local", false,
     83974ull, 21120ull, 0xc8131dbf0bfd37daull},
};

TEST(GoldenStats, EveryPointBitIdenticalToCapturedBaseline)
{
    harness::TraceCache cache; // share each workload's trace across points
    // The phased tick engine promises bit-identical results at any
    // smThreads setting, so the golden table must hold at each one.
    for (int smThreads : {1, 4, 8}) {
        for (const GoldenPoint &pt : kGolden) {
            SCOPED_TRACE(std::string(pt.workload) + "/" + pt.scheme +
                         "/" + pt.policy +
                         (pt.blockSwitching ? "/bs" : "") +
                         "/smThreads=" + std::to_string(smThreads));
            const harness::TracedWorkload &tw = cache.get(pt.workload);
            gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
            cfg.scheme = gpu::schemeFromName(pt.scheme);
            cfg.blockSwitching = pt.blockSwitching;
            cfg.smThreads = smThreads;
            gpu::Gpu g(cfg);
            gpu::SimResult r =
                g.run(tw.kernel, tw.trace, policyByName(pt.policy));
            EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), pt.cycles);
            EXPECT_EQ(r.instructions, pt.instructions);
            EXPECT_EQ(digestStats(r), pt.statsDigest)
                << "a statistic changed value — the timing refactor is "
                   "no longer behavior-neutral";
        }
    }
}

struct GeometryPoint {
    const char *workload;
    const char *scheme;
    const char *policy;
    /** Space-separated registry knob settings, "name=value". */
    const char *knobs;
    std::uint64_t cycles;
    std::uint64_t instructions;
    std::uint64_t statsDigest;
};

// Warp-scheduler geometries the table above never reaches: GTO, two
// fetch lines and four issue slots per cycle, and more than 64
// resident warps per SM (readiness masks two words long). Pinned on
// the per-warp byte-gated rotation scans, before fetch and issue moved
// onto readiness bitmasks. No point fills every warp slot under GTO;
// GtoWithEveryWarpSlotFilledCompletes below covers that case.
const GeometryPoint kGeometry[] = {
    {"bfs", "replay-queue", "demand-paging",
     "sm.sched-policy=greedy-then-oldest", 146820ull, 50994ull,
     0xd44a8b8bc13e0360ull},
    {"stencil", "wd-commit", "all-resident",
     "sm.sched-policy=greedy-then-oldest", 105527ull, 176640ull,
     0xd4ca8e0ae1b76ec4ull},
    {"sgemm", "operand-log", "all-resident",
     "sm.fetch-per-cycle=2 sm.issue-width=4", 19340ull, 287232ull,
     0xdb12444e2cd017feull},
    {"bfs", "wd-lastcheck", "demand-paging",
     "sm.fetch-per-cycle=2 sm.issue-width=4", 147116ull, 50994ull,
     0x8262a6a960289c71ull},
    {"bfs", "replay-queue", "all-resident",
     "sms=2 sm.max-warps=100 sm.max-blocks=32 sm.register-file-kb=1024",
     54462ull, 50994ull, 0x9f916afb5fd15109ull},
    {"bfs", "operand-log", "demand-paging",
     "sms=2 sm.max-warps=100 sm.max-blocks=24 sm.register-file-kb=1024 "
     "sm.sched-policy=greedy-then-oldest",
     173935ull, 50994ull, 0xa8a81738401176b1ull},
    {"bfs", "replay-queue", "demand-paging",
     "sms=2 sm.max-warps=160 sm.max-blocks=64 sm.register-file-kb=2048 "
     "sm.fetch-per-cycle=2 sm.issue-width=4",
     147703ull, 50994ull, 0xc8f517b58cd4d7ddull},
};

gpu::GpuConfig
withKnobs(const char *knobs)
{
    config::RunParams p;
    p.cfg = gpu::GpuConfig::baseline();
    std::istringstream in(knobs);
    std::string kv;
    while (in >> kv) {
        const std::size_t eq = kv.find('=');
        const std::string name = kv.substr(0, eq);
        const config::Knob *k = config::KnobRegistry::instance().find(name);
        if (!k) {
            ADD_FAILURE() << "unknown knob " << name;
            continue;
        }
        k->set(p, k->parseText(name, kv.substr(eq + 1)));
    }
    return p.cfg;
}

/** Run @p pt at @p smThreads and check it against its pins. */
gpu::SimResult
expectPinned(harness::TraceCache &cache, const GeometryPoint &pt,
             int smThreads)
{
    SCOPED_TRACE(std::string(pt.workload) + "/" + pt.scheme + "/" +
                 pt.policy + " [" + pt.knobs +
                 "] smThreads=" + std::to_string(smThreads));
    const harness::TracedWorkload &tw = cache.get(pt.workload);
    gpu::GpuConfig cfg = withKnobs(pt.knobs);
    cfg.scheme = gpu::schemeFromName(pt.scheme);
    cfg.smThreads = smThreads;
    if (cfg.sm.maxWarps > 64) {
        // Such a point exists to keep more than one mask word of warps
        // resident on each SM.
        const int blocks = std::min<int>(
            gpu::blocksPerSm(cfg, tw.kernel),
            static_cast<int>(tw.kernel.numBlocks()) / cfg.numSms);
        EXPECT_GT(blocks * static_cast<int>(tw.kernel.warpsPerBlock()), 64);
    }
    gpu::Gpu g(cfg);
    gpu::SimResult r = g.run(tw.kernel, tw.trace, policyByName(pt.policy));
    EXPECT_EQ(static_cast<std::uint64_t>(r.cycles), pt.cycles);
    EXPECT_EQ(r.instructions, pt.instructions);
    EXPECT_EQ(digestStats(r), pt.statsDigest);
    return r;
}

TEST(GoldenStats, SchedulerGeometriesBitIdenticalToCapturedBaseline)
{
    harness::TraceCache cache;
    for (int smThreads : {1, 4})
        for (const GeometryPoint &pt : kGeometry)
            expectPinned(cache, pt, smThreads);
}

/**
 * Under GTO the oldest-first pass once stopped one warp short of the
 * warp slots, so when a kernel's occupancy filled all of them the last
 * warp never fetched and the run ended in a DeadlockError. Pinned on
 * the fixed scan.
 */
TEST(GoldenStats, GtoWithEveryWarpSlotFilledCompletes)
{
    const GeometryPoint pt = {
        "stencil", "operand-log", "all-resident",
        "sms=2 sm.max-warps=100 sm.max-blocks=32 sm.register-file-kb=1024 "
        "sm.sched-policy=greedy-then-oldest",
        571007ull, 176640ull, 0x5871c4bba5f29317ull};
    harness::TraceCache cache;
    const harness::TracedWorkload &tw = cache.get(pt.workload);
    const gpu::GpuConfig cfg = withKnobs(pt.knobs);
    ASSERT_EQ(gpu::blocksPerSm(cfg, tw.kernel) *
                  static_cast<int>(tw.kernel.warpsPerBlock()),
              cfg.sm.maxWarps);
    for (int smThreads : {1, 4})
        expectPinned(cache, pt, smThreads);
}

struct QuietPoint {
    GeometryPoint pt;
    /** A counter charged in bulk while SMs sleep; must be non-zero. */
    const char *charged;
};

// Points whose SMs spend most cycles idle while a stall counter keeps
// counting: the counters an asleep SM is charged for in bulk (see
// "Quiet-SM sleep" in docs/PERFORMANCE.md). histo is the sleep-heavy
// case; a two-deep LSU queue keeps sm.stall_lsu_queue busy; an 8 KB
// operand log with the resilience block on keeps sm.stall_log,
// operand_log.alloc_failures and resil.log_backpressure_cycles busy.
// Pinned on the tick loop that ticked every SM every cycle.
const QuietPoint kQuiet[] = {
    {{"histo", "baseline", "all-resident", "", 99054ull, 48384ull,
      0xdc0ae95f8a1dc0d8ull},
     "sm.stall_scoreboard"},
    {{"bfs", "wd-lastcheck", "demand-paging", "sm.lsu-queue-depth=2",
      150193ull, 50994ull, 0x9a9db3990cff1f68ull},
     "sm.stall_lsu_queue"},
    {{"lbm", "operand-log", "demand-paging",
      "operand-log-kb=8 resilience-stats=true", 231965ull, 116736ull,
      0xda0d1fc41eade73aull},
     "resil.log_backpressure_cycles"},
};

TEST(GoldenStats, QuietChargeBitIdenticalToCapturedBaseline)
{
    harness::TraceCache cache;
    for (int smThreads : {1, 4}) {
        for (const QuietPoint &q : kQuiet) {
            gpu::SimResult r = expectPinned(cache, q.pt, smThreads);
            EXPECT_GT(r.stats.get(q.charged), 0.0) << q.charged;
        }
    }
}

} // namespace
} // namespace gex
