/**
 * @file
 * Tests for configuration knobs added beyond the paper's fixed
 * setup: warp scheduler policy, migration granularity and SM count.
 */

#include <gtest/gtest.h>

#include "func/functional_sim.hpp"
#include "gpu/gpu.hpp"
#include "workloads/workloads.hpp"

namespace gex {
namespace {

struct Built {
    func::GlobalMemory mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
};

Built *
buildShared(const std::string &name)
{
    static std::map<std::string, std::unique_ptr<Built>> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        auto bt = std::make_unique<Built>();
        auto w = workloads::make(name, bt->mem, 1);
        bt->kernel = std::move(w.kernel);
        func::FunctionalSim fsim(bt->mem);
        bt->trace = fsim.run(bt->kernel);
        it = cache.emplace(name, std::move(bt)).first;
    }
    return it->second.get();
}

TEST(SchedPolicy, BothPoliciesCompleteIdenticalWork)
{
    Built *bt = buildShared("sad");
    for (auto pol : {gpu::SchedPolicy::LooseRoundRobin,
                     gpu::SchedPolicy::GreedyThenOldest}) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.sm.schedPolicy = pol;
        gpu::Gpu g(cfg);
        auto r = g.run(bt->kernel, bt->trace);
        EXPECT_EQ(r.instructions, bt->trace.dynamicInsts());
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(SchedPolicy, PoliciesDifferInTiming)
{
    Built *bt = buildShared("spmv");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.sm.schedPolicy = gpu::SchedPolicy::LooseRoundRobin;
    gpu::Gpu g1(cfg);
    auto lrr = g1.run(bt->kernel, bt->trace);
    cfg.sm.schedPolicy = gpu::SchedPolicy::GreedyThenOldest;
    gpu::Gpu g2(cfg);
    auto gto = g2.run(bt->kernel, bt->trace);
    EXPECT_NE(lrr.cycles, gto.cycles); // genuinely different schedules
}

TEST(MigrationGranularity, SmallerRegionsMoreFaults)
{
    Built *bt = buildShared("sad");
    auto run_gran = [&](Addr bytes) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::Scheme::ReplayQueue;
        cfg.migrationGranularityBytes = bytes;
        gpu::Gpu g(cfg);
        return g.run(bt->kernel, bt->trace, vm::VmPolicy::demandPaging());
    };
    auto small = run_gran(16 * 1024);
    auto big = run_gran(256 * 1024);
    EXPECT_GT(small.stats.get("mmu.migration_faults"),
              big.stats.get("mmu.migration_faults"));
    // Same total data, different batching.
    EXPECT_EQ(small.instructions, big.instructions);
}

TEST(SmCount, FewerSmsSlower)
{
    Built *bt = buildShared("sad");
    auto run_sms = [&](int n) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.numSms = n;
        gpu::Gpu g(cfg);
        return g.run(bt->kernel, bt->trace);
    };
    auto few = run_sms(4);
    auto many = run_sms(16);
    EXPECT_GT(few.cycles, many.cycles);
    EXPECT_EQ(few.instructions, many.instructions);
}

TEST(SchemeNames, AllDistinct)
{
    std::set<std::string> names;
    for (auto s : {gpu::Scheme::StallOnFault, gpu::Scheme::WarpDisableCommit,
                   gpu::Scheme::WarpDisableLastCheck,
                   gpu::Scheme::ReplayQueue, gpu::Scheme::OperandLog})
        names.insert(gpu::schemeName(s));
    EXPECT_EQ(names.size(), 5u);
}

} // namespace
} // namespace gex
