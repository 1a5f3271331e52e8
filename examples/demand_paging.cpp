/**
 * @file
 * Demand paging + block switching walkthrough (paper sections 2.3 and
 * 4.1): runs an oversubscribed workload with all inputs initially in
 * CPU memory and compares plain demand paging against UC1 block
 * switching, printing the fault and scheduling activity.
 *
 *     ./examples/demand_paging [workload] [scale]
 *
 * To see the block-switching run's context save/restore events on
 * per-slot tracks, record it as Chrome-trace JSON:
 *
 *     gexsim-run --workload sgemm --scale 3 --scheme replay-queue \
 *                --policy demand-paging --block-switching \
 *                --trace-out out.json
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "gex.hpp"

using namespace gex;

namespace {

void
report(const char *label, const gpu::SimResult &r)
{
    std::printf("%-22s %9llu cycles | migrations %4.0f, joined %4.0f | "
                "switch-outs %3.0f, switch-ins %3.0f, context moved "
                "%5.0f KB\n",
                label, static_cast<unsigned long long>(r.cycles),
                r.stats.get("mmu.migration_faults"),
                r.stats.get("mmu.joined_faults"),
                r.stats.get("sm.switch_outs"),
                r.stats.get("sm.switch_ins"),
                r.stats.get("sm.context_bytes_moved") / 1024.0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "sgemm";
    int scale = argc > 2 ? std::atoi(argv[2]) : 3;
    if (!workloads::exists(name)) {
        std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
        return 1;
    }

    func::GlobalMemory mem;
    auto w = workloads::make(name, mem, scale);
    func::FunctionalSim fsim(mem);
    trace::KernelTrace tr = fsim.run(w.kernel);

    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue; // preemptible faults
    std::printf("workload %s (scale %d): %u blocks, %d resident/SM, "
                "%llu warp insts\n\n",
                name.c_str(), scale, w.kernel.numBlocks(),
                gpu::blocksPerSm(cfg, w.kernel),
                static_cast<unsigned long long>(tr.dynamicInsts()));

    // Fault-free reference.
    {
        gpu::Gpu g(cfg);
        report("all-resident", g.run(w.kernel, tr));
    }
    // Demand paging, faulted blocks stay resident (stall until the
    // migration completes).
    gpu::SimResult no_switch;
    {
        gpu::Gpu g(cfg);
        no_switch = g.run(w.kernel, tr, vm::VmPolicy::demandPaging());
        report("demand paging", no_switch);
    }
    // UC1: switch faulted blocks out, run pending blocks meanwhile.
    {
        cfg.blockSwitching = true;
        gpu::Gpu g(cfg);
        auto r = g.run(w.kernel, tr, vm::VmPolicy::demandPaging());
        report("+ block switching", r);
        std::printf("\nblock switching speedup over plain demand "
                    "paging: %.3fx\n",
                    static_cast<double>(no_switch.cycles) /
                        static_cast<double>(r.cycles));
    }
    return 0;
}
