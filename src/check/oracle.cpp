#include "check/oracle.hpp"

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "func/functional_sim.hpp"
#include "func/memory.hpp"
#include "gpu/gpu.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace gex::check {

std::string
ArchFingerprint::toString() const
{
    return strprintf("mem %016llx, trace %016llx, %llu insts",
                     static_cast<unsigned long long>(memDigest),
                     static_cast<unsigned long long>(traceDigest),
                     static_cast<unsigned long long>(dynamicInsts));
}

std::uint64_t
traceDigest(const trace::KernelTrace &trace)
{
    Fnv1a f;
    for (const trace::BlockTrace &bt : trace.blocks) {
        f.u64(bt.blockId);
        for (const trace::WarpTrace &wt : bt.warps) {
            f.u64(wt.insts.size());
            for (const trace::TraceInst &ti : wt.insts) {
                f.u64(ti.staticIdx);
                f.u64(static_cast<std::uint64_t>(ti.active));
                f.u64((static_cast<std::uint64_t>(ti.numLines) << 17) ^
                      ti.numActive ^ (ti.arithFault ? 1ull << 40 : 0));
                const Addr *lines = wt.lines(ti);
                for (std::uint16_t l = 0; l < ti.numLines; ++l)
                    f.u64(lines[l]);
            }
        }
    }
    return f.h;
}

ArchFingerprint
fingerprint(const func::GlobalMemory &mem, const trace::KernelTrace &trace)
{
    ArchFingerprint fp;
    fp.memDigest = mem.digest();
    fp.traceDigest = traceDigest(trace);
    fp.dynamicInsts = trace.dynamicInsts();
    return fp;
}

ArchOracle::ArchOracle(std::string workload, int scale,
                       const func::GlobalMemory &mem,
                       const trace::KernelTrace &trace)
    : workload_(std::move(workload)), scale_(scale),
      ref_(fingerprint(mem, trace))
{
}

void
ArchOracle::verifyTiming(const gpu::SimResult &r,
                         const gpu::GpuConfig &cfg) const
{
    if (r.instructions == ref_.dynamicInsts)
        return;
    ErrorContext ctx;
    ctx.scheme = gpu::schemeName(cfg.scheme);
    ctx.workload = workload_;
    throw InvariantError(
        strprintf("architectural oracle: timing simulator retired %llu "
                  "instructions but the functional trace has %llu",
                  static_cast<unsigned long long>(r.instructions),
                  static_cast<unsigned long long>(ref_.dynamicInsts)),
        std::move(ctx));
}

void
ArchOracle::verifyReplay() const
{
    func::GlobalMemory mem;
    workloads::Workload wl = workloads::make(workload_, mem, scale_);
    func::FunctionalSim sim(mem);
    trace::KernelTrace replay = sim.run(wl.kernel);
    ArchFingerprint fp = fingerprint(mem, replay);
    if (fp == ref_)
        return;
    ErrorContext ctx;
    ctx.workload = workload_;
    throw InvariantError(
        strprintf("architectural oracle: functional replay diverged "
                  "from the reference execution (replay: %s; "
                  "reference: %s)",
                  fp.toString().c_str(), ref_.toString().c_str()),
        std::move(ctx));
}

} // namespace gex::check
