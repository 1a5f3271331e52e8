#include "check/oracle.hpp"

#include <algorithm>
#include <vector>

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

static_assert(sizeof(WarpMask) == 4,
              "traceDigest packs staticIdx and the active mask in one word");

std::uint64_t
traceDigest(const trace::KernelTrace &trace)
{
    WordHash h;
    // Each warp's stream is packed into one buffer and hashed in bulk,
    // where the hash's four lanes run in registers.
    std::vector<std::uint64_t> words;
    for (const trace::BlockTrace &bt : trace.blocks) {
        h.u64(bt.blockId);
        for (const trace::WarpTrace &wt : bt.warps) {
            std::size_t n = 1 + 2 * wt.insts.size();
            for (const trace::TraceInst &ti : wt.insts)
                n += ti.numLines;
            words.resize(n);
            std::uint64_t *o = words.data();
            *o++ = wt.insts.size();
            for (const trace::TraceInst &ti : wt.insts) {
                *o++ = std::uint64_t{ti.staticIdx} << 32 | ti.active;
                *o++ = ti.numLines | std::uint64_t{ti.numActive} << 16 |
                       std::uint64_t{ti.arithFault} << 32;
                o = std::copy_n(wt.lines(ti), ti.numLines, o);
            }
            h.u64s(words.data(), n);
        }
    }
    return h.finish();
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
    : workload_(std::move(workload)), scale_(scale), mem_(&mem),
      trace_(&trace), dynamicInsts_(trace.dynamicInsts())
{
}

const ArchFingerprint &
ArchOracle::reference() const
{
    if (!ref_)
        ref_ = fingerprint(*mem_, *trace_);
    return *ref_;
}

void
ArchOracle::verifyTiming(const gpu::SimResult &r,
                         const gpu::GpuConfig &cfg) const
{
    if (r.instructions == dynamicInsts_)
        return;
    ErrorContext ctx;
    ctx.scheme = gpu::schemeName(cfg.scheme);
    ctx.workload = workload_;
    throw InvariantError(
        strprintf("architectural oracle: timing simulator retired %llu "
                  "instructions but the functional trace has %llu",
                  static_cast<unsigned long long>(r.instructions),
                  static_cast<unsigned long long>(dynamicInsts_)),
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
    if (fp == reference())
        return;
    ErrorContext ctx;
    ctx.workload = workload_;
    throw InvariantError(
        strprintf("architectural oracle: functional replay diverged "
                  "from the reference execution (replay: %s; "
                  "reference: %s)",
                  fp.toString().c_str(), reference().toString().c_str()),
        std::move(ctx));
}

} // namespace gex::check
