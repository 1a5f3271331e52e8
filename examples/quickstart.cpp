/**
 * @file
 * Quickstart: build a kernel with the KernelBuilder API, execute it on
 * the functional simulator, then time it on the GPU model under every
 * exception handling scheme.
 *
 *     ./examples/quickstart
 */

#include <cstdio>

#include "gex.hpp"

using namespace gex;

int
main()
{
    // --- 1. Write a kernel: out[i] = a[i] * b[i] + 1.0 --------------
    kasm::KernelBuilder b("saxpyish");
    b.setNumParams(3);
    b.s2r(0, isa::SpecialReg::GlobalTid);
    b.ldparam(1, 0); // a
    b.ldparam(2, 1); // b
    b.ldparam(3, 2); // out
    b.shli(4, 0, 3); // byte offset
    b.iadd(5, 1, 4);
    b.ldGlobal(6, 5); // a[i]
    b.iadd(5, 2, 4);
    b.ldGlobal(7, 5); // b[i]
    b.fmul(8, 6, 7);
    b.faddi(8, 8, 1.0);
    b.iadd(5, 3, 4);
    b.stGlobal(5, 0, 8);
    b.exit();
    isa::Program prog = b.build();
    std::printf("--- kernel ---\n%s\n", prog.disassemble().c_str());

    // --- 2. Lay out memory and launch geometry ----------------------
    func::GlobalMemory mem;
    vm::AddressSpace as;
    const std::uint32_t blocks = 64, threads = 256;
    const std::uint64_t n = static_cast<std::uint64_t>(blocks) * threads;

    func::Kernel k;
    k.program = prog;
    k.grid = {blocks, 1, 1};
    k.block = {threads, 1, 1};
    Addr a = as.allocate(n * 8), bb = as.allocate(n * 8),
         out = as.allocate(n * 8);
    k.params = {a, bb, out};
    k.buffers = {{"a", a, n * 8, func::BufferKind::Input},
                 {"b", bb, n * 8, func::BufferKind::Input},
                 {"out", out, n * 8, func::BufferKind::Output}};
    for (std::uint64_t i = 0; i < n; ++i) {
        mem.writeF64(a + i * 8, 0.5);
        mem.writeF64(bb + i * 8, static_cast<double>(i % 7));
    }

    // --- 3. Functional execution -> dynamic trace -------------------
    func::FunctionalSim fsim(mem);
    trace::KernelTrace tr = fsim.run(k);
    std::printf("functional: %llu warp instructions, %llu memory "
                "instructions, out[5] = %.1f\n\n",
                static_cast<unsigned long long>(tr.dynamicInsts()),
                static_cast<unsigned long long>(tr.memInsts),
                mem.readF64(out + 5 * 8));

    // --- 4. Timing simulation under each exception scheme -----------
    std::printf("--- timing (fault-free) ---\n");
    double base = 0;
    for (auto s : {gpu::Scheme::StallOnFault, gpu::Scheme::WarpDisableCommit,
                   gpu::Scheme::WarpDisableLastCheck,
                   gpu::Scheme::ReplayQueue, gpu::Scheme::OperandLog}) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = s;
        gpu::Gpu g(cfg);
        auto r = g.run(k, tr);
        if (s == gpu::Scheme::StallOnFault)
            base = static_cast<double>(r.cycles);
        std::printf("%-14s %8llu cycles  ipc %5.2f  relative %.3f\n",
                    gpu::schemeName(s),
                    static_cast<unsigned long long>(r.cycles), r.ipc(),
                    base / static_cast<double>(r.cycles));
    }

    // --- 5. The same kernel with demand paging ----------------------
    std::printf("\n--- demand paging (inputs start on the CPU) ---\n");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue;
    gpu::Gpu g(cfg);
    auto r = g.run(k, tr, vm::VmPolicy::demandPaging());
    std::printf("cycles %llu, migrations %.0f, data moved %.0f KB\n",
                static_cast<unsigned long long>(r.cycles),
                r.stats.get("mmu.migration_faults"),
                r.stats.get("hostlink.bytes_migrated") / 1024.0);
    return 0;
}
