/**
 * @file
 * gexsim-run: the driver that runs one kernel — a built-in workload or
 * a .kasm file — under a chosen exception scheme, paging policy and
 * machine configuration, and prints the cycle count and statistics.
 *
 *   gexsim-run --workload sgemm --scheme replay-queue \
 *              --policy demand-paging --link pcie --block-switching \
 *              --stats
 *
 * A .kasm kernel runs on synthesized buffers: each kernel parameter
 * becomes the base of a --buffer-kb sized buffer filled with a
 * deterministic pattern, passed in parameter order. Its disassembly
 * prints before the run.
 *
 *   gexsim-run --kasm examples/kernels/dotprod.kasm --blocks 2 --stats
 *
 * --trace-out records the run's instruction-lifecycle events as a
 * Chrome-trace (Perfetto) JSON file — each SM a process, each warp a
 * track, instructions as issue→commit slices, scheme events (fetch
 * barriers, TLB checks, faults, squashes, replays, context switches)
 * as instants; load it at https://ui.perfetto.dev. --view N prints the
 * last N events as a table.
 *
 *   gexsim-run --kasm examples/kernels/vecadd.kasm --blocks 2 \
 *              --threads 256 --sms 1 --scheme replay-queue \
 *              --policy demand-paging --trace-out out.json --view 40
 *
 * Every machine/policy knob comes from the knob registry
 * (docs/CONFIGURATION.md); a JSON experiment spec does the same job
 * declaratively:
 *
 *   gexsim-run --config spec.json --workload sgemm
 *
 * Run with --help for the full flag list.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

struct Options {
    std::string workload = "sgemm";
    int scale = 1;
    std::string kasm;
    std::uint32_t blocks = 16;
    std::uint32_t threads = 128;
    std::uint64_t bufferKb = 256;
    /** The last flag given that only a workload run reads. */
    const char *workloadFlag = nullptr;
    /** The last flag given that only a --kasm run reads. */
    const char *kasmFlag = nullptr;
    bool dumpStats = false;
    bool dumpCsv = false;
    bool listWorkloads = false;
    std::string jsonPath;
    std::string traceOut;
    int view = 0;
};

/**
 * The kernel of @p o.kasm on synthesized buffers in @p mem: parameter
 * i is the base of a bufferKb-sized buffer filled from Rng(7), the
 * first an input, the rest in-out. Prints the disassembly.
 */
func::Kernel
kasmKernel(const Options &o, func::GlobalMemory &mem)
{
    std::ifstream in(o.kasm);
    if (!in)
        fatal("cannot open '%s'", o.kasm.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();

    func::Kernel k;
    k.program = kasm::assemble(ss.str());
    std::printf("%s\n", k.program.disassemble().c_str());
    k.grid = {o.blocks, 1, 1};
    k.block = {o.threads, 1, 1};
    const std::uint64_t bytes = o.bufferKb * 1024;
    vm::AddressSpace as;
    Rng rng(7);
    for (int pi = 0; pi < k.program.numParams(); ++pi) {
        Addr base = as.allocate(bytes);
        k.params.push_back(base);
        k.buffers.push_back({"param" + std::to_string(pi), base, bytes,
                             pi == 0 ? func::BufferKind::Input
                                     : func::BufferKind::InOut});
        for (std::uint64_t i = 0; i < bytes / 8; ++i)
            mem.write64(base + i * 8, rng.below(1 << 16));
    }
    return k;
}

int
toolMain(int argc, char **argv)
{
    Options o;
    config::RunParams params;

    cli::ArgParser p("gexsim-run", "GPU timing simulation driver");
    p.synopsis("gexsim-run [--config spec.json] [--workload NAME | "
               "--kasm FILE] [--trace-out FILE] [knob flags...]");
    p.option("--workload", "NAME", "built-in workload (see --list)",
             [&](const std::string &v) {
                 o.workload = v;
                 o.workloadFlag = "--workload";
             },
             "workload");
    p.option("--scale", "N", "workload scale factor (default 1)",
             [&](const std::string &v) {
                 o.scale = cli::parseIntFlag("--scale", v, 1, 1 << 20);
                 o.workloadFlag = "--scale";
             },
             "scale");
    p.option("--kasm", "FILE",
             "run a .kasm kernel file instead of a workload",
             [&](const std::string &v) { o.kasm = v; });
    p.option("--blocks", "N", "--kasm grid size in blocks (default 16)",
             [&](const std::string &v) {
                 o.blocks = static_cast<std::uint32_t>(
                     cli::parseInt("--blocks", v, 1, 1 << 20));
                 o.kasmFlag = "--blocks";
             },
             "blocks");
    p.option("--threads", "N", "--kasm threads per block (default 128)",
             [&](const std::string &v) {
                 o.threads = static_cast<std::uint32_t>(
                     cli::parseInt("--threads", v, 1, 1024));
                 o.kasmFlag = "--threads";
             },
             "threads");
    p.option("--buffer-kb", "N",
             "size of each synthesized --kasm parameter buffer "
             "(default 256)",
             [&](const std::string &v) {
                 o.bufferKb = static_cast<std::uint64_t>(
                     cli::parseInt("--buffer-kb", v, 1, 1 << 20));
                 o.kasmFlag = "--buffer-kb";
             },
             "buffer-kb");
    p.option("--json", "FILE",
             "write the run result (with its resolved_config "
             "manifest) as JSON",
             [&](const std::string &v) { o.jsonPath = v; });
    p.option("--trace-out", "FILE",
             "write the pipeline events as Chrome-trace JSON",
             [&](const std::string &v) { o.traceOut = v; });
    p.option("--view", "N", "also print the last N pipeline events",
             [&](const std::string &v) {
                 o.view = cli::parseIntFlag("--view", v, 0, 1 << 20);
             });
    p.flag("--stats", "dump all statistics",
           [&] { o.dumpStats = true; });
    p.flag("--csv", "dump statistics as CSV", [&] { o.dumpCsv = true; });
    p.flag("--list", "list built-in workloads",
           [&] { o.listWorkloads = true; });
    p.bindKnobs(&params);
    p.parse(argc, argv);

    if (o.listWorkloads) {
        for (const auto &n : workloads::allNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    if (!o.kasm.empty() && o.workloadFlag)
        fatal("--kasm cannot be combined with %s", o.workloadFlag);
    if (o.kasm.empty() && o.kasmFlag)
        fatal("%s requires --kasm", o.kasmFlag);
    if (o.kasm.empty() && !workloads::exists(o.workload))
        fatal("unknown workload '%s' (try --list)", o.workload.c_str());

    func::GlobalMemory mem;
    const func::Kernel kernel =
        o.kasm.empty() ? workloads::make(o.workload, mem, o.scale).kernel
                       : kasmKernel(o, mem);
    func::FunctionalSim fsim(mem);
    trace::KernelTrace tr = fsim.run(kernel);

    // --view's ring forwards every event to the trace writer.
    obs::ChromeTraceWriter traceWriter;
    traceWriter.setProgram(&kernel.program);
    obs::PipelineView view(static_cast<std::size_t>(o.view),
                           o.traceOut.empty() ? nullptr : &traceWriter);
    view.setProgram(&kernel.program);

    gpu::Gpu g(params.cfg);
    if (o.view > 0)
        g.setObserver(&view);
    else if (!o.traceOut.empty())
        g.setObserver(&traceWriter);
    auto r = g.run(kernel, tr, params.policy);

    if (params.cfg.checkInvariants) {
        // The architectural half of --check: the in-run sanitizer
        // already proved exactly-once retirement; close the loop
        // against the functional reference (docs/VALIDATION.md). The
        // replay rebuilds the kernel from the workload registry, so a
        // .kasm kernel skips it.
        check::ArchOracle oracle(o.kasm.empty() ? o.workload : o.kasm,
                                 o.scale, mem, tr);
        oracle.verifyTiming(r, params.cfg);
        if (o.kasm.empty())
            oracle.verifyReplay();
    }

    if (o.kasm.empty())
        std::printf("workload      %s (scale %d)\n", o.workload.c_str(),
                    o.scale);
    else
        std::printf("kernel        %s (%u threads per block)\n",
                    o.kasm.c_str(), o.threads);
    std::printf("blocks        %u (%d resident per SM)\n",
                kernel.numBlocks(), gpu::blocksPerSm(params.cfg, kernel));
    std::printf("scheme        %s\n", gpu::schemeName(params.cfg.scheme));
    std::printf("policy        %s over %s\n",
                vm::policyName(params.policy),
                params.cfg.hostLink.name.c_str());
    std::printf("cycles        %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions  %llu\n",
                static_cast<unsigned long long>(r.instructions));
    std::printf("ipc           %.3f\n", r.ipc());
    std::printf("faults        %.0f (%.0f joined)\n",
                r.stats.get("mmu.faults"),
                r.stats.get("mmu.joined_faults"));
    if (!o.traceOut.empty()) {
        std::ofstream os(o.traceOut);
        if (!os)
            fatal("cannot open '%s' for writing", o.traceOut.c_str());
        traceWriter.write(os);
        std::printf("trace         %zu events -> %s\n",
                    traceWriter.eventCount(), o.traceOut.c_str());
    }
    if (o.view > 0) {
        std::printf("\n");
        view.render(std::cout);
    }
    if (o.dumpStats) {
        std::printf("\n");
        r.stats.dump(std::cout, "  ");
    }
    if (o.dumpCsv) {
        std::printf("\n");
        r.stats.dumpCsv(std::cout);
    }
    if (!o.jsonPath.empty()) {
        std::ofstream os(o.jsonPath);
        if (!os)
            fatal("cannot open '%s' for writing", o.jsonPath.c_str());
        json::Writer jw(os);
        jw.beginObject();
        jw.key("name").value("gexsim-run");
        if (o.kasm.empty()) {
            jw.key("workload").value(o.workload);
            jw.key("scale").value(o.scale);
        } else {
            jw.key("kasm").value(o.kasm);
            jw.key("blocks").value(static_cast<std::uint64_t>(o.blocks));
            jw.key("threads").value(static_cast<std::uint64_t>(o.threads));
            jw.key("buffer_kb").value(o.bufferKb);
        }
        jw.key("resolved_config");
        config::KnobRegistry::instance().writeManifest(jw, params);
        jw.key("cycles").value(static_cast<std::uint64_t>(r.cycles));
        jw.key("instructions").value(r.instructions);
        jw.key("ipc").value(r.ipc());
        jw.key("stats");
        r.stats.writeJson(jw);
        jw.endObject();
        os << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gexsim-run",
                    [&] { return toolMain(argc, argv); });
}
