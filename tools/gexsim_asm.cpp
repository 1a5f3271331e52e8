/**
 * @file
 * gexsim-asm: assemble, inspect and run .kasm kernel files.
 *
 *   gexsim-asm kernel.kasm                    # assemble + disassemble
 *   gexsim-asm kernel.kasm --run [options]    # run on the simulator
 *
 * When running, buffers are synthesized automatically: each kernel
 * parameter becomes the base of a --buffer-kb sized buffer filled with
 * a deterministic pattern, passed in parameter order. The machine
 * configuration comes from the knob registry (--scheme, --sms, ...,
 * or a --config spec file); run with --help for the full flag list.
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

int
toolMain(int argc, char **argv)
{
    std::string path;
    bool run = false, dumpStats = false;
    std::uint32_t blocks = 16, threads = 128;
    std::uint64_t bufferKb = 256;
    config::RunParams params;

    cli::ArgParser p("gexsim-asm",
                     "assemble, inspect and run .kasm kernel files");
    p.synopsis("gexsim-asm FILE.kasm [--run] [--blocks N] [--threads N] "
               "[--buffer-kb N] [knob flags...]");
    p.positional("FILE.kasm", "kernel source to assemble",
                 [&](const std::string &v) { path = v; });
    p.flag("--run", "run the kernel on the simulator after assembly",
           [&] { run = true; });
    p.option("--blocks", "N", "grid size in blocks (default 16)",
             [&](const std::string &v) {
                 blocks = static_cast<std::uint32_t>(
                     cli::parseInt("--blocks", v, 1, 1 << 20));
             },
             "blocks");
    p.option("--threads", "N", "threads per block (default 128)",
             [&](const std::string &v) {
                 threads = static_cast<std::uint32_t>(
                     cli::parseInt("--threads", v, 1, 1024));
             },
             "threads");
    p.option("--buffer-kb", "N",
             "size of each synthesized parameter buffer (default 256)",
             [&](const std::string &v) {
                 bufferKb = static_cast<std::uint64_t>(
                     cli::parseInt("--buffer-kb", v, 1, 1 << 20));
             },
             "buffer-kb");
    p.flag("--stats", "dump all statistics after the run",
           [&] { dumpStats = true; });
    p.bindKnobs(&params);
    p.parse(argc, argv);

    if (path.empty())
        fatal("a FILE.kasm argument is required (--help for usage)");

    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();

    isa::Program prog = kasm::assemble(ss.str());
    std::printf("%s", prog.disassemble().c_str());
    if (!run)
        return 0;

    func::GlobalMemory mem;
    vm::AddressSpace as;
    func::Kernel k;
    k.program = prog;
    k.grid = {blocks, 1, 1};
    k.block = {threads, 1, 1};
    Rng rng(7);
    for (int pi = 0; pi < prog.numParams(); ++pi) {
        Addr base = as.allocate(bufferKb * 1024);
        k.params.push_back(base);
        k.buffers.push_back({"param" + std::to_string(pi), base,
                             bufferKb * 1024,
                             pi == 0 ? func::BufferKind::Input
                                     : func::BufferKind::InOut});
        for (std::uint64_t i = 0; i < bufferKb * 128; ++i)
            mem.write64(base + i * 8, rng.below(1 << 16));
    }

    func::FunctionalSim fsim(mem);
    trace::KernelTrace tr = fsim.run(k);

    gpu::Gpu g(params.cfg);
    auto r = g.run(k, tr, params.policy);
    std::printf("\n%u blocks x %u threads under %s: %llu cycles, ipc "
                "%.2f\n",
                blocks, threads, gpu::schemeName(params.cfg.scheme),
                static_cast<unsigned long long>(r.cycles), r.ipc());
    if (dumpStats)
        r.stats.dump(std::cout, "  ");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gexsim-asm", [&] { return toolMain(argc, argv); });
}
