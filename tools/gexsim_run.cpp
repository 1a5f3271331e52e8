/**
 * @file
 * gexsim-run: command-line driver for the simulator. Runs a built-in
 * workload (or a .kasm file via gexsim-asm) under a chosen exception
 * scheme, paging policy and machine configuration, and prints the
 * cycle count and statistics.
 *
 *   gexsim-run --workload sgemm --scheme replay-queue \
 *              --policy demand-paging --link pcie --block-switching \
 *              --stats
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
#include <string>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

struct Options {
    std::string workload = "sgemm";
    int scale = 1;
    bool dumpStats = false;
    bool dumpCsv = false;
    bool listWorkloads = false;
    std::string jsonPath;
};

int
toolMain(int argc, char **argv)
{
    Options o;
    config::RunParams params;

    cli::ArgParser p("gexsim-run", "GPU timing simulation driver");
    p.synopsis("gexsim-run [--config spec.json] [--workload NAME] "
               "[knob flags...]");
    p.option("--workload", "NAME", "built-in workload (see --list)",
             [&](const std::string &v) { o.workload = v; }, "workload");
    p.option("--scale", "N", "workload scale factor (default 1)",
             [&](const std::string &v) {
                 o.scale = cli::parseIntFlag("--scale", v, 1, 1 << 20);
             },
             "scale");
    p.option("--json", "FILE",
             "write the run result (with its resolved_config "
             "manifest) as JSON",
             [&](const std::string &v) { o.jsonPath = v; });
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
    if (!workloads::exists(o.workload))
        fatal("unknown workload '%s' (try --list)", o.workload.c_str());

    func::GlobalMemory mem;
    auto w = workloads::make(o.workload, mem, o.scale);
    func::FunctionalSim fsim(mem);
    trace::KernelTrace tr = fsim.run(w.kernel);

    gpu::Gpu g(params.cfg);
    auto r = g.run(w.kernel, tr, params.policy);

    if (params.cfg.checkInvariants) {
        // The architectural half of --check: the in-run sanitizer
        // already proved exactly-once retirement; close the loop
        // against the functional reference (docs/VALIDATION.md).
        check::ArchOracle oracle(o.workload, o.scale, mem, tr);
        oracle.verifyTiming(r, params.cfg);
        oracle.verifyReplay();
    }

    std::printf("workload      %s (scale %d)\n", o.workload.c_str(),
                o.scale);
    std::printf("blocks        %u (%d resident per SM)\n",
                w.kernel.numBlocks(),
                gpu::blocksPerSm(params.cfg, w.kernel));
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
        jw.key("workload").value(o.workload);
        jw.key("scale").value(o.scale);
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
