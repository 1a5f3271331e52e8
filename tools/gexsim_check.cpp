/**
 * @file
 * gexsim-check: the self-checking campaign driver (docs/VALIDATION.md).
 * Draws CounterRng-seeded random points from the case space of an
 * experiment spec (experiments/fuzz/cases.json: workloads, knob axes
 * and base keys) and executes each under all five exception schemes
 * with the invariant sanitizer armed, checking
 *
 *  - the runtime protocol/structural invariants (SimSanitizer), and
 *  - the architectural oracle (functional replay + retired-instruction
 *    coverage; every scheme retires the same traced stream).
 *
 * On the first failure the case is greedily shrunk to a minimal
 * reproducer, written as a JSON spec `gexsim-run --config FILE`
 * replays, and the driver exits with code 7 (InvariantError).
 *
 *   gexsim-check --config experiments/fuzz/cases.json --seed 1 \
 *                --cases 20 --repro repro.json
 *   gexsim-check --config experiments/fuzz/cases.json --list-cases
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

int
toolMain(int argc, char **argv)
{
    check::FuzzOptions fo;
    std::string reproPath = "gexsim-check-repro.json";
    std::string jsonPath;
    bool listCases = false;

    cli::ArgParser p("gexsim-check",
                     "differential fuzz campaigns over the simulator: "
                     "sanitizer + architectural oracle on configuration "
                     "points sampled from a spec's axes");
    p.synopsis("gexsim-check --config experiments/fuzz/cases.json "
               "[--seed N] [--cases N] [--repro FILE]");
    harness::addGridOptions(p, fo.grid);
    p.option("--seed", "N", "campaign seed (default 1)",
             [&](const std::string &v) {
                 fo.seed = static_cast<std::uint64_t>(
                     cli::parseInt("--seed", v, 0, INT64_MAX));
             });
    p.option("--cases", "N", "number of sampled cases (default 20)",
             [&](const std::string &v) {
                 fo.cases = cli::parseIntFlag("--cases", v, 1, 1 << 20);
             });
    p.option("--repro", "FILE",
             "where to write the shrunk reproducer spec on failure "
             "(default gexsim-check-repro.json)",
             [&](const std::string &v) { reproPath = v; });
    p.option("--json", "FILE", "write a campaign summary as JSON",
             [&](const std::string &v) { jsonPath = v; });
    p.flag("--list-cases",
           "print each case's axis values without running it",
           [&] { listCases = true; });
    p.bindKnobs(&fo.base);
    p.parse(argc, argv);

    check::FuzzCampaign camp(fo);

    if (listCases) {
        for (int i = 0; i < fo.cases; ++i) {
            const harness::RunSpec rs = harness::sampleGrid(
                fo.grid, fo.base, fo.seed, static_cast<std::uint64_t>(i));
            std::printf("case %3d: %s x%d %s\n", i, rs.workload.c_str(),
                        rs.scale, rs.series.c_str());
        }
        return 0;
    }

    std::printf("gexsim-check: seed %llu, %d cases x %zu schemes\n",
                static_cast<unsigned long long>(fo.seed), fo.cases,
                gpu::allSchemes().size());

    int passed = 0;
    check::FuzzFailure fail;
    const bool ok = camp.run(&fail, [&](const check::FuzzCase &c,
                                        bool caseOk) {
        std::printf("case %3llu: %-4s %s\n",
                    static_cast<unsigned long long>(c.index),
                    caseOk ? "ok" : "FAIL",
                    check::FuzzCampaign::describeCase(c).c_str());
        std::fflush(stdout);
        if (caseOk)
            ++passed;
    });

    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath);
        if (!os)
            fatal("cannot open '%s' for writing", jsonPath.c_str());
        json::Writer jw(os);
        jw.beginObject();
        jw.key("name").value("gexsim-check");
        jw.key("seed").value(static_cast<std::uint64_t>(fo.seed));
        jw.key("cases").value(fo.cases);
        jw.key("passed").value(passed);
        jw.key("ok").value(ok);
        if (!ok) {
            jw.key("failed_index")
                .value(static_cast<std::uint64_t>(fail.c.index));
            jw.key("failure_kind").value(fail.kind);
        }
        jw.endObject();
        os << "\n";
    }

    if (ok) {
        std::printf("gexsim-check: all %d cases passed\n", fo.cases);
        return 0;
    }

    std::printf("\ncase %llu failed (%s); shrinking...\n",
                static_cast<unsigned long long>(fail.c.index),
                fail.kind.c_str());
    const check::FuzzCase shrunk = camp.shrink(fail);
    const std::string spec = check::FuzzCampaign::reproSpecJson(shrunk);
    {
        std::ofstream os(reproPath);
        if (!os)
            fatal("cannot open '%s' for writing", reproPath.c_str());
        os << spec << "\n";
    }
    std::printf("minimal reproducer: %s\n",
                check::FuzzCampaign::describeCase(shrunk).c_str());
    std::printf("wrote %s; replay with:\n  gexsim-run --config %s\n",
                reproPath.c_str(), reproPath.c_str());

    // Surface the original failure through the taxonomy guard so the
    // process exits with the error's own code (7 for InvariantError).
    ErrorContext ctx;
    ctx.workload = fail.c.workload;
    ctx.scheme = gpu::schemeName(fail.c.params.cfg.scheme);
    throw InvariantError(
        strprintf("campaign case %llu failed [%s]; reproducer in %s\n%s",
                  static_cast<unsigned long long>(fail.c.index),
                  fail.kind.c_str(), reproPath.c_str(),
                  fail.message.c_str()),
        std::move(ctx));
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gexsim-check",
                    [&] { return toolMain(argc, argv); });
}
