/**
 * @file
 * gexsim-check: the self-checking campaign driver (docs/VALIDATION.md).
 * Generates CounterRng-seeded random points in the (workload, policy,
 * fault model, machine-shape) space and executes each under all five
 * exception schemes with the invariant sanitizer armed, checking
 *
 *  - the runtime protocol/structural invariants (SimSanitizer), and
 *  - the architectural oracle (functional replay + retired-instruction
 *    coverage; every scheme retires the same traced stream).
 *
 * On the first failure the case is greedily shrunk to a minimal
 * reproducer, written as a JSON spec `gexsim-run --config FILE`
 * replays, and the driver exits with code 7 (InvariantError).
 *
 *   gexsim-check --seed 1 --cases 20 --repro repro.json
 *   gexsim-check --quick            # CI smoke: few cases, fast grid
 */

#include <cstdio>
#include <fstream>
#include <string>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

struct Options {
    std::uint64_t seed = 1;
    int cases = 20;
    std::string workloadsCsv;
    std::string reproPath = "gexsim-check-repro.json";
    std::string jsonPath;
    bool captureEvents = true;
    bool quick = false;
    bool listCases = false;
};

int
toolMain(int argc, char **argv)
{
    Options o;

    cli::ArgParser p("gexsim-check",
                     "differential fuzz campaigns over the simulator: "
                     "sanitizer + architectural oracle on random "
                     "configuration points");
    p.synopsis("gexsim-check [--seed N] [--cases N] [--quick] "
               "[--repro FILE]");
    p.option("--seed", "N", "campaign seed (default 1)",
             [&](const std::string &v) {
                 o.seed = static_cast<std::uint64_t>(
                     cli::parseInt("--seed", v, 0, INT64_MAX));
             });
    p.option("--cases", "N", "number of generated cases (default 20)",
             [&](const std::string &v) {
                 o.cases = cli::parseIntFlag("--cases", v, 1, 1 << 20);
             });
    p.option("--workloads", "A,B,...",
             "workload pool (default: a curated fast subset)",
             [&](const std::string &v) { o.workloadsCsv = v; });
    p.option("--repro", "FILE",
             "where to write the shrunk reproducer spec on failure "
             "(default gexsim-check-repro.json)",
             [&](const std::string &v) { o.reproPath = v; });
    p.option("--json", "FILE", "write a campaign summary as JSON",
             [&](const std::string &v) { o.jsonPath = v; });
    p.flag("--no-capture-events",
           "run without the last-K event ring (reports lose the "
           "event tail)",
           [&] { o.captureEvents = false; });
    p.flag("--quick", "CI smoke: 6 cases",
           [&] { o.quick = true; });
    p.flag("--list-cases",
           "print the generated cases without running them",
           [&] { o.listCases = true; });
    p.parse(argc, argv);

    if (o.quick)
        o.cases = 6;

    check::FuzzOptions fo;
    fo.seed = o.seed;
    fo.cases = o.cases;
    fo.captureEvents = o.captureEvents;
    if (!o.workloadsCsv.empty())
        fo.workloads = cli::splitCsv(o.workloadsCsv);

    check::FuzzCampaign camp(fo);

    if (o.listCases) {
        for (int i = 0; i < o.cases; ++i) {
            const check::FuzzCase c =
                camp.generate(static_cast<std::uint64_t>(i));
            std::printf("case %3d: %s\n", i,
                        check::FuzzCampaign::describeCase(c).c_str());
        }
        return 0;
    }

    std::printf("gexsim-check: seed %llu, %d cases x %zu schemes\n",
                static_cast<unsigned long long>(o.seed), o.cases,
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

    if (!o.jsonPath.empty()) {
        std::ofstream os(o.jsonPath);
        if (!os)
            fatal("cannot open '%s' for writing", o.jsonPath.c_str());
        json::Writer jw(os);
        jw.beginObject();
        jw.key("name").value("gexsim-check");
        jw.key("seed").value(static_cast<std::uint64_t>(o.seed));
        jw.key("cases").value(o.cases);
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
        std::printf("gexsim-check: all %d cases passed\n", o.cases);
        return 0;
    }

    std::printf("\ncase %llu failed (%s); shrinking...\n",
                static_cast<unsigned long long>(fail.c.index),
                fail.kind.c_str());
    const check::FuzzCase shrunk = camp.shrink(fail);
    const std::string spec = check::FuzzCampaign::reproSpecJson(shrunk);
    {
        std::ofstream os(o.reproPath);
        if (!os)
            fatal("cannot open '%s' for writing", o.reproPath.c_str());
        os << spec << "\n";
    }
    std::printf("minimal reproducer: %s\n",
                check::FuzzCampaign::describeCase(shrunk).c_str());
    std::printf("wrote %s; replay with:\n  gexsim-run --config %s\n",
                o.reproPath.c_str(), o.reproPath.c_str());

    // Surface the original failure through the taxonomy guard so the
    // process exits with the error's own code (7 for InvariantError).
    ErrorContext ctx;
    ctx.workload = fail.c.workload;
    ctx.scheme = gpu::schemeName(fail.c.params.cfg.scheme);
    throw InvariantError(
        strprintf("campaign case %llu failed [%s]; reproducer in %s\n%s",
                  static_cast<unsigned long long>(fail.c.index),
                  fail.kind.c_str(), o.reproPath.c_str(),
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
