/**
 * @file
 * gexsim-sweep: run an experiment grid on the parallel sweep engine,
 * print a normalized-performance table, and optionally export the full
 * result set — per-run stats included — as a BENCH_*.json document
 * (schema: docs/METRICS.md) carrying the campaign's resolved_config
 * manifest. The grid is a workload list times the axes of the spec
 * (docs/CONFIGURATION.md, "Grids"); every paper figure is one spec
 * under experiments/.
 *
 *   gexsim-sweep --config experiments/fig10.json --jobs 4
 *   gexsim-sweep --config experiments/faultsim-quick.json --json f.json
 *   gexsim-sweep --workloads sgemm,lbm --schemes baseline,replay-queue \
 *                --policy demand-paging --link pcie
 *
 * Run with --help for the full flag list.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "config/cli.hpp"
#include "gex.hpp"

using namespace gex;

namespace {

/**
 * One row per group and one column per series, both in grid order:
 * the base series shows cycles, every other series its normalized
 * value. A GEOMEAN row follows per group suffix.
 */
void
printTable(const std::vector<harness::RunRecord> &runs,
           const std::string &baseSeries,
           const std::map<std::string, double> &gms)
{
    std::vector<std::string> groups, series, suffixes;
    std::map<std::pair<std::string, std::string>,
             const harness::RunRecord *>
        cell;
    auto addOnce = [](std::vector<std::string> &v, const std::string &s) {
        if (std::find(v.begin(), v.end(), s) == v.end())
            v.push_back(s);
    };
    std::size_t gw = 14;
    for (const harness::RunRecord &r : runs) {
        const std::string g = r.spec.groupLabel();
        addOnce(groups, g);
        addOnce(series, r.spec.seriesLabel());
        addOnce(suffixes, harness::groupSuffix(r.spec));
        cell[{g, r.spec.seriesLabel()}] = &r;
        gw = std::max(gw, g.size());
    }
    auto width = [](const std::string &s) {
        return static_cast<int>(std::max<std::size_t>(12, s.size()));
    };

    std::printf("%-*s", static_cast<int>(gw), "benchmark");
    for (const std::string &s : series)
        std::printf(" %*s", width(s), s.c_str());
    std::printf("\n");
    for (const std::string &g : groups) {
        std::printf("%-*s", static_cast<int>(gw), g.c_str());
        for (const std::string &s : series) {
            auto it = cell.find({g, s});
            const harness::RunRecord *r =
                it == cell.end() ? nullptr : it->second;
            if (!r)
                std::printf(" %*s", width(s), "");
            else if (!r->ok())
                std::printf(" %*s", width(s),
                            harness::pointStatusName(r->status));
            else if (s == baseSeries)
                std::printf(" %*llu", width(s),
                            static_cast<unsigned long long>(
                                r->result.cycles));
            else if (r->derived.count("normalized"))
                std::printf(" %*.3f", width(s),
                            r->derived.at("normalized"));
            else
                std::printf(" %*s", width(s), "-");
        }
        std::printf("\n");
    }
    for (const std::string &suffix : suffixes) {
        std::printf("%-*s", static_cast<int>(gw),
                    ("GEOMEAN" + suffix).c_str());
        for (const std::string &s : series) {
            auto it = gms.find(harness::geomeanKey(suffix, s));
            if (s == baseSeries || it == gms.end())
                std::printf(" %*s", width(s), "");
            else
                std::printf(" %*.3f", width(s), it->second);
        }
        std::printf("\n");
    }
}

int
toolMain(int argc, char **argv)
{
    harness::GridSpec grid;
    config::RunParams params;
    std::string jsonPath, resumePath;
    int jobs = 1, retries = 1;
    bool listWorkloads = false;

    cli::ArgParser p("gexsim-sweep",
                     "parallel experiment-grid driver");
    p.synopsis("gexsim-sweep [--config spec.json] [--suite S | "
               "--workloads A,B] [--schemes A,B] [knob flags...]");
    harness::addGridOptions(p, grid);
    p.option("--jobs", "N",
             "worker threads (default 1; 0 = all cores)",
             [&](const std::string &v) {
                 jobs = cli::parseIntFlag("--jobs", v, 0, 4096);
             });
    p.option("--json", "FILE", "write the full result set as JSON",
             [&](const std::string &v) { jsonPath = v; });
    p.option("--resume", "FILE",
             "campaign journal: record every finished point there and "
             "skip points already in it (--json output is then "
             "byte-identical to an uninterrupted run at any --jobs)",
             [&](const std::string &v) { resumePath = v; });
    p.option("--retries", "N",
             "retries for transiently failed points (default 1)",
             [&](const std::string &v) {
                 retries = cli::parseIntFlag("--retries", v, 0, 100);
             },
             "retries");
    p.flag("--list", "list built-in workloads",
           [&] { listWorkloads = true; });
    p.bindKnobs(&params);
    p.parse(argc, argv);

    if (listWorkloads) {
        for (const auto &n : workloads::allNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }

    harness::Grid g = harness::expandGrid(grid, params);

    harness::SweepEngine eng(jobs);
    eng.setMaxRetries(retries);
    harness::CampaignJournal journal(resumePath);
    if (journal.active()) {
        std::size_t loaded = journal.load();
        if (loaded)
            std::printf("resume: %zu completed points in %s\n", loaded,
                        journal.path().c_str());
        eng.setJournal(&journal);
    }
    for (harness::RunSpec &rs : g.points)
        eng.add(std::move(rs));

    std::printf("sweep: %zu runs, %d jobs, normalized to %s\n",
                eng.size(), eng.jobs(), g.baseSeries.c_str());

    auto t0 = std::chrono::steady_clock::now();
    std::vector<harness::RunRecord> runs = eng.run();
    auto t1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(t1 - t0).count();

    harness::normalizeToSeries(runs, g.baseSeries);
    std::map<std::string, double> gms = harness::seriesGeomeans(runs);
    printTable(runs, g.baseSeries, gms);

    std::size_t dropped = 0;
    for (const harness::RunRecord &r : runs)
        dropped += r.ok() ? 0 : 1;
    std::printf("wall time: %.2fs (%d jobs, %zu traces)\n", wall,
                eng.jobs(), eng.traces().size());
    if (dropped)
        std::printf("note: %zu of %zu points did not complete and are "
                    "excluded from normalized columns and geomeans "
                    "(per-point status/error in the JSON export)\n",
                    dropped, runs.size());

    if (!jsonPath.empty()) {
        harness::SweepReport rep;
        rep.name = "gexsim_sweep";
        rep.jobs = eng.jobs();
        rep.wallSeconds = wall;
        rep.deterministic = journal.active();
        rep.baseConfig = params;
        rep.runs = std::move(runs);
        rep.geomeans = std::move(gms);
        rep.saveJson(jsonPath);
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gexsim-sweep",
                    [&] { return toolMain(argc, argv); });
}
