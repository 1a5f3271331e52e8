/**
 * @file
 * Self-measuring simulator-throughput harness (gexsim-throughput):
 * runs a fixed grid of timing simulations, serially and then through
 * the parallel sweep engine, and reports simulated kcycles per wall
 * second against the recorded pre-optimization baseline. Then it times
 * one lbm run at 1/4/8/16 SMs (the wall clock against the SM count).
 * This is the regression gate for hot-path work on the timing loop:
 * the simulated results themselves are pinned bit-identical by the
 * golden-stats test, so the only thing allowed to move here is wall
 * time.
 *
 *     gexsim-throughput [--quick] [--jobs N] [--json FILE]
 *
 * --quick runs a 5-point subset of the grid (CI smoke; no baseline
 * comparison) and the full SM-count table, --jobs N sets sweep-engine
 * workers (0 = all cores), --json FILE writes the measurements as one
 * BENCH_throughput.json document.
 */

#include <chrono>
#include <cstdio>
#include <thread>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gex.hpp"

using namespace gex;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Serial-mode throughput of the standard grid measured on this
 * codebase immediately before the flat-container / scan-gating
 * overhaul (RelWithDebInfo -O2, single thread, traces pre-built).
 * Update only when intentionally re-baselining.
 */
constexpr double kBaselineKcyclesPerSec = 150.18;

struct Point {
    const char *workload;
    const char *scheme;
    bool demandPaging;
    int sms = 0; ///< 0: the baseline's SM count
};

/**
 * The standard grid: six workloads under the three heavyweight
 * exception schemes with everything resident, plus two demand-paging
 * points so the fault/TLB/page-walk paths contribute. Identical to
 * the grid the baseline constant was recorded on.
 */
const Point kStandardGrid[] = {
    {"bfs", "baseline", false},      {"bfs", "replay-queue", false},
    {"bfs", "operand-log", false},   {"sgemm", "baseline", false},
    {"sgemm", "replay-queue", false},{"sgemm", "operand-log", false},
    {"lbm", "baseline", false},      {"lbm", "replay-queue", false},
    {"lbm", "operand-log", false},   {"histo", "baseline", false},
    {"histo", "replay-queue", false},{"histo", "operand-log", false},
    {"sad", "baseline", false},      {"sad", "replay-queue", false},
    {"sad", "operand-log", false},   {"stencil", "baseline", false},
    {"stencil", "replay-queue", false}, {"stencil", "operand-log", false},
    {"bfs", "replay-queue", true},   {"stencil", "replay-queue", true},
};

/** CI smoke subset: one workload across schemes plus one paging point. */
const Point kQuickGrid[] = {
    {"bfs", "baseline", false},
    {"bfs", "replay-queue", false},
    {"bfs", "operand-log", false},
    {"sgemm", "baseline", false},
    {"bfs", "replay-queue", true},
};

/** One run's wall clock against the SM count. */
const Point kScalingGrid[] = {
    {"lbm", "baseline", false, 1},
    {"lbm", "baseline", false, 4},
    {"lbm", "baseline", false, 8},
    {"lbm", "baseline", false, 16},
};

struct PointResult {
    const Point *pt;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double wallSeconds = 0;
};

struct PhaseTotals {
    double wallSeconds = 0;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;

    double kcyclesPerSec() const
    {
        return wallSeconds > 0 ? cycles / wallSeconds / 1e3 : 0;
    }
    double instsPerSec() const
    {
        return wallSeconds > 0 ? instructions / wallSeconds : 0;
    }
};

gpu::GpuConfig
configFor(const Point &pt)
{
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::schemeFromName(pt.scheme);
    if (pt.sms > 0)
        cfg.numSms = pt.sms;
    return cfg;
}

vm::VmPolicy
policyFor(const Point &pt)
{
    return pt.demandPaging ? vm::VmPolicy::demandPaging()
                           : vm::VmPolicy::allResident();
}

/** One simulation per point on this thread, each individually timed. */
std::vector<PointResult>
runSerial(harness::TraceCache &cache, const Point *grid, std::size_t n,
          PhaseTotals &totals)
{
    std::vector<PointResult> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Point &pt = grid[i];
        const harness::TracedWorkload &tw = cache.get(pt.workload);
        auto t0 = Clock::now();
        gpu::Gpu g(configFor(pt));
        gpu::SimResult r = g.run(tw.kernel, tw.trace, policyFor(pt));
        auto t1 = Clock::now();

        PointResult pr;
        pr.pt = &pt;
        pr.cycles = r.cycles;
        pr.instructions = r.instructions;
        pr.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
        totals.wallSeconds += pr.wallSeconds;
        totals.cycles += pr.cycles;
        totals.instructions += pr.instructions;
        results.push_back(pr);
    }
    return results;
}

/** The same grid through the sweep engine's thread pool. */
PhaseTotals
runSweep(harness::SweepEngine &eng, const Point *grid, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const Point &pt = grid[i];
        harness::RunSpec rs;
        rs.workload = pt.workload;
        rs.cfg = configFor(pt);
        rs.policy = policyFor(pt);
        rs.series = std::string(pt.scheme) +
                    (pt.demandPaging ? "/paging" : "");
        eng.add(std::move(rs));
    }
    auto t0 = Clock::now();
    std::vector<harness::RunRecord> runs = eng.run();
    auto t1 = Clock::now();

    PhaseTotals totals;
    totals.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    for (const harness::RunRecord &rr : runs) {
        totals.cycles += rr.result.cycles;
        totals.instructions += rr.result.instructions;
    }
    return totals;
}

void
writePhase(json::Writer &w, const PhaseTotals &t)
{
    w.beginObject();
    w.key("wall_seconds").value(t.wallSeconds);
    w.key("kcycles_per_sec").value(t.kcyclesPerSec());
    w.key("insts_per_sec").value(t.instsPerSec());
    w.key("cycles").value(t.cycles);
    w.key("instructions").value(t.instructions);
    w.endObject();
}

double
kcyclesPerSec(const PointResult &pr)
{
    return pr.wallSeconds > 0 ? pr.cycles / pr.wallSeconds / 1e3 : 0.0;
}

void
writeJson(const std::string &path, bool quick, int jobs,
          const std::vector<PointResult> &points,
          const PhaseTotals &serial, const PhaseTotals &sweep,
          const std::vector<PointResult> &scaling)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open %s for writing", path.c_str());

    json::Writer w(os);
    w.beginObject();
    w.key("name").value("throughput");
    // The machine every grid point starts from (scheme/policy axes
    // are per-point, listed in "points").
    w.key("resolved_config");
    config::KnobRegistry::instance().writeManifest(
        w, config::RunParams::baseline());
    // Wall-clock context for the sweep number, which scales with
    // host cores.
    w.key("host_cpus")
        .value(static_cast<std::uint64_t>(
            std::thread::hardware_concurrency()));
    w.key("grid").value(quick ? "quick" : "standard");
    w.key("grid_points").value(static_cast<std::uint64_t>(points.size()));

    w.key("serial");
    writePhase(w, serial);
    if (!quick) {
        // The baseline was recorded on the standard grid in serial
        // mode; the quick subset has no comparable number.
        w.key("baseline_kcycles_per_sec").value(kBaselineKcyclesPerSec);
        w.key("speedup_vs_baseline")
            .value(serial.kcyclesPerSec() / kBaselineKcyclesPerSec);
    }

    w.key("sweep").beginObject();
    w.key("jobs").value(jobs);
    w.key("wall_seconds").value(sweep.wallSeconds);
    w.key("kcycles_per_sec").value(sweep.kcyclesPerSec());
    w.key("insts_per_sec").value(sweep.instsPerSec());
    w.endObject();

    w.key("points").beginArray();
    for (const PointResult &pr : points) {
        w.beginObject();
        w.key("workload").value(pr.pt->workload);
        w.key("scheme").value(pr.pt->scheme);
        w.key("policy").value(pr.pt->demandPaging ? "demand-paging"
                                                  : "all-resident");
        w.key("cycles").value(pr.cycles);
        w.key("instructions").value(pr.instructions);
        w.key("wall_seconds").value(pr.wallSeconds);
        w.key("kcycles_per_sec").value(kcyclesPerSec(pr));
        w.endObject();
    }
    w.endArray();

    w.key("scaling").beginArray();
    for (const PointResult &pr : scaling) {
        w.beginObject();
        w.key("workload").value(pr.pt->workload);
        w.key("sms").value(pr.pt->sms);
        w.key("cycles").value(pr.cycles);
        w.key("wall_seconds").value(pr.wallSeconds);
        w.key("kcycles_per_sec").value(kcyclesPerSec(pr));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::printf("[wrote %s]\n", path.c_str());
}

} // namespace

static int
toolMain(int argc, char **argv)
{
    bool quick = false;
    int jobs = 0; // sweep phase defaults to all cores
    std::string jsonPath;
    cli::ArgParser p("gexsim-throughput",
                     "simulator throughput: serial and sweep wall time "
                     "of a fixed grid, and one run against the SM count");
    p.synopsis("gexsim-throughput [--quick] [--jobs N] [--json FILE]");
    p.flag("--quick",
           "5-point grid subset (no baseline comparison); the SM-count "
           "table still runs in full",
           [&] { quick = true; });
    p.option("--jobs", "N", "sweep-engine workers (default 0 = all cores)",
             [&](const std::string &v) {
                 jobs = cli::parseIntFlag("--jobs", v, 0, 4096);
             });
    p.option("--json", "FILE", "write the measurements as JSON",
             [&](const std::string &v) { jsonPath = v; });
    p.parse(argc, argv);

    const Point *grid = quick ? kQuickGrid : kStandardGrid;
    const std::size_t n = quick ? std::size(kQuickGrid)
                                : std::size(kStandardGrid);

    // Functional tracing is one-time setup, not timing-loop work;
    // build every trace before any measured phase.
    harness::SweepEngine eng(jobs);
    for (std::size_t i = 0; i < n; ++i)
        (void)eng.traces().get(grid[i].workload);
    for (const Point &pt : kScalingGrid)
        (void)eng.traces().get(pt.workload);

    PhaseTotals serial;
    std::vector<PointResult> points =
        runSerial(eng.traces(), grid, n, serial);
    std::printf("serial  %2zu pts  wall %7.3fs  %8.2f kcycles/s  "
                "%10.0f insts/s\n",
                n, serial.wallSeconds, serial.kcyclesPerSec(),
                serial.instsPerSec());
    if (!quick)
        std::printf("        baseline %.2f kcycles/s  ->  %.2fx\n",
                    kBaselineKcyclesPerSec,
                    serial.kcyclesPerSec() / kBaselineKcyclesPerSec);

    PhaseTotals sweep = runSweep(eng, grid, n);
    std::printf("sweep   %2zu pts  wall %7.3fs  %8.2f kcycles/s  "
                "%10.0f insts/s  (jobs=%d, %u host cpus)\n",
                n, sweep.wallSeconds, sweep.kcyclesPerSec(),
                sweep.instsPerSec(), eng.jobs(),
                std::thread::hardware_concurrency());

    PhaseTotals scalingTotals;
    std::vector<PointResult> scaling =
        runSerial(eng.traces(), kScalingGrid, std::size(kScalingGrid),
                  scalingTotals);
    std::printf("\none run against the SM count (lbm, baseline scheme)\n"
                "%8s %12s %12s %14s\n",
                "SMs", "cycles", "wall s", "kcycles/s");
    for (const PointResult &pr : scaling)
        std::printf("%8d %12llu %12.3f %14.2f\n", pr.pt->sms,
                    static_cast<unsigned long long>(pr.cycles),
                    pr.wallSeconds, kcyclesPerSec(pr));

    if (!jsonPath.empty())
        writeJson(jsonPath, quick, eng.jobs(), points, serial, sweep,
                  scaling);
    return 0;
}

int
main(int argc, char **argv)
{
    return cli::run("gexsim-throughput",
                    [&] { return toolMain(argc, argv); });
}
