/**
 * @file
 * Scalability study (paper section 5.5): how the scheme costs and the
 * two use cases move with the number of SMs (8/16/32), now run through
 * the parallel sweep engine with JSON export, plus a wall-clock
 * section measuring the phased SM tick engine (GpuConfig::smThreads)
 * against the serial driver at 1/4/8/16 SMs. The paper's
 * observations: scheme gaps widen when occupancy drops relative to the
 * machine; more SMs means more concurrent faults, which hurts
 * CPU-handled paging and helps GPU-local handling.
 *
 *     scal_sms [--jobs N] [--sm-threads N] [--json FILE]
 *
 * --jobs parallelizes across grid points, --sm-threads sets the
 * parallel-engine thread count of the wall-clock section (simulated
 * results are bit-identical either way; only wall time moves).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "gex.hpp"

using namespace gex;

namespace {

using Clock = std::chrono::steady_clock;

const int kSchemeSms[] = {8, 16, 32};
const int kScalingSms[] = {1, 4, 8, 16};

/** One row of the serial-vs-parallel wall-clock comparison. */
struct ScalingRow {
    int sms = 0;
    std::uint64_t cycles = 0;
    double serialWall = 0;
    double parallelWall = 0;
};

double
wallOf(const harness::TracedWorkload &tw, const gpu::GpuConfig &cfg,
       std::uint64_t &cycles_out)
{
    auto t0 = Clock::now();
    gpu::Gpu g(cfg);
    gpu::SimResult r =
        g.run(tw.kernel, tw.trace, vm::VmPolicy::allResident());
    auto t1 = Clock::now();
    cycles_out = r.cycles;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

static int
toolMain(int argc, char **argv)
{
    int jobs = 1, smThreads = 4;
    std::string jsonPath;
    cli::ArgParser p("scal_sms",
                     "SM-count scalability study and tick-engine wall "
                     "clocks");
    p.option("--jobs", "N", "worker threads (default 1; 0 = all cores)",
             [&](const std::string &v) {
                 jobs = cli::parseIntFlag("--jobs", v, 0, 4096);
             });
    p.option("--sm-threads", "N",
             "SM-tick threads of the wall-clock section (default 4)",
             [&](const std::string &v) {
                 smThreads = cli::parseIntFlag("--sm-threads", v, 1, 4096);
             });
    p.option("--json", "FILE", "write the full result set as JSON",
             [&](const std::string &v) { jsonPath = v; });
    p.parse(argc, argv);

    // --- grid 1: scheme cost vs SM count (fault-free) -------------------
    const std::vector<std::string> picks = {"lbm", "sgemm", "histo"};
    harness::SweepEngine eng(jobs);
    for (const auto &name : picks) {
        for (int n : kSchemeSms) {
            for (gpu::Scheme s :
                 {gpu::Scheme::StallOnFault, gpu::Scheme::ReplayQueue}) {
                harness::RunSpec rs;
                rs.workload = name;
                rs.cfg = gpu::GpuConfig::baseline();
                rs.cfg.numSms = n;
                rs.cfg.scheme = s;
                rs.group = name + "@" + std::to_string(n);
                eng.add(std::move(rs));
            }
        }
    }
    // --- grid 2: UC2 local-handling speedup, weak scaling ---------------
    // Constant per-SM work, so the aggregate fault rate grows with the
    // machine (the paper's point: more SMs -> more concurrent faults
    // -> more CPU/link contention for the baseline to suffer).
    for (const auto &name : {std::string("ha-prob"),
                             std::string("quad-tree")}) {
        for (int n : kSchemeSms) {
            for (bool local : {false, true}) {
                harness::RunSpec rs;
                rs.workload = name;
                rs.scale = std::max(1, n / 8);
                rs.cfg = gpu::GpuConfig::baseline();
                rs.cfg.numSms = n;
                rs.cfg.scheme = gpu::Scheme::ReplayQueue;
                rs.policy = vm::VmPolicy::heapFaults(local);
                rs.group = name + "@" + std::to_string(n);
                rs.series = local ? "uc2-local" : "uc2-cpu";
                eng.add(std::move(rs));
            }
        }
    }

    auto t0 = Clock::now();
    std::vector<harness::RunRecord> runs = eng.run();
    auto t1 = Clock::now();
    double sweepWall = std::chrono::duration<double>(t1 - t0).count();
    harness::normalizeToSeries(runs, "baseline");
    harness::normalizeToSeries(runs, "uc2-cpu");

    std::printf("=== Scalability: scheme cost vs number of SMs "
                "(fault-free, baseline/replay-queue) ===\n");
    std::printf("%-14s %8s %12s %12s\n", "benchmark", "SMs", "base cyc",
                "rq rel");
    for (const harness::RunRecord &r : runs) {
        if (r.spec.seriesLabel() != "replay-queue")
            continue;
        std::printf("%-14s %8d %12.0f %12.3f\n",
                    r.spec.workload.c_str(), r.spec.cfg.numSms,
                    static_cast<double>(r.result.cycles) *
                        (r.derived.count("normalized")
                             ? r.derived.at("normalized")
                             : 0.0),
                    r.derived.count("normalized")
                        ? r.derived.at("normalized")
                        : 0.0);
    }

    std::printf("\n=== Scalability: UC2 local handling speedup vs "
                "number of SMs (device-malloc faults, weak scaling) "
                "===\n");
    std::printf("%-14s %8s %12s\n", "benchmark", "SMs", "speedup");
    for (const harness::RunRecord &r : runs) {
        if (r.spec.seriesLabel() != "uc2-local")
            continue;
        std::printf("%-14s %8d %12.3f\n", r.spec.workload.c_str(),
                    r.spec.cfg.numSms,
                    r.derived.count("normalized")
                        ? r.derived.at("normalized")
                        : 0.0);
    }

    // --- wall clock: serial vs phased-parallel tick engine --------------
    std::printf("\n=== Wall clock: serial vs parallel tick engine "
                "(lbm, baseline scheme, sm-threads=%d, %u host cpus) "
                "===\n",
                smThreads, std::thread::hardware_concurrency());
    std::printf("%8s %12s %12s %12s %10s\n", "SMs", "cycles",
                "serial s", "parallel s", "speedup");
    std::vector<ScalingRow> scaling;
    const harness::TracedWorkload &lbm = eng.traces().get("lbm");
    for (int n : kScalingSms) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.numSms = n;
        ScalingRow row;
        row.sms = n;
        row.serialWall = wallOf(lbm, cfg, row.cycles);
        cfg.smThreads = smThreads;
        std::uint64_t par_cycles = 0;
        row.parallelWall = wallOf(lbm, cfg, par_cycles);
        if (par_cycles != row.cycles)
            fatal("parallel tick diverged at %d SMs: %llu != %llu", n,
                  static_cast<unsigned long long>(par_cycles),
                  static_cast<unsigned long long>(row.cycles));
        scaling.push_back(row);
        std::printf("%8d %12llu %12.3f %12.3f %10.2fx\n", n,
                    static_cast<unsigned long long>(row.cycles),
                    row.serialWall, row.parallelWall,
                    row.parallelWall > 0
                        ? row.serialWall / row.parallelWall
                        : 0.0);
        std::fflush(stdout);
    }
    std::printf("\npaper section 5.5: local-handling benefit grows with "
                "SM count (more concurrent faults).\n");

    if (!jsonPath.empty()) {
        std::ofstream os(jsonPath);
        if (!os)
            fatal("cannot open '%s' for writing", jsonPath.c_str());
        json::Writer w(os);
        w.beginObject();
        w.key("name").value("scal_sms");
        // The machine every grid point starts from (the swept
        // sms/scheme/policy axes are per-run fields below).
        w.key("resolved_config");
        config::KnobRegistry::instance().writeManifest(
            w, config::RunParams::baseline());
        w.key("jobs").value(eng.jobs());
        w.key("sm_threads").value(smThreads);
        w.key("host_cpus")
            .value(static_cast<std::uint64_t>(
                std::thread::hardware_concurrency()));
        w.key("wall_seconds").value(sweepWall);
        w.key("runs").beginArray();
        for (const harness::RunRecord &r : runs) {
            w.beginObject();
            w.key("workload").value(r.spec.workload);
            w.key("scale").value(r.spec.scale);
            w.key("sms").value(r.spec.cfg.numSms);
            w.key("group").value(r.spec.groupLabel());
            w.key("series").value(r.spec.seriesLabel());
            w.key("policy").value(vm::policyName(r.spec.policy));
            w.key("cycles").value(
                static_cast<std::uint64_t>(r.result.cycles));
            w.key("instructions").value(r.result.instructions);
            w.key("ipc").value(r.result.ipc());
            w.key("derived").beginObject();
            for (const auto &kv : r.derived)
                w.key(kv.first).value(kv.second);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.key("geomeans").beginObject();
        for (const auto &kv : harness::seriesGeomeans(runs))
            w.key(kv.first).value(kv.second);
        w.endObject();
        // Serial vs phased-parallel wall time of identical
        // simulations (cycles pinned equal above).
        w.key("scaling").beginArray();
        for (const ScalingRow &row : scaling) {
            w.beginObject();
            w.key("workload").value("lbm");
            w.key("sms").value(row.sms);
            w.key("cycles").value(row.cycles);
            w.key("serial_wall_seconds").value(row.serialWall);
            w.key("parallel_wall_seconds").value(row.parallelWall);
            w.key("parallel_speedup")
                .value(row.parallelWall > 0
                           ? row.serialWall / row.parallelWall
                           : 0.0);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
        GEX_ASSERT(w.complete());
        std::printf("[wrote %s]\n", jsonPath.c_str());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return cli::run("scal_sms", [&] { return toolMain(argc, argv); });
}
