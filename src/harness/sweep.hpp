/**
 * @file
 * Parallel sweep engine: executes an arbitrary (workload × scheme ×
 * GpuConfig × VmPolicy) grid on a thread pool, sharing each workload's
 * one-time functional trace across all timing runs, and collects every
 * run's SimResult + StatSet into a deterministic, order-independent
 * result table with JSON export.
 *
 * Determinism: each grid point is an independent simulation on its own
 * Gpu instance over a shared read-only trace (see the thread-safety
 * contract on gpu::Gpu::run), and results land at the index their spec
 * was add()ed with — so a sweep's result table is bit-identical
 * regardless of the number of worker threads or their interleaving.
 */

#ifndef GEX_HARNESS_SWEEP_HPP
#define GEX_HARNESS_SWEEP_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "config/knob_registry.hpp"
#include "func/functional_sim.hpp"
#include "func/kernel.hpp"
#include "func/memory.hpp"
#include "gpu/config.hpp"
#include "gpu/gpu.hpp"
#include "trace/trace.hpp"
#include "vm/memory_manager.hpp"
#include "workloads/workloads.hpp"

namespace gex::harness {

/** A workload plus its one-time functional trace. */
struct TracedWorkload {
    std::string name;
    int scale = 1;
    std::unique_ptr<func::GlobalMemory> mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
};

/** Build and functionally trace the named workload (fatal if unknown). */
TracedWorkload buildTraced(const std::string &name, int scale = 1);

/**
 * Thread-safe trace cache: each (workload, scale) pair is built and
 * functionally traced exactly once, no matter how many timing runs
 * (or worker threads) request it. References stay valid for the cache's
 * lifetime.
 */
class TraceCache
{
  public:
    const TracedWorkload &get(const std::string &name, int scale = 1);

    std::size_t size() const;

  private:
    struct Entry {
        std::once_flag once;
        TracedWorkload tw;
    };

    mutable std::mutex mu_;
    std::map<std::pair<std::string, int>, std::unique_ptr<Entry>>
        entries_;
};

/** One point of a sweep grid. */
struct RunSpec {
    std::string workload;
    int scale = 1;
    gpu::GpuConfig cfg;
    vm::VmPolicy policy = vm::VmPolicy::allResident();

    /**
     * Row label in reports; defaults to the workload name. Runs that
     * should be compared against each other (normalization) share a
     * group.
     */
    std::string group;
    /** Column label in reports; defaults to schemeName(cfg.scheme). */
    std::string series;

    const std::string &groupLabel() const
    {
        return group.empty() ? workload : group;
    }
    std::string seriesLabel() const
    {
        return series.empty() ? gpu::schemeName(cfg.scheme) : series;
    }
};

/**
 * Outcome of one grid point. A failed point never kills its sweep: the
 * engine classifies the error, records it here, and moves on — summary
 * rows (geomeans, normalization) are computed over Ok points only.
 */
enum class PointStatus : std::uint8_t {
    Ok,       ///< simulation completed
    Failed,   ///< ConfigError/TraceError/unknown exception
    Livelock, ///< the forward-progress watchdog tripped
    Budget,   ///< GpuConfig::maxCycles exceeded
};

/** Canonical status name ("ok", "failed", "livelock", "budget"). */
const char *pointStatusName(PointStatus s);

/** A finished grid point: its spec, timing result and derived values. */
struct RunRecord {
    RunSpec spec;
    gpu::SimResult result;
    /**
     * Bench-computed per-run metrics (e.g. "normalized" performance
     * relative to a baseline series), included in the JSON output.
     */
    std::map<std::string, double> derived;

    PointStatus status = PointStatus::Ok;
    /** "<Kind>: <message>" plus diagnostics when status != Ok. */
    std::string error;
    /** Executions of this point (1 + retries of transient failures). */
    int attempts = 1;

    bool ok() const { return status == PointStatus::Ok; }
};

/**
 * The sweep engine proper. add() grid points, then run() them all:
 *
 *     harness::SweepEngine eng(jobs);
 *     for (const auto &w : workloads)
 *         for (auto s : schemes) {
 *             harness::RunSpec rs;
 *             rs.workload = w;
 *             rs.cfg.scheme = s;
 *             eng.add(std::move(rs));
 *         }
 *     std::vector<harness::RunRecord> runs = eng.run();
 */
class SweepEngine
{
  public:
    /** @p jobs worker threads; <= 0 means hardware concurrency. */
    explicit SweepEngine(int jobs = 1);

    /** Queue a grid point; returns its index in the result table. */
    std::size_t add(RunSpec spec);

    std::size_t size() const { return specs_.size(); }
    int jobs() const { return jobs_; }

    /**
     * Execute every queued run and return records in add() order.
     * Blocks until all runs finish. May be called repeatedly; each
     * call consumes the specs queued since the previous one. Traces
     * are cached across calls.
     *
     * Resilience contract (docs/ROBUSTNESS.md): a point that throws
     * is recorded with its classified PointStatus and error text —
     * the sweep itself always completes. Failed (but not livelocked
     * or budget-exceeded: those are deterministic) points are retried
     * up to maxRetries() times before being recorded.
     */
    std::vector<RunRecord> run();

    /** The engine's trace cache (shared across run() calls). */
    TraceCache &traces() { return cache_; }

    /** Retries for transiently-Failed points (default 1). */
    int maxRetries() const { return maxRetries_; }
    void setMaxRetries(int n) { maxRetries_ = n < 0 ? 0 : n; }

    /**
     * Attach a crash-resume journal (nullptr detaches): points already
     * journaled are restored instead of re-run, and every finished
     * point is recorded. The journal must outlive run().
     */
    void setJournal(class CampaignJournal *j) { journal_ = j; }

  private:
    int jobs_;
    int maxRetries_ = 1;
    class CampaignJournal *journal_ = nullptr;
    TraceCache cache_;
    std::vector<RunSpec> specs_;
};

/**
 * For every group, set derived["normalized"] = base.cycles / run.cycles
 * on each run, where base is the group's run in @p baseSeries (the
 * paper figures' "normalized to baseline, higher is better" metric).
 * Groups without a base run are left untouched.
 */
void normalizeToSeries(std::vector<RunRecord> &runs,
                       const std::string &baseSeries);

/** A run's group label past its workload ("/sms=16" of "lbm/sms=16"). */
std::string groupSuffix(const RunSpec &rs);

/**
 * "link=pcie,replay-queue" for suffix "/link=pcie" and series
 * "replay-queue"; the plain series when the suffix is empty.
 */
std::string geomeanKey(const std::string &suffix, const std::string &series);

/**
 * Geometric mean of derived["normalized"] per geomeanKey over the Ok
 * runs that carry it, i.e. over the workloads (fig10's per-scheme
 * GEOMEAN row). Keys with no such runs are absent.
 */
std::map<std::string, double>
seriesGeomeans(const std::vector<RunRecord> &runs);

/**
 * A complete sweep outcome: metadata + per-run records + summary
 * rows, serializable as one BENCH_*.json document (schema documented
 * in docs/METRICS.md).
 */
struct SweepReport {
    std::string name;        ///< tool name ("gexsim_sweep", ...)
    int jobs = 1;            ///< worker threads used
    double wallSeconds = 0;  ///< sweep wall-clock time
    /**
     * Omit the execution-environment fields (jobs, wall_seconds) from
     * the JSON so the document is a pure function of the grid and its
     * results. Set by the tools whenever a resume journal is in use:
     * the resume contract promises a resumed campaign's final JSON is
     * byte-identical to an uninterrupted run's at any --jobs.
     */
    bool deterministic = false;
    /**
     * The campaign's base configuration (grid axes aside), emitted as
     * the `resolved_config` provenance manifest: one member per
     * digested registry knob (config::KnobRegistry::writeManifest).
     * Feeding the manifest back through `--config` reproduces the
     * run's result-affecting state exactly. Unset: no manifest (old
     * schema).
     */
    std::optional<config::RunParams> baseConfig;
    std::vector<RunRecord> runs;
    std::map<std::string, double> geomeans; ///< per-series summary

    /** Runs with the given status. */
    std::size_t countStatus(PointStatus s) const;

    void writeJson(std::ostream &os) const;

    /** writeJson() to @p path; throws ConfigError when unwritable. */
    void saveJson(const std::string &path) const;
};

} // namespace gex::harness

#endif // GEX_HARNESS_SWEEP_HPP
