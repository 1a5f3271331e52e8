#include "harness/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "harness/journal.hpp"

namespace gex::harness {

TracedWorkload
buildTraced(const std::string &name, int scale)
{
    TracedWorkload tw;
    tw.name = name;
    tw.scale = scale;
    tw.mem = std::make_unique<func::GlobalMemory>();
    auto w = workloads::make(name, *tw.mem, scale);
    tw.kernel = std::move(w.kernel);
    // One worker: the sweep's jobs already occupy the cores.
    func::FunctionalSim fsim(*tw.mem, 1);
    tw.trace = fsim.run(tw.kernel);
    return tw;
}

const TracedWorkload &
TraceCache::get(const std::string &name, int scale)
{
    Entry *e;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = entries_[{name, scale}];
        if (!slot)
            slot = std::make_unique<Entry>();
        e = slot.get();
    }
    // Build outside the map lock so distinct workloads trace
    // concurrently; call_once serializes builders of the same one.
    std::call_once(e->once,
                   [&] { e->tw = buildTraced(name, scale); });
    return e->tw;
}

std::size_t
TraceCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

SweepEngine::SweepEngine(int jobs)
{
    if (jobs <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? static_cast<int>(hw) : 1;
    }
    jobs_ = jobs;
}

std::size_t
SweepEngine::add(RunSpec spec)
{
    specs_.push_back(std::move(spec));
    return specs_.size() - 1;
}

const char *
pointStatusName(PointStatus s)
{
    switch (s) {
    case PointStatus::Ok: return "ok";
    case PointStatus::Failed: return "failed";
    case PointStatus::Livelock: return "livelock";
    case PointStatus::Budget: return "budget";
    }
    return "?";
}

namespace {

/**
 * Execute one grid point, classifying any thrown error instead of
 * propagating it (docs/ROBUSTNESS.md): the record always comes back
 * filled. Failed points (ConfigError, TraceError, DeadlockError,
 * unknown exceptions — anything potentially transient or environmental)
 * are retried up to @p maxRetries times; Livelock and Budget outcomes
 * are deterministic functions of the spec and never retried.
 */
void
runOnePoint(TraceCache &cache, const RunSpec &rs, int maxRetries,
            RunRecord &rec)
{
    rec.spec = rs;
    for (int attempt = 1;; ++attempt) {
        rec.attempts = attempt;
        rec.status = PointStatus::Ok;
        rec.error.clear();
        try {
            const TracedWorkload &tw = cache.get(rs.workload, rs.scale);
            gpu::Gpu g(rs.cfg);
            rec.result = g.run(tw.kernel, tw.trace, rs.policy);
            return;
        } catch (const LivelockError &ex) {
            rec.status = PointStatus::Livelock;
            rec.error = ex.report();
        } catch (const CycleBudgetExceeded &ex) {
            rec.status = PointStatus::Budget;
            rec.error = ex.report();
        } catch (const GexError &ex) {
            rec.status = PointStatus::Failed;
            rec.error = ex.report();
        } catch (const std::exception &ex) {
            rec.status = PointStatus::Failed;
            rec.error = std::string("exception: ") + ex.what();
        }
        rec.result = gpu::SimResult{};
        if (rec.status != PointStatus::Failed || attempt > maxRetries) {
            logf(LogLevel::Warn, "grid point %s: %s (recorded, %d %s)",
                 pointKey(rs).c_str(), pointStatusName(rec.status),
                 attempt, attempt == 1 ? "attempt" : "attempts");
            return;
        }
        logf(LogLevel::Warn, "grid point %s failed (attempt %d/%d); "
             "retrying", pointKey(rs).c_str(), attempt, maxRetries + 1);
    }
}

} // namespace

std::vector<RunRecord>
SweepEngine::run()
{
    std::vector<RunSpec> specs = std::move(specs_);
    specs_.clear();

    std::vector<RunRecord> records(specs.size());
    std::atomic<std::size_t> nextIdx{0};
    std::atomic<bool> stop{false};
    std::mutex errMu;
    std::string campaignError; // journal I/O death, not a point failure

    auto worker = [&]() {
        while (!stop.load(std::memory_order_relaxed)) {
            std::size_t i = nextIdx.fetch_add(1);
            if (i >= specs.size())
                return;
            const RunSpec &rs = specs[i];
            RunRecord &rec = records[i];
            if (journal_ && journal_->lookup(rs, &rec)) {
                rec.spec = rs;
                continue;
            }
            runOnePoint(cache_, rs, maxRetries_, rec);
            // The journal write sits outside the point's own error
            // handling: an unwritable journal is campaign-level
            // trouble (the resume contract can no longer be honored),
            // not a property of this grid point.
            if (journal_) {
                try {
                    journal_->record(rec);
                } catch (const std::exception &ex) {
                    std::lock_guard<std::mutex> lock(errMu);
                    if (campaignError.empty())
                        campaignError = ex.what();
                    stop.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        }
    };

    int nthreads =
        static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(jobs_), specs.size()));
    if (nthreads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(nthreads));
        for (int t = 0; t < nthreads; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }

    if (!campaignError.empty())
        throw ConfigError("sweep journal failed: " + campaignError);
    return records;
}

void
normalizeToSeries(std::vector<RunRecord> &runs,
                  const std::string &baseSeries)
{
    std::map<std::string, double> baseCycles;
    for (const RunRecord &r : runs)
        if (r.ok() && r.spec.seriesLabel() == baseSeries)
            baseCycles[r.spec.groupLabel()] =
                static_cast<double>(r.result.cycles);
    for (RunRecord &r : runs) {
        if (!r.ok())
            continue;
        auto it = baseCycles.find(r.spec.groupLabel());
        if (it == baseCycles.end() || r.result.cycles == 0)
            continue;
        r.derived["normalized"] =
            it->second / static_cast<double>(r.result.cycles);
    }
}

std::string
groupSuffix(const RunSpec &rs)
{
    return rs.groupLabel().substr(rs.workload.size());
}

std::string
geomeanKey(const std::string &suffix, const std::string &series)
{
    return suffix.empty() ? series : suffix.substr(1) + "," + series;
}

std::map<std::string, double>
seriesGeomeans(const std::vector<RunRecord> &runs)
{
    std::map<std::string, std::vector<double>> byKey;
    for (const RunRecord &r : runs) {
        auto it = r.derived.find("normalized");
        if (r.ok() && it != r.derived.end() && it->second > 0.0)
            byKey[geomeanKey(groupSuffix(r.spec), r.spec.seriesLabel())]
                .push_back(it->second);
    }
    std::map<std::string, double> out;
    for (const auto &[key, xs] : byKey)
        out[key] = geomean(xs);
    return out;
}

std::size_t
SweepReport::countStatus(PointStatus s) const
{
    std::size_t n = 0;
    for (const RunRecord &r : runs)
        if (r.status == s)
            ++n;
    return n;
}

void
SweepReport::writeJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject();
    w.key("name").value(name);
    if (baseConfig) {
        w.key("resolved_config");
        config::KnobRegistry::instance().writeManifest(w, *baseConfig);
    }
    if (!deterministic) {
        // Execution-environment fields; omitted under the resume
        // contract so a resumed campaign's document is byte-identical
        // to an uninterrupted run's at any --jobs (docs/ROBUSTNESS.md).
        w.key("jobs").value(jobs);
        w.key("wall_seconds").value(wallSeconds);
    }
    w.key("runs").beginArray();
    for (const RunRecord &r : runs) {
        w.beginObject();
        w.key("workload").value(r.spec.workload);
        w.key("scale").value(r.spec.scale);
        w.key("group").value(r.spec.groupLabel());
        w.key("series").value(r.spec.seriesLabel());
        w.key("scheme").value(gpu::schemeName(r.spec.cfg.scheme));
        w.key("policy").value(vm::policyName(r.spec.policy));
        // Fault-injection coordinates of the run; "none"/0/seed for
        // injection-free runs, so rows of one campaign stay uniform.
        w.key("inject_model")
            .value(inject::modelName(r.spec.policy.inject.model));
        w.key("inject_rate").value(r.spec.policy.inject.rate);
        w.key("inject_seed").value(r.spec.policy.inject.seed);
        w.key("status").value(pointStatusName(r.status));
        w.key("attempts").value(r.attempts);
        w.key("error").value(r.error);
        w.key("cycles").value(
            static_cast<std::uint64_t>(r.result.cycles));
        w.key("instructions").value(r.result.instructions);
        w.key("ipc").value(r.result.ipc());
        w.key("derived").beginObject();
        for (const auto &kv : r.derived)
            w.key(kv.first).value(kv.second);
        w.endObject();
        w.key("stats");
        r.result.stats.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.key("geomeans").beginObject();
    for (const auto &kv : geomeans)
        w.key(kv.first).value(kv.second);
    w.endObject();
    w.endObject();
    os << "\n";
    GEX_ASSERT(w.complete());
}

void
SweepReport::saveJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw ConfigError(
            strprintf("cannot open '%s' for writing", path.c_str()));
    writeJson(os);
}

} // namespace gex::harness
