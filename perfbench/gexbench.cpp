/**
 * @file
 * gexbench: the simulator's benchmark driver (perfbench/README.md).
 *
 *   gexbench --workload resident|paging|checked-run|campaign
 *            [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
 *            [--wrong-pin] [--print-pins] [--setup-only]
 *            [--launched-at NS]
 *
 * One op is one round over the workload's fixed point list; only the
 * order of the points changes between rounds (shuffled by --seed).
 * Ops repeat until --seconds have been measured. Every simulated
 * result is checked: cycles, instructions and a digest over the full
 * StatSet against the values pinned below, and the architectural
 * oracle's instruction count. A wrong result fails its op.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 repeats the ops
 * with spans around every library call, then runs one pass per point
 * that times Gpu::run at the other SM-thread count, with --check
 * toggled and with a counting pipeline observer, and prints the
 * per-layer metrics. Spans are written to DIR/gexbench-<workload>-
 * spans.json; the campaign journal and sweep reports also go to DIR.
 * The last line of stdout is one JSON object with the keys correct,
 * attempted, failed and metrics. Exit status: 0 when every op was
 * correct, 1 when one failed, 2 on bad arguments.
 *
 * setup_s runs from --launched-at (CLOCK_MONOTONIC ns, stamped by the
 * launcher so process start-up counts) or from main to the first op.
 * --setup-only prints it and exits there; run.py reports the median
 * over several launches. --wrong-pin perturbs one pinned value (the
 * self-test's proof that a wrong result fails its op); --print-pins
 * prints every result in the pin table's format.
 */

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "gex.hpp"

using namespace gex;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------
// Points and their pinned results
// --------------------------------------------------------------------

/** Cycles, instructions and StatSet digest of one simulation. */
struct Pin {
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t digest = 0;

    bool operator==(const Pin &) const = default;
};

/** One simulation of a round. */
struct Point {
    const char *workload;
    int scale;
    const char *scheme;
    /** vm::policyFromName preset. */
    const char *policy;
    bool blockSwitching;
    /** Bernoulli injection rate (0: none); its seed is --seed. */
    double injectRate;
    /** Result at every seed, or at kDefaultSeed when injectRate > 0. */
    Pin pin;
};

enum class Kind {
    Prebuilt,   ///< traces built in setup; an op is Gpu::run per point
    CheckedRun, ///< an op is gexsim-run --check per point, cold
    Campaign,   ///< an op is a fresh SweepEngine over the grid
};

struct WorkloadDef {
    const char *name;
    Kind kind;
    std::vector<Point> points;
};

/** The campaign grid: six workloads x three schemes, all resident. */
std::vector<Point>
campaignPoints()
{
    static const char *const kWorkloads[6] = {"bfs",     "sgemm", "lbm",
                                              "ha-prob", "mri-q", "histo"};
    static const char *const kSchemes[3] = {"baseline", "replay-queue",
                                            "operand-log"};
    static const Pin kPins[6][3] = {
        {{15338, 50994, 0x1935f1c9fb129810ull},
         {15468, 50994, 0x360532fe14697848ull},
         {15989, 50994, 0x98748b7a4f332beeull}},
        {{19441, 287232, 0x11e3def4164c7b8cull},
         {19441, 287232, 0x11e3def4164c7b8cull},
         {19358, 287232, 0x23c858b41dd977c5ull}},
        {{19166, 116736, 0x50a108ea2914cc3bull},
         {49258, 116736, 0x2bd10ec06f33863aull},
         {19166, 116736, 0x93d2bdbb979ec353ull}},
        {{30883, 32064, 0xd77842373e5c7cb8ull},
         {30883, 32064, 0xd77842373e5c7cb8ull},
         {30751, 32064, 0x9662912a68e26728ull}},
        {{13048, 175104, 0x06d93e285184a6cbull},
         {13048, 175104, 0x06d93e285184a6cbull},
         {13120, 175104, 0xec2099e80709210full}},
        {{99054, 48384, 0xdc0ae95f8a1dc0d8ull},
         {99054, 48384, 0xdc0ae95f8a1dc0d8ull},
         {109870, 48384, 0xb70efd0f4a462f0aull}},
    };
    std::vector<Point> pts;
    for (int w = 0; w < 6; ++w)
        for (int s = 0; s < 3; ++s)
            pts.push_back({kWorkloads[w], 1, kSchemes[s], "resident", false,
                           0, kPins[w][s]});
    return pts;
}

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        // All five schemes fault-free: SM fetch/issue scans and the
        // L1/L2/DRAM path; the VM fault path, check and harness idle.
        {"resident", Kind::Prebuilt,
         {
             {"sgemm", 1, "baseline", "resident", false, 0,
              {19441, 287232, 0x11e3def4164c7b8cull}},
             {"bfs", 1, "replay-queue", "resident", false, 0,
              {15468, 50994, 0x360532fe14697848ull}},
             {"lbm", 1, "operand-log", "resident", false, 0,
              {19166, 116736, 0x93d2bdbb979ec353ull}},
             {"mri-q", 1, "wd-lastcheck", "resident", false, 0,
              {14841, 175104, 0xb2f880362d24296eull}},
             {"ha-prob", 1, "wd-commit", "resident", false, 0,
              {31042, 32064, 0xd71089b518c0cabfull}},
             {"tpacf", 1, "baseline", "resident", false, 0,
              {119106, 260608, 0xf470094fb92f4b94ull}},
         }},
        // The same SM code with most warps fault-blocked: event queue,
        // TLBs and walks, host link, UC1 context switch, UC2 handler
        // and fault injection carry the load.
        {"paging", Kind::Prebuilt,
         {
             {"bfs", 1, "replay-queue", "demand-paging", false, 0,
              {146874, 50994, 0xe73334ce5390b7d2ull}},
             {"lbm", 1, "wd-lastcheck", "demand-paging", false, 0,
              {380890, 116736, 0x89409fc81d237f33ull}},
             {"histo", 3, "replay-queue", "demand-paging", true, 0,
              {750952, 145152, 0xf097ae33441acc0aull}},
             {"ha-prob", 1, "replay-queue", "heap-faults-local", false, 0,
              {71101, 32064, 0xf9f2c1edc0af6bfaull}},
             {"stencil", 1, "replay-queue", "output-faults-local", false,
              0, {411997, 176640, 0x3ce98445f903fd70ull}},
             {"sad", 1, "operand-log", "resident", false, 0.05,
              {236944, 55296, 0x9d0f35abaa3bfadeull}},
         }},
        // What one `gexsim-run --check --sm-threads N` pays, cold:
        // make, trace, phased tick with the sanitizer, the oracle.
        {"checked-run", Kind::CheckedRun,
         {
             {"sgemm", 1, "baseline", "resident", false, 0,
              {19441, 287232, 0x11e3def4164c7b8cull}},
             {"stencil", 1, "replay-queue", "resident", false, 0,
              {92066, 176640, 0x636bed19b5144268ull}},
         }},
        // The harness: worker pool, trace cache, journal, report.
        {"campaign", Kind::Campaign, campaignPoints()},
    };
    return defs;
}

std::string
pointLabel(const Point &p)
{
    std::string s = p.workload;
    if (p.scale != 1)
        s += "@" + std::to_string(p.scale);
    s += "/" + std::string(p.scheme) + "/" + p.policy;
    if (p.blockSwitching)
        s += "+switch";
    if (p.injectRate > 0)
        s += "+inject";
    return s;
}

gpu::GpuConfig
configFor(const Point &p, int smThreads, bool check)
{
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::schemeFromName(p.scheme);
    cfg.blockSwitching = p.blockSwitching;
    cfg.smThreads = smThreads;
    cfg.checkInvariants = check;
    return cfg;
}

vm::VmPolicy
policyFor(const Point &p, std::uint64_t seed)
{
    vm::VmPolicy pol = vm::policyFromName(p.policy);
    if (p.injectRate > 0) {
        pol.inject.model = inject::ModelKind::Bernoulli;
        pol.inject.rate = p.injectRate;
        pol.inject.seed = seed;
    }
    return pol;
}

/** FNV-1a over every statistic's name and raw value bits, in order. */
std::uint64_t
digestStats(const StatSet &stats)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &kv : stats.scalars()) {
        mix(kv.first.data(), kv.first.size());
        double v = kv.second;
        mix(&v, sizeof v);
    }
    return h;
}

Pin
pinOf(const gpu::SimResult &r)
{
    return {r.cycles, r.instructions, digestStats(r.stats)};
}

std::string
pinText(const Pin &p)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "{%" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
                  "ull}", p.cycles, p.insts, p.digest);
    return buf;
}

/**
 * The output check. Seed-independent points must match their pin at
 * every seed; an injected point matches its pin at kDefaultSeed and,
 * at other seeds, the first result this process saw for it.
 */
class Verifier
{
  public:
    /** @p wrongLabel names the point whose pin --wrong-pin perturbs. */
    Verifier(std::uint64_t seed, std::string wrongLabel, bool printPins)
        : seed_(seed), wrongLabel_(std::move(wrongLabel)),
          printPins_(printPins)
    {}

    /** Empty when @p r is right for @p p, else what differs. */
    std::string
    check(const Point &p, const gpu::SimResult &r)
    {
        const std::string label = pointLabel(p);
        const Pin got = pinOf(r);
        if (printPins_ && printed_.insert(label).second)
            std::printf("pin %-40s %s\n", label.c_str(),
                        pinText(got).c_str());
        Pin want = p.pin;
        if (p.injectRate > 0 && seed_ != kDefaultSeed) {
            auto it = firstSeen_.emplace(label, got).first;
            want = it->second;
        } else if (label == wrongLabel_) {
            want.cycles += 1;
        }
        if (got == want)
            return {};
        return label + ": got " + pinText(got) + ", pinned " +
               pinText(want);
    }

  private:
    std::uint64_t seed_;
    std::string wrongLabel_;
    bool printPins_;
    std::map<std::string, Pin> firstSeen_;
    std::set<std::string> printed_;
};

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

struct Span {
    const char *name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int op = -1;
};

/**
 * In-memory span recorder. Disabled, scope() costs one branch. Spans
 * nest by a stack; each carries the id of the op (round) it belongs
 * to, so per-round and self times can be derived afterwards.
 */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *t, int id) : t_(t), id_(id) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope()
        {
            if (t_)
                t_->close(id_);
        }

      private:
        Tracer *t_;
        int id_;
    };

    Tracer() { spans_.reserve(4096); }

    bool enabled = false;
    /** Op id stamped on new spans. */
    int op = -1;

    Scope
    scope(const char *name)
    {
        if (!enabled)
            return Scope(nullptr, -1);
        Span s;
        s.name = name;
        s.start = since(t0_);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.op = op;
        spans_.push_back(s);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return Scope(this, stack_.back());
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = since(t0_);
        stack_.pop_back();
    }

    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// --------------------------------------------------------------------
// Per-round layer counts from SimResult::stats
// --------------------------------------------------------------------

/** obs.events.<kind> counter: one per PipeEventKind. */
class CountingObserver : public obs::PipelineObserver
{
  public:
    void
    event(const obs::PipeEvent &e) override
    {
        ++counts[static_cast<std::size_t>(e.kind)];
    }

    std::array<std::uint64_t, obs::kNumPipeEventKinds> counts{};
};

struct LayerCounts {
    double cycles = 0;
    double insts = 0;
    StatSet stats; ///< summed over the round's simulations

    void
    add(const gpu::SimResult &r)
    {
        cycles += static_cast<double>(r.cycles);
        insts += static_cast<double>(r.instructions);
        stats.merge(r.stats);
    }
};

// --------------------------------------------------------------------
// The benchmark
// --------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";
    bool wrongPin = false;
    bool printPins = false;
    bool setupOnly = false;
    /** When the process was launched: --launched-at, else main entry. */
    Clock::time_point launched = Clock::now();
};

int
hostCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A point's traced workload and its architectural oracle. */
struct Built {
    std::unique_ptr<func::GlobalMemory> mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
    std::unique_ptr<check::ArchOracle> oracle;
};

class Bench
{
  public:
    Bench(const Options &o, const WorkloadDef &def)
        : o_(o), def_(def), points_(def.points),
          verifier_(o.seed, o.wrongPin ? pointLabel(points_.front()) : "",
                    o.printPins),
          rng_(o.seed)
    {
        cpus_ = hostCpus();
        wideThreads_ = std::min(4, cpus_);
        // Effective thread counts after Gpu::run's clamp to the SM
        // count and the host's cores.
        const int numSms = gpu::GpuConfig::baseline().numSms;
        opThreads_ = def.kind == Kind::CheckedRun ? wideThreads_ : 1;
        opThreads_ = std::min(opThreads_, numSms);
        jobs_ = def.kind == Kind::Campaign ? wideThreads_ : 1;
        journalPath_ = o.outDir + "/gexbench-campaign.journal";
        reportPath_ = o.outDir + "/gexbench-" + def.name + "-report.json";
    }

    int run();

  private:
    bool check() const { return def_.kind == Kind::CheckedRun; }

    std::vector<std::size_t>
    shuffledOrder()
    {
        std::vector<std::size_t> idx(points_.size());
        for (std::size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        for (std::size_t i = idx.size(); i > 1; --i)
            std::swap(idx[i - 1], idx[rng_() % i]);
        return idx;
    }

    Built
    build(const Point &p)
    {
        Built b;
        b.mem = std::make_unique<func::GlobalMemory>();
        {
            auto s = tracer_.scope("workloads.make");
            b.kernel = workloads::make(p.workload, *b.mem, p.scale).kernel;
        }
        {
            auto s = tracer_.scope("func.trace");
            func::FunctionalSim fsim(*b.mem);
            b.trace = fsim.run(b.kernel);
        }
        auto s = tracer_.scope("check.oracle");
        b.oracle = std::make_unique<check::ArchOracle>(
            p.workload, p.scale, *b.mem, b.trace);
        return b;
    }

    gpu::SimResult
    simulate(const Point &p, const Built &b, int threads, bool chk,
             obs::PipelineObserver *observer = nullptr)
    {
        const gpu::GpuConfig cfg = configFor(p, threads, chk);
        std::unique_ptr<gpu::Gpu> g;
        {
            auto s = tracer_.scope("gpu.construct");
            g = std::make_unique<gpu::Gpu>(cfg);
        }
        g->setObserver(observer);
        auto s = tracer_.scope("gpu.run");
        return g->run(b.kernel, b.trace, policyFor(p, o_.seed));
    }

    void
    verifyTiming(const Point &p, const Built &b, const gpu::SimResult &r,
                 int threads, bool chk)
    {
        auto s = tracer_.scope("check.verify_timing");
        b.oracle->verifyTiming(r, configFor(p, threads, chk));
    }

    /** Setup: everything before the first timed op. */
    void setup();
    /** One op; returns the round's results in point order. */
    std::vector<gpu::SimResult> op();
    /** Check an op's results; throws std::runtime_error when wrong. */
    void verify(const std::vector<gpu::SimResult> &results);
    /** Per-point passes for the traced mode's ratios and counts. */
    void passes();
    void harnessPass();

    /** A finished sweep; records in point order. */
    struct Swept {
        std::unique_ptr<harness::SweepEngine> engine;
        std::vector<harness::RunRecord> records;
    };
    /**
     * Add the points in @p order to a fresh SweepEngine, run it and
     * save its SweepReport; throws when a point did not finish ok.
     */
    Swept sweep(const std::vector<std::size_t> &order, int jobs,
                harness::CampaignJournal *journal);

    void printHost() const;
    int finish(const std::vector<double> &opSeconds, double opInsts,
               double setupSeconds);
    int finishTraced(double tracedIps, double untracedIps);
    void writeSpans() const;

    const Options &o_;
    const WorkloadDef &def_;
    const std::vector<Point> &points_;
    Tracer tracer_;
    Verifier verifier_;
    std::mt19937_64 rng_;
    int cpus_ = 1;
    int wideThreads_ = 1;
    int opThreads_ = 1;
    int jobs_ = 1;
    std::string journalPath_;
    std::string reportPath_;

    std::vector<Built> built_; ///< Prebuilt: one per point
    int attempted_ = 0;
    int failed_ = 0;
    int nextOp_ = 0;

    // Traced mode.
    LayerCounts round_;
    std::map<std::string, double> passSeconds_;
    CountingObserver counter_;
    double sweepSeconds_ = 0;
    double sweepPoints_ = 0;
};

void
Bench::setup()
{
    // Prebuilt workloads build and trace every point here, so their
    // setup is the trace build. The cold workloads pay that inside
    // each op; before their first op there is only process start-up.
    tracer_.op = nextOp_++;
    if (def_.kind == Kind::Prebuilt)
        for (const Point &p : points_)
            built_.push_back(build(p));
}

std::vector<gpu::SimResult>
Bench::op()
{
    std::vector<gpu::SimResult> results(points_.size());
    const std::vector<std::size_t> order = shuffledOrder();
    auto root = tracer_.scope("bench.op");

    if (def_.kind == Kind::Prebuilt) {
        for (std::size_t i : order)
            results[i] = simulate(points_[i], built_[i], opThreads_, false);
        return results;
    }

    if (def_.kind == Kind::CheckedRun) {
        // gexsim-run --check: build, trace, run, oracle, result JSON.
        for (std::size_t i : order) {
            const Point &p = points_[i];
            Built b = build(p);
            results[i] = simulate(p, b, opThreads_, true);
            verifyTiming(p, b, results[i], opThreads_, true);
            {
                auto s = tracer_.scope("check.verify_replay");
                b.oracle->verifyReplay();
            }
            const std::string json = results[i].toJson();
            if (json.empty())
                throw std::runtime_error("empty result JSON");
        }
        return results;
    }

    // Campaign: a fresh engine and journal every op.
    std::filesystem::remove(journalPath_);
    harness::CampaignJournal journal(journalPath_);
    const Swept sw = sweep(order, jobs_, &journal);
    // Oracles over the engine's own traces (cache hits, no rebuild).
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const harness::RunRecord &rec = sw.records[i];
        const harness::TracedWorkload &tw =
            sw.engine->traces().get(rec.spec.workload, rec.spec.scale);
        auto s = tracer_.scope("check.verify_timing");
        check::ArchOracle(tw.name, tw.scale, *tw.mem, tw.trace)
            .verifyTiming(rec.result, rec.spec.cfg);
        results[i] = rec.result;
    }
    return results;
}

Bench::Swept
Bench::sweep(const std::vector<std::size_t> &order, int jobs,
             harness::CampaignJournal *journal)
{
    Swept sw;
    sw.engine = std::make_unique<harness::SweepEngine>(jobs);
    sw.engine->setJournal(journal);
    std::vector<std::size_t> slot(points_.size());
    for (std::size_t i : order) {
        harness::RunSpec rs;
        rs.workload = points_[i].workload;
        rs.scale = points_[i].scale;
        rs.cfg = configFor(points_[i], 1, false);
        rs.policy = policyFor(points_[i], o_.seed);
        slot[i] = sw.engine->add(std::move(rs));
    }
    harness::SweepReport rep;
    rep.name = std::string("gexbench-") + def_.name;
    rep.jobs = sw.engine->jobs();
    {
        auto s = tracer_.scope("harness.sweep");
        const auto t = Clock::now();
        rep.runs = sw.engine->run();
        rep.wallSeconds = since(t);
        sweepSeconds_ += rep.wallSeconds;
        sweepPoints_ += static_cast<double>(rep.runs.size());
    }
    {
        auto s = tracer_.scope("harness.report");
        rep.saveJson(reportPath_);
    }
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const harness::RunRecord &rec = rep.runs[slot[i]];
        if (!rec.ok())
            throw std::runtime_error(pointLabel(points_[i]) + ": " +
                                     rec.error);
        sw.records.push_back(rec);
    }
    return sw;
}

void
Bench::verify(const std::vector<gpu::SimResult> &results)
{
    std::string errors;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        if (def_.kind == Kind::Prebuilt)
            verifyTiming(points_[i], built_[i], results[i], opThreads_,
                         false);
        const std::string err = verifier_.check(points_[i], results[i]);
        if (!err.empty())
            errors += (errors.empty() ? "" : "; ") + err;
    }
    if (!errors.empty())
        throw std::runtime_error(errors);
}

void
Bench::passes()
{
    // One pass over the points. Per point, Gpu::run is timed back to
    // back in the op's configuration (base), at the other SM-thread
    // count, with --check toggled, and with a counting observer
    // attached, so each ratio compares runs made moments apart. Only
    // the campaign records spans here: the engine hides make, trace
    // and Gpu::run inside SweepEngine::run, so building and running
    // each point under spans gives the campaign its per-layer
    // decomposition.
    const bool decompose = def_.kind == Kind::Campaign;
    tracer_.op = nextOp_++;
    tracer_.enabled = decompose;
    const int otherThreads = opThreads_ == 1 ? wideThreads_ : 1;
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const Point &p = points_[i];
        Built local;
        if (def_.kind != Kind::Prebuilt)
            local = build(p);
        const Built &b = def_.kind == Kind::Prebuilt ? built_[i] : local;
        auto timed = [&](const char *key, int threads, bool chk,
                         obs::PipelineObserver *observer) {
            const bool was = tracer_.enabled;
            tracer_.enabled = was && std::strcmp(key, "base") == 0;
            const auto t = Clock::now();
            gpu::SimResult r = simulate(p, b, threads, chk, observer);
            passSeconds_[key] += since(t);
            tracer_.enabled = was;
            b.oracle->verifyTiming(r, configFor(p, threads, chk));
            const std::string err = verifier_.check(p, r);
            if (!err.empty())
                throw std::runtime_error(std::string(key) + " pass: " + err);
            return r;
        };
        const gpu::SimResult base = timed("base", opThreads_, check(),
                                          nullptr);
        if (decompose)
            round_.add(base);
        timed("threads", otherThreads, check(), nullptr);
        timed("check", opThreads_, !check(), nullptr);
        timed("observer", opThreads_, check(), &counter_);
    }
}

void
Bench::harnessPass()
{
    // The cold and prebuilt workloads never touch the harness in their
    // ops; this pass runs their point list once through a SweepEngine
    // and SweepReport so the harness metrics have a value on every
    // workload. Campaign ops already measure the harness.
    tracer_.op = nextOp_++;
    auto root = tracer_.scope("bench.harness_pass");
    std::vector<std::size_t> order(points_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    const Swept sw = sweep(order, wideThreads_, nullptr);
    for (std::size_t i = 0; i < points_.size(); ++i) {
        const std::string err = verifier_.check(points_[i],
                                                sw.records[i].result);
        if (!err.empty())
            throw std::runtime_error("harness pass: " + err);
    }
}

void
Bench::printHost() const
{
    std::printf("gexbench workload=%s seed=%" PRIu64 " mode=%s\n",
                def_.name, o_.seed, o_.trace ? "traced" : "timed");
    std::printf("host nproc=%d build=%s compiler=%s\n", cpus_,
                GEXBENCH_BUILD_TYPE, GEXBENCH_COMPILER);
    std::printf("threads sm_threads=%d jobs=%d (in effect, after the "
                "clamp to SMs and cores)\n",
                opThreads_, jobs_);
    std::printf("points %zu per op:", points_.size());
    for (const Point &p : points_)
        std::printf(" %s", pointLabel(p).c_str());
    std::printf("\n");
}

/** Number formatting that keeps every digit of a measured value. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** @p a / @p b, or 0 when nothing was measured (a failed run). */
double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, int attempted, int failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("metric %-28s %s %s\n", m.name.c_str(),
                    num(m.value).c_str(), m.unit.c_str());
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
                "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

int
Bench::finish(const std::vector<double> &opSeconds, double opInsts,
              double setupSeconds)
{
    std::vector<double> sorted = opSeconds;
    std::sort(sorted.begin(), sorted.end());
    const int n = static_cast<int>(sorted.size());
    double total = 0;
    for (double s : sorted)
        total += s;
    // p90 by nearest rank, rank ceil(0.9 n). A run holds 7 to 17 ops,
    // too few for any percentile above the median to have ten ops
    // beyond it, so the count beyond is printed to show the tail's
    // support. Asking for ten beyond would leave p0 at ten ops or
    // fewer, which reads the host's fastest moments, not a tail.
    const int q = 90;
    const int rank = std::max(1, (q * n + 99) / 100);
    const double tail = n ? sorted[static_cast<std::size_t>(rank - 1)] : 0;
    std::printf("ops %d timed (%d attempted, %d failed); percentiles are "
                "over these %d identical ops\n",
                n, attempted_, failed_, n);
    std::printf("op_tail_s is p%d over %d ops (%d ops beyond it)\n", q, n,
                n - rank);
    std::printf("error_ratio %s 1 (failed / attempted ops)\n",
                num(ratio(failed_, attempted_)).c_str());
    printResult(failed_ == 0, attempted_, failed_,
                {{"sim_insts_per_s", ratio(opInsts, total),
                  "warp-insts/s"},
                 {"op_p50_s", median(sorted), "s"},
                 {"op_tail_s", tail, "s"},
                 {"setup_s", setupSeconds, "s"},
                 {"peak_rss_mb", peakRssMb(), "MB"}});
    return failed_ == 0 ? 0 : 1;
}

int
Bench::finishTraced(double tracedIps, double untracedIps)
{
    // Per-round span totals: a span name's summed duration divided by
    // the number of rounds (op ids) it occurred in.
    std::map<std::string, double> total;
    std::map<std::string, std::set<int>> rounds;
    std::map<std::string, double> self; // per layer
    const auto &spans = tracer_.spans();
    std::vector<double> childTime(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const double d = s.end - s.start;
        total[s.name] += d;
        rounds[s.name].insert(s.op);
        std::string layer = s.name;
        layer = layer.substr(0, layer.find('.'));
        self[layer] += d - childTime[i];
    }
    auto perRound = [&](const char *name) {
        auto it = total.find(name);
        return it == total.end()
                   ? 0.0
                   : it->second / static_cast<double>(rounds[name].size());
    };
    for (const auto &kv : self)
        std::printf("self %-12s %s s over the whole traced run\n",
                    kv.first.c_str(), num(kv.second).c_str());

    // Ratios from the passes: 1-thread over N-thread time, and time
    // with --check over time without.
    const double base = passSeconds_["base"];
    const double threadsSpeedup =
        opThreads_ == 1 ? ratio(base, passSeconds_["threads"])
                        : ratio(passSeconds_["threads"], base);
    const double checkOverhead = check()
                                     ? ratio(base, passSeconds_["check"])
                                     : ratio(passSeconds_["check"], base);

    const StatSet &st = round_.stats;
    const double gpuRun = perRound("gpu.run");
    const double trace = perRound("func.trace");
    std::vector<Metric> m = {
        {"workloads.make_s", perRound("workloads.make"), "s"},
        {"func.trace_s", trace, "s"},
        {"func.insts_per_s", ratio(round_.insts, trace),
         "warp-insts/s"},
        {"gpu.construct_s", perRound("gpu.construct"), "s"},
        {"gpu.run_s", gpuRun, "s"},
        {"gpu.sim_cycles", round_.cycles, "count"},
        {"gpu.ns_per_cycle", ratio(gpuRun * 1e9, round_.cycles), "ns"},
        {"gpu.ns_per_inst", ratio(gpuRun * 1e9, round_.insts), "ns"},
        {"gpu.sm_threads_speedup", threadsSpeedup, "x"},
        {"sm.fetches", st.get("sm.fetches"), "count"},
        {"sm.insts_issued", st.get("sm.insts_issued"), "count"},
        {"sm.stall_scoreboard", st.get("sm.stall_scoreboard"), "count"},
        {"sm.faults_reacted", st.get("sm.faults_reacted"), "count"},
        {"sm.switch_outs", st.get("sm.switch_outs"), "count"},
        {"sm.context_bytes_moved", st.get("sm.context_bytes_moved"),
         "bytes"},
        {"mem.l1_accesses",
         st.get("l1.hits") + st.get("l1.misses") + st.get("l1.stores"),
         "count"},
        {"mem.l2_accesses",
         st.get("l2.hits") + st.get("l2.misses") + st.get("l2.stores"),
         "count"},
        {"mem.dram_bytes", st.get("dram.bytes"), "bytes"},
        {"vm.l1tlb_misses", st.get("l1tlb.misses"), "count"},
        {"vm.l2tlb_misses", st.get("l2tlb.misses"), "count"},
        {"vm.walks", st.get("mmu.walks"), "count"},
        {"vm.faults", st.get("mmu.faults"), "count"},
        {"vm.joined_faults", st.get("mmu.joined_faults"), "count"},
        {"vm.migrated_bytes", st.get("hostlink.bytes_migrated"), "bytes"},
        {"vm.gpu_handled_faults", st.get("gpuhandler.faults"), "count"},
        {"inject.faults", st.get("mmu.injected_faults"), "count"},
        {"check.oracle_s",
         perRound("check.oracle") + perRound("check.verify_timing") +
             perRound("check.verify_replay"),
         "s"},
        {"check.overhead_ratio", checkOverhead, "x"},
        {"harness.sweep_s", perRound("harness.sweep"), "s"},
        {"harness.report_s", perRound("harness.report"), "s"},
        {"harness.points_per_s",
         ratio(sweepPoints_, sweepSeconds_), "1/s"},
    };
    for (int k = 0; k < obs::kNumPipeEventKinds; ++k)
        m.push_back({std::string("obs.events.") +
                         obs::pipeEventName(
                             static_cast<obs::PipeEventKind>(k)),
                     static_cast<double>(counter_.counts[
                         static_cast<std::size_t>(k)]),
                     "count"});
    m.push_back({"obs.overhead_ratio", ratio(passSeconds_["observer"], base),
                 "x"});
    const double traceOverhead = ratio(untracedIps, tracedIps);
    m.push_back({"trace.overhead_ratio", traceOverhead, "x"});
    std::printf("tracing overhead: untraced/traced sim_insts_per_s = %s "
                "(%s vs %s warp-insts/s, same process, alternating ops)\n",
                num(traceOverhead).c_str(), num(untracedIps).c_str(),
                num(tracedIps).c_str());
    writeSpans();
    printResult(failed_ == 0, attempted_, failed_, m);
    return failed_ == 0 ? 0 : 1;
}

void
Bench::writeSpans() const
{
    const std::string path =
        o_.outDir + "/gexbench-" + def_.name + "-spans.json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "gexbench: cannot write %s\n", path.c_str());
        return;
    }
    json::Writer w(os);
    w.beginArray();
    for (const Span &s : tracer_.spans()) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("start_s").value(s.start);
        w.key("end_s").value(s.end);
        w.key("parent").value(s.parent);
        w.key("op").value(s.op);
        w.endObject();
    }
    w.endArray();
    os << "\n";
    std::printf("spans %zu written to %s\n", tracer_.spans().size(),
                path.c_str());
}

int
Bench::run()
{
    printHost();
    tracer_.enabled = o_.trace;
    setup();
    tracer_.enabled = false;
    // From the launch (or, run directly, from main) to the first op.
    const double setupSeconds = since(o_.launched);
    if (o_.setupOnly) {
        std::printf("setup_s %s\n", num(setupSeconds).c_str());
        return 0;
    }

    // Timed mode measures for --seconds; traced mode spends about half
    // of that alternating untraced and traced ops, then the passes.
    const double budget = o_.trace ? o_.seconds / 2 : o_.seconds;
    std::vector<double> opSeconds;
    double opInsts = 0;
    double tracedSec = 0, tracedInsts = 0, plainSec = 0, plainInsts = 0;
    const auto start = Clock::now();
    int k = 0;
    do {
        const bool traced = o_.trace && k % 2 == 1;
        tracer_.enabled = traced;
        tracer_.op = nextOp_++;
        ++attempted_;
        try {
            const auto t = Clock::now();
            std::vector<gpu::SimResult> results = op();
            const double sec = since(t);
            verify(results);
            tracer_.enabled = false;
            double insts = 0;
            for (const auto &r : results)
                insts += static_cast<double>(r.instructions);
            opSeconds.push_back(sec);
            opInsts += insts;
            std::printf("op %d seconds=%s%s\n", k, num(sec).c_str(),
                        traced ? " traced" : "");
            if (traced) {
                tracedSec += sec;
                tracedInsts += insts;
                if (def_.kind != Kind::Campaign && round_.insts == 0)
                    for (const auto &r : results)
                        round_.add(r);
            } else {
                plainSec += sec;
                plainInsts += insts;
            }
        } catch (const std::exception &e) {
            tracer_.enabled = false;
            ++failed_;
            std::fprintf(stderr, "gexbench: op %d failed: %s\n", k,
                         e.what());
        }
        ++k;
    } while (since(start) < budget || (o_.trace && k < 2));

    if (!o_.trace)
        return finish(opSeconds, opInsts, setupSeconds);

    try {
        passes();
        tracer_.enabled = true;
        if (def_.kind != Kind::Campaign)
            harnessPass();
    } catch (const std::exception &e) {
        ++attempted_;
        ++failed_;
        std::fprintf(stderr, "gexbench: pass failed: %s\n", e.what());
    }
    tracer_.enabled = false;
    return finishTraced(ratio(tracedInsts, tracedSec),
                        ratio(plainInsts, plainSec));
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "gexbench: %s\nusage: gexbench --workload "
                 "resident|paging|checked-run|campaign [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--wrong-pin] [--print-pins] [--setup-only] "
                 "[--launched-at NS]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage((std::string(argv[i]) + " needs a value").c_str());
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        try {
            if (a == "--workload") {
                o.workload = value(i);
            } else if (a == "--seed") {
                std::size_t used = 0;
                const std::string v = value(i);
                o.seed = std::stoull(v, &used);
                if (used != v.size() || v[0] == '-')
                    throw std::invalid_argument(v);
            } else if (a == "--seconds") {
                std::size_t used = 0;
                const std::string v = value(i);
                o.seconds = std::stod(v, &used);
                if (used != v.size() || !(o.seconds >= 0))
                    throw std::invalid_argument(v);
            } else if (a == "--trace") {
                const std::string v = value(i);
                if (v != "0" && v != "1")
                    throw std::invalid_argument(v);
                o.trace = v == "1";
            } else if (a == "--out-dir") {
                o.outDir = value(i);
            } else if (a == "--wrong-pin") {
                o.wrongPin = true;
            } else if (a == "--print-pins") {
                o.printPins = true;
            } else if (a == "--setup-only") {
                o.setupOnly = true;
            } else if (a == "--launched-at") {
                // CLOCK_MONOTONIC nanoseconds, the steady_clock epoch.
                std::size_t used = 0;
                const std::string v = value(i);
                const auto ns = std::stoll(v, &used);
                if (used != v.size() || ns <= 0)
                    throw std::invalid_argument(v);
                o.launched = Clock::time_point(std::chrono::nanoseconds(ns));
            } else {
                usage(("unknown argument " + a).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs())
        if (o.workload == d.name)
            def = &d;
    if (!def)
        usage(("unknown workload " + o.workload).c_str());
    try {
        Bench bench(o, *def);
        return bench.run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gexbench: setup failed: %s\n", e.what());
        return 1;
    }
}
