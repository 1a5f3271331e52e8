/**
 * @file
 * Self-checking simulation tests (docs/VALIDATION.md): the
 * InvariantError taxonomy entry and its exit code, every seeded
 * violation hook tripping its checker, the --check on/off bit-identity
 * contract, checked regression points, the architectural oracle, and a
 * small seeded differential fuzz campaign with shrink + repro-spec
 * round-trip.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "config/cli.hpp"
#include "config/knob_registry.hpp"
#include "func/memory.hpp"
#include "gpu/gpu.hpp"
#include "harness/grid.hpp"
#include "harness/sweep.hpp"
#include "trace/trace.hpp"

namespace gex {
namespace {

// --- Taxonomy --------------------------------------------------------

TEST(InvariantTaxonomy, MapsToExitCodeSeven)
{
    InvariantError e("shadow mismatch");
    EXPECT_EQ(e.kind(), "InvariantError");
    EXPECT_EQ(cli::exitCodeFor(e), cli::ExitInvariant);
    EXPECT_EQ(cli::ExitInvariant, 7);
}

TEST(InvariantTaxonomy, CheckKnobsAreExecOnly)
{
    // --check must never change results, so neither knob may enter the
    // result digest or the resolved_config manifest.
    const auto &reg = config::KnobRegistry::instance();
    const config::Knob *check = reg.find("check");
    const config::Knob *violate = reg.find("check.violate");
    ASSERT_NE(check, nullptr);
    ASSERT_NE(violate, nullptr);
    EXPECT_TRUE(check->execOnly);
    EXPECT_TRUE(violate->execOnly);

    config::RunParams off = config::RunParams::baseline();
    config::RunParams on = config::RunParams::baseline();
    on.cfg.checkInvariants = true;
    on.cfg.checkViolation = "rq-hold";
    EXPECT_EQ(reg.resultDigest(off), reg.resultDigest(on));
}

// --- Seeded violations ----------------------------------------------

harness::TraceCache &
cache()
{
    static harness::TraceCache c;
    return c;
}

/** Run bfs/demand-paging with @p violate armed; return the error. */
InvariantError
runSeededViolation(gpu::Scheme scheme, const std::string &violate,
                   bool capture)
{
    const harness::TracedWorkload &tw = cache().get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 4;
    cfg.scheme = scheme;
    cfg.checkInvariants = true;
    cfg.checkViolation = violate;
    cfg.watchdogCaptureEvents = capture;
    gpu::Gpu g(cfg);
    try {
        g.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging());
    } catch (const InvariantError &e) {
        return e;
    }
    return InvariantError("NOT DETECTED");
}

TEST(SeededViolations, RqHoldTripsTheReplayQueueChecker)
{
    InvariantError e = runSeededViolation(gpu::Scheme::ReplayQueue,
                                          "rq-hold", true);
    std::string r = e.report();
    EXPECT_NE(r.find("replay-queue hold violation"), std::string::npos)
        << r;
    EXPECT_EQ(e.context().scheme, "replay-queue");
    EXPECT_NE(e.context().cycle, kNoCycle);
    // Satellite contract: the report reuses the last-K event ring.
    EXPECT_NE(e.diagnostics().find("last pipeline events"),
              std::string::npos)
        << e.diagnostics();
}

TEST(SeededViolations, RqHoldWithoutCapturePointsAtTheKnob)
{
    InvariantError e = runSeededViolation(gpu::Scheme::ReplayQueue,
                                          "rq-hold", false);
    EXPECT_NE(e.report().find("replay-queue hold violation"),
              std::string::npos);
    EXPECT_NE(e.diagnostics().find("recent-event capture off"),
              std::string::npos)
        << e.diagnostics();
}

TEST(SeededViolations, RqHoldWaitsForAReplayedInstruction)
{
    // Without faults nothing replays, so the armed hook never fires
    // and the checked run completes.
    const harness::TracedWorkload &tw = cache().get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = gpu::Scheme::ReplayQueue;
    cfg.checkInvariants = true;
    cfg.checkViolation = "rq-hold";
    gpu::Gpu g(cfg);
    const gpu::SimResult r = g.run(tw.kernel, tw.trace);
    EXPECT_EQ(r.instructions, tw.trace.dynamicInsts());
}

TEST(SeededViolations, OlLeakTripsTheDrainLeakChecker)
{
    InvariantError e = runSeededViolation(gpu::Scheme::OperandLog,
                                          "ol-leak", false);
    std::string r = e.report();
    EXPECT_NE(r.find("operand-log partition"), std::string::npos) << r;
    EXPECT_NE(r.find("leak"), std::string::npos) << r;
}

TEST(SeededViolations, EventSeqTripsTheEventHeapChecker)
{
    InvariantError e = runSeededViolation(gpu::Scheme::StallOnFault,
                                          "event-seq", false);
    EXPECT_NE(e.report().find("scheduled into the past"),
              std::string::npos)
        << e.report();
    // The hook fires in the first issue stage after cycle 0, on SM 0.
    EXPECT_EQ(e.context().cycle, 1u);
    EXPECT_EQ(e.context().sm, 0);
}

TEST(SeededViolations, DoubleCommitTripsExactlyOnceRetirement)
{
    InvariantError e = runSeededViolation(gpu::Scheme::StallOnFault,
                                          "double-commit", false);
    EXPECT_NE(e.report().find("committed twice"), std::string::npos)
        << e.report();
}

TEST(SeededViolations, UnknownHookNameIsAConfigError)
{
    const harness::TracedWorkload &tw = cache().get("bfs");
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.checkInvariants = true;
    cfg.checkViolation = "rq-holdd";
    gpu::Gpu g(cfg);
    EXPECT_THROW(g.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging()),
                 ConfigError);
}

// --- --check on/off bit-identity ------------------------------------

TEST(CheckInvariance, CheckOnLeavesEverySchemeBitIdentical)
{
    const harness::TracedWorkload &tw = cache().get("bfs");
    for (gpu::Scheme s : gpu::allSchemes()) {
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.numSms = 4;
        cfg.scheme = s;

        gpu::Gpu off(cfg);
        gpu::SimResult roff =
            off.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging());

        cfg.checkInvariants = true;
        cfg.watchdogCaptureEvents = true;
        gpu::Gpu on(cfg);
        gpu::SimResult ron =
            on.run(tw.kernel, tw.trace, vm::VmPolicy::demandPaging());

        EXPECT_EQ(roff.cycles, ron.cycles) << gpu::schemeName(s);
        EXPECT_EQ(roff.stats.toJson(), ron.stats.toJson())
            << gpu::schemeName(s);
    }
}

// --- Checked regressions --------------------------------------------

// A fault on a warp whose instruction buffer still held entries
// fetched from the replay queue used to rewind fetchIdx to the oldest
// of them — behind instructions the warp had already issued, which it
// then fetched and executed again; the next fault on one of those
// tripped "instruction already in replay queue". The full faultsim
// campaign hit it at lbm x operand-log x burst (rates 0.002 and 0.01,
// seed 1). Both points must finish clean under the sanitizer and the
// oracle, at the pinned result.
TEST(CheckedRegressions, ReplayedEntriesSurviveASecondFault)
{
    const harness::TracedWorkload &tw = cache().get("lbm");
    check::ArchOracle oracle("lbm", 1, *tw.mem, tw.trace);
    for (double rate : {0.002, 0.01}) {
        SCOPED_TRACE("inject.rate " + std::to_string(rate));
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::Scheme::OperandLog;
        cfg.checkInvariants = true;
        vm::VmPolicy policy = vm::VmPolicy::allResident();
        policy.inject.model = inject::ModelKind::Burst;
        policy.inject.rate = rate;
        gpu::Gpu g(cfg);
        gpu::SimResult r = g.run(tw.kernel, tw.trace, policy);
        EXPECT_NO_THROW(oracle.verifyTiming(r, cfg));
        EXPECT_EQ(r.cycles, 294419u);
        EXPECT_EQ(r.instructions, 116736u);
        EXPECT_EQ(r.stats.get("inject.faults_injected"), 78.0);
    }
    EXPECT_NO_THROW(oracle.verifyReplay());
}

// One instruction took a joined fault on a page; a later request of
// the same instruction translated that page after the pending fault
// entry expired and legally refilled the L1 TLB. The TLB caching check
// ran after the whole instruction, saw the refill and reported a
// cached faulting translation (the CLI spelling below exited 7 with
// "L1 TLB holds the faulting translation of page 0x1055"). It now
// looks at the faulting request, so the run passes, at the pinned
// result.
TEST(CheckedRegressions, TlbRefillAfterAnExpiredFaultIsNotCached)
{
    // gexsim-run --workload sgemm --scheme operand-log --sms 2 --check
    //   --log-kb 32 --block-switching --sm.lsu-queue-depth 8
    //   --l1tlb.entries 16 --policy.outputs untouched
    const config::KnobRegistry &reg = config::KnobRegistry::instance();
    config::RunParams p;
    for (const auto &[name, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"scheme", "operand-log"},
             {"sms", "2"},
             {"check", "true"},
             {"operand-log-kb", "32"},
             {"block-switching", "true"},
             {"sm.lsu-queue-depth", "8"},
             {"l1tlb.entries", "16"},
             {"policy.outputs", "untouched"}}) {
        const config::Knob *k = reg.find(name);
        ASSERT_NE(k, nullptr) << name;
        k->set(p, k->parseText(name, value));
    }
    const harness::TracedWorkload &tw = cache().get("sgemm");
    gpu::Gpu g(p.cfg);
    gpu::SimResult r;
    ASSERT_NO_THROW(r = g.run(tw.kernel, tw.trace, p.policy));
    EXPECT_EQ(r.cycles, 134765u);
    EXPECT_EQ(r.instructions, 287232u);
    EXPECT_EQ(r.stats.get("mmu.joined_faults"), 178.0);
}

// --- Architectural oracle -------------------------------------------

TEST(ArchOracleContract, ReplayAndTimingPassOnAHealthyRun)
{
    for (const char *name : {"sgemm", "bfs", "histo"}) {
        SCOPED_TRACE(name);
        const harness::TracedWorkload &tw = cache().get(name);
        check::ArchOracle oracle(name, 1, *tw.mem, tw.trace);
        EXPECT_NO_THROW(oracle.verifyReplay());

        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.numSms = 4;
        gpu::Gpu g(cfg);
        gpu::SimResult r = g.run(tw.kernel, tw.trace);
        EXPECT_NO_THROW(oracle.verifyTiming(r, cfg));
    }
}

TEST(ArchOracleContract, TimingMismatchThrowsInvariantError)
{
    const harness::TracedWorkload &tw = cache().get("sgemm");
    check::ArchOracle oracle("sgemm", 1, *tw.mem, tw.trace);
    gpu::SimResult fake;
    fake.instructions = oracle.reference().dynamicInsts + 1;
    try {
        oracle.verifyTiming(fake, gpu::GpuConfig::baseline());
        FAIL() << "mismatched instruction count passed";
    } catch (const InvariantError &e) {
        EXPECT_NE(e.report().find("architectural oracle"),
                  std::string::npos)
            << e.report();
    }
}

TEST(ArchOracleContract, FingerprintsDifferAcrossWorkloads)
{
    const harness::TracedWorkload &a = cache().get("sgemm");
    const harness::TracedWorkload &b = cache().get("bfs");
    EXPECT_NE(check::fingerprint(*a.mem, a.trace),
              check::fingerprint(*b.mem, b.trace));
}

/** A two-instruction warp; the second is a load of two lines. */
trace::KernelTrace
tinyTrace()
{
    trace::WarpTrace wt;
    wt.insts.push_back({3, 0xffu, 0, 0, 8, false});
    wt.insts.push_back({4, 0x0fu, 0, 2, 4, false});
    wt.linePool = {0x10000, 0x10080};
    trace::KernelTrace kt;
    kt.blocks.emplace_back();
    kt.blocks[0].blockId = 1;
    kt.blocks[0].warps.push_back(std::move(wt));
    return kt;
}

/** Two pages (the second's last word set) and a heap. */
void
fillTinyMemory(func::GlobalMemory &mem)
{
    mem.setHeap(1 << 20, 1 << 16);
    mem.write64(0x10000, 7);
    mem.write64(0x11000 + kPageSize - 8, 9);
}

TEST(ArchOracleContract, FingerprintMovesOnEverySingleChange)
{
    func::GlobalMemory mem;
    fillTinyMemory(mem);
    const trace::KernelTrace kt = tinyTrace();
    const check::ArchFingerprint ref = check::fingerprint(mem, kt);

    auto traceMoves = [&](const char *what, auto mutate) {
        trace::KernelTrace t = kt;
        mutate(t.blocks[0].warps[0]);
        const check::ArchFingerprint fp = check::fingerprint(mem, t);
        EXPECT_NE(fp.traceDigest, ref.traceDigest) << what;
        EXPECT_EQ(fp.memDigest, ref.memDigest) << what;
    };
    traceMoves("line address",
               [](trace::WarpTrace &w) { w.linePool[1] += kLineSize; });
    traceMoves("active bit",
               [](trace::WarpTrace &w) { w.insts[1].active ^= 1u << 31; });
    traceMoves("arithFault",
               [](trace::WarpTrace &w) { w.insts[0].arithFault = true; });

    // One byte, in the first page's first word and the second page's
    // last word (the tail of the page's word stream).
    for (Addr a : {Addr{0x10000}, Addr{0x11000 + kPageSize - 8}}) {
        func::GlobalMemory m;
        fillTinyMemory(m);
        m.write64(a, m.read64(a) ^ 1ull << 56);
        const check::ArchFingerprint fp = check::fingerprint(m, kt);
        EXPECT_NE(fp.memDigest, ref.memDigest) << std::hex << a;
        EXPECT_EQ(fp.traceDigest, ref.traceDigest);
    }

    // heapUsed alone: the same bytes (cursor included), one more
    // allocation recorded.
    func::GlobalMemory a, b;
    fillTinyMemory(a);
    fillTinyMemory(b);
    b.allocFromHeap(16);
    a.write64(a.heapCursorAddr(), b.read64(b.heapCursorAddr()));
    EXPECT_EQ(a.touchedPages(), b.touchedPages());
    EXPECT_NE(check::fingerprint(a, kt).memDigest,
              check::fingerprint(b, kt).memDigest);
}

TEST(ArchOracleContract, MemDigestIgnoresTouchOrder)
{
    const Addr pages[] = {0x5000, 0x1000, 0x9000};
    func::GlobalMemory fwd, rev;
    for (Addr p : pages)
        fwd.write64(p + 8, p);
    for (int i = 2; i >= 0; --i) {
        rev.read64(pages[i] + 16);
        rev.write64(pages[i] + 8, pages[i]);
    }
    EXPECT_EQ(fwd.digest(), rev.digest());
}

// --- Differential fuzz campaign -------------------------------------

const std::string kCases = std::string(GEX_EXPERIMENTS_DIR) +
                           "/fuzz/cases.json";

/** The campaign options of a gexsim-check command line. */
check::FuzzOptions
fuzzOptionsOf(std::vector<std::string> args)
{
    check::FuzzOptions o;
    cli::ArgParser ap("t", "test");
    harness::addGridOptions(ap, o.grid);
    ap.bindKnobs(&o.base);
    args.insert(args.begin(), "t");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ap.parse(static_cast<int>(argv.size()), argv.data());
    return o;
}

/** A campaign over the spec @p text. */
check::FuzzCampaign
campaignOf(const std::string &text)
{
    const std::string path = ::testing::TempDir() + "fuzz_spec.json";
    std::ofstream(path) << text;
    return check::FuzzCampaign(fuzzOptionsOf({"--config", path}));
}

/** The ConfigError text of building a campaign over @p text. */
std::string
campaignErrorOf(const std::string &text)
{
    try {
        campaignOf(text);
    } catch (const ConfigError &e) {
        EXPECT_EQ(cli::exitCodeFor(e), cli::ExitConfig);
        return e.what();
    }
    return "";
}

TEST(FuzzCampaign, GenerationIsDeterministic)
{
    check::FuzzOptions opt = fuzzOptionsOf({"--config", kCases});
    opt.seed = 7;
    check::FuzzCampaign c1(opt), c2(opt);
    for (std::uint64_t i = 0; i < 4; ++i) {
        check::FuzzCase a = c1.generate(i);
        check::FuzzCase b = c2.generate(i);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(check::FuzzCampaign::describeCase(a),
                  check::FuzzCampaign::describeCase(b));
        EXPECT_EQ(config::KnobRegistry::instance().resultDigest(a.params),
                  config::KnobRegistry::instance().resultDigest(b.params));
        EXPECT_TRUE(a.params.cfg.checkInvariants);
    }
}

TEST(FuzzCampaign, SampledValuesLieOnTheirAxes)
{
    // Every case is the base plus one value of each axis: no value
    // off its axis list, no knob set outside the axes and the base.
    const check::FuzzOptions opt = fuzzOptionsOf(
        {"--config", kCases, "--dram-latency", "300"});
    check::FuzzCampaign camp(opt);
    std::ifstream in(kCases);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string err;
    const auto spec = json::parse(text, &err);
    ASSERT_NE(spec, nullptr) << err;
    const json::Value &axes = *spec->find("axes");
    const auto &reg = config::KnobRegistry::instance();
    for (std::uint64_t i = 0; i < 50; ++i) {
        const check::FuzzCase c = camp.generate(i);
        EXPECT_EQ(c.scale, 1);
        bool listed = false;
        for (const json::Value &w : spec->find("workloads")->items)
            listed = listed || w.asString() == c.workload;
        EXPECT_TRUE(listed) << c.workload;
        config::RunParams expect = opt.base;
        expect.cfg.checkInvariants = true;
        for (const config::Knob &k : reg.knobs()) {
            const json::Value *list = axes.find(k.name);
            if (!list)
                continue;
            const config::KnobValue v = k.get(c.params);
            bool onAxis = false;
            for (const json::Value &item : list->items)
                onAxis = onAxis || k.fromJson(k.name, item) == v;
            EXPECT_TRUE(onAxis) << k.name << "=" << v.toString();
            k.set(expect, v);
        }
        check::FuzzCase e = c;
        e.params = expect;
        EXPECT_EQ(reg.resultDigest(c.params), reg.resultDigest(expect));
        EXPECT_EQ(check::FuzzCampaign::describeCase(c),
                  check::FuzzCampaign::describeCase(e));
        EXPECT_EQ(c.params.cfg.dramLatency, 300u);
        EXPECT_TRUE(c.params.cfg.watchdogCaptureEvents);
    }
}

TEST(FuzzCampaign, ReproducersNameThePreset)
{
    // A case drawn with policy=heap-faults reports the preset, not the
    // policy.* component knobs it sets, and its repro spec rebuilds
    // the same parameters.
    check::FuzzCampaign camp = campaignOf(R"({
        "workloads": ["bfs"], "axes": {"policy": ["heap-faults"]}})");
    const check::FuzzCase c = camp.generate(0);
    const std::string desc = check::FuzzCampaign::describeCase(c);
    EXPECT_NE(desc.find(" policy=heap-faults"), std::string::npos) << desc;
    EXPECT_EQ(desc.find("policy."), std::string::npos) << desc;
    const std::string spec = check::FuzzCampaign::reproSpecJson(c);
    EXPECT_NE(spec.find("\"policy\": \"heap-faults\""), std::string::npos)
        << spec;
    EXPECT_EQ(spec.find("policy."), std::string::npos) << spec;

    const auto &reg = config::KnobRegistry::instance();
    config::RunParams replay = config::RunParams::baseline();
    reg.applySpecText(replay, spec, "repro.json",
                      [](const std::string &key, const json::Value &) {
                          return key == "workload" || key == "scale";
                      });
    EXPECT_EQ(reg.resultDigest(replay), reg.resultDigest(c.params));
    check::FuzzCase r = c;
    r.params = replay;
    EXPECT_EQ(check::FuzzCampaign::describeCase(r), desc);
}

TEST(FuzzCampaign, QuickDifferentialCampaignPasses)
{
    // Two seeded cases, all five schemes each, sanitizer + oracle.
    // Any divergence fails the test with the full failure report.
    check::FuzzOptions opt =
        fuzzOptionsOf({"--config", kCases, "--workloads", "bfs,spmv"});
    opt.seed = 42;
    opt.cases = 2;
    check::FuzzCampaign camp(opt);
    check::FuzzFailure fail;
    bool ok = camp.run(&fail);
    EXPECT_TRUE(ok) << fail.kind << ": " << fail.message;
}

TEST(FuzzCampaign, SeededFailureShrinksToAReplayableSpec)
{
    // A one-point case space whose case fails, with noise axes the
    // shrinker should strip: the armed rq-hold violation trips under
    // the replay-queue scheme whatever the machine shape.
    check::FuzzCampaign camp = campaignOf(R"({
        "workloads": ["bfs"], "check.violate": "rq-hold",
        "axes": {"ideal-switch": [true], "policy": ["demand-paging"],
                 "operand-log-kb": [32], "l1tlb.entries": [16],
                 "sms": [4]}})");
    check::FuzzCase c = camp.generate(0);
    c.params.cfg.scheme = gpu::Scheme::ReplayQueue;

    check::FuzzFailure fail;
    ASSERT_FALSE(camp.runCase(c, &fail));
    EXPECT_EQ(fail.kind, "InvariantError");
    EXPECT_NE(fail.message.find("replay-queue hold violation"),
              std::string::npos)
        << fail.message;

    check::FuzzCase shrunk = camp.shrink(fail);
    // The noise knobs reset; the essentials survive.
    EXPECT_EQ(shrunk.params.cfg.scheme, gpu::Scheme::ReplayQueue);
    EXPECT_EQ(shrunk.params.cfg.checkViolation, "rq-hold");
    // rq-hold breaks the hold of a replayed instruction, so the
    // faults that cause replays must survive.
    EXPECT_STREQ(vm::policyName(shrunk.params.policy), "demand-paging");
    std::string desc = check::FuzzCampaign::describeCase(shrunk);
    EXPECT_EQ(desc.find("operand-log-kb"), std::string::npos) << desc;
    EXPECT_EQ(desc.find("l1tlb.entries"), std::string::npos) << desc;
    EXPECT_EQ(desc.find("ideal-switch"), std::string::npos) << desc;

    // The shrunk case still fails.
    check::FuzzFailure again;
    EXPECT_FALSE(camp.runCase(shrunk, &again));

    // The repro spec round-trips through the spec loader into params
    // that reproduce the same violation.
    std::string spec = check::FuzzCampaign::reproSpecJson(shrunk);
    EXPECT_NE(spec.find("\"check\": true"), std::string::npos) << spec;
    EXPECT_NE(spec.find("\"check.violate\": \"rq-hold\""),
              std::string::npos)
        << spec;

    const auto &reg = config::KnobRegistry::instance();
    check::FuzzCase replay;
    replay.scale = 1;
    replay.params = config::RunParams::baseline();
    reg.applySpecText(
        replay.params, spec, "repro.json",
        [&](const std::string &key, const json::Value &v) {
            if (key == "workload") {
                replay.workload = v.asString();
                return true;
            }
            if (key == "scale") {
                replay.scale = static_cast<int>(v.asNumber());
                return true;
            }
            return false;
        });
    EXPECT_EQ(replay.workload, "bfs");
    check::FuzzFailure replayFail;
    EXPECT_FALSE(camp.runCase(replay, &replayFail));
    EXPECT_EQ(replayFail.kind, "InvariantError");
}

TEST(FuzzCampaign, ShrinkVisitsTheAxesInSpecOrder)
{
    // bfs on 4 SMs retires in ~31 k cycles, but one SM or a 2000-cycle
    // DRAM each take it past the 50 k budget. Whichever axis comes
    // first resets (the other still fails the case); the second then
    // must stay, so the survivor names the spec's order.
    auto shrunk = [](const std::string &axes) {
        check::FuzzCampaign camp = campaignOf(
            R"({"workloads": ["bfs"], "sms": 4, "max-cycles": 50000,
                "axes": {)" + axes + "}}");
        check::FuzzFailure fail;
        fail.c = camp.generate(0);
        fail.c.params.cfg.scheme = gpu::Scheme::ReplayQueue;
        return check::FuzzCampaign::describeCase(camp.shrink(fail));
    };
    const std::string smsFirst =
        shrunk(R"("sms": [1], "dram-latency": [2000])");
    EXPECT_NE(smsFirst.find("sms=4"), std::string::npos) << smsFirst;
    EXPECT_NE(smsFirst.find("dram-latency=2000"), std::string::npos)
        << smsFirst;

    const std::string dramFirst =
        shrunk(R"("dram-latency": [2000], "sms": [1])");
    EXPECT_NE(dramFirst.find("sms=1"), std::string::npos) << dramFirst;
    EXPECT_EQ(dramFirst.find("dram-latency"), std::string::npos)
        << dramFirst;
}

TEST(FuzzCampaign, UnknownAxisKnobIsAConfigError)
{
    const std::string msg = campaignErrorOf(
        R"({"workloads": ["bfs"], "axes": {"smz": [2, 4]}})");
    EXPECT_NE(msg.find("unknown knob 'smz'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'sms'"), std::string::npos) << msg;
}

TEST(FuzzCampaign, NoAxesOrASchemeAxisIsAConfigError)
{
    // Every case runs all five schemes, so a spec must give axes and
    // none of them may be the scheme.
    EXPECT_NE(campaignErrorOf(R"({"workloads": ["bfs"]})")
                  .find("--config experiments/fuzz/cases.json"),
              std::string::npos);
    for (const char *spec :
         {R"({"axes": {"scheme": ["baseline", "wd-commit"]}})",
          R"({"axes": [{"sms": [2]}, {"sms": [4], "scheme": ["baseline"]}]})"})
        EXPECT_NE(campaignErrorOf(spec).find("all five schemes"),
                  std::string::npos)
            << spec;
    // The sweep's scheme shorthand is not a key gexsim-check reads.
    const std::string msg = campaignErrorOf(
        R"({"schemes": ["baseline"], "axes": {"sms": [2]}})");
    EXPECT_NE(msg.find("unknown key 'schemes'"), std::string::npos) << msg;
}

} // namespace
} // namespace gex
