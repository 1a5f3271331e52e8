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

#include <string>

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "config/cli.hpp"
#include "config/knob_registry.hpp"
#include "gpu/gpu.hpp"
#include "harness/sweep.hpp"

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

// --- Architectural oracle -------------------------------------------

TEST(ArchOracleContract, ReplayAndTimingPassOnAHealthyRun)
{
    const harness::TracedWorkload &tw = cache().get("sgemm");
    check::ArchOracle oracle("sgemm", 1, *tw.mem, tw.trace);
    EXPECT_NO_THROW(oracle.verifyReplay());

    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.numSms = 4;
    gpu::Gpu g(cfg);
    gpu::SimResult r = g.run(tw.kernel, tw.trace);
    EXPECT_NO_THROW(oracle.verifyTiming(r, cfg));
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

// --- Differential fuzz campaign -------------------------------------

TEST(FuzzCampaign, GenerationIsDeterministic)
{
    check::FuzzOptions opt;
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

TEST(FuzzCampaign, QuickDifferentialCampaignPasses)
{
    // Two seeded cases, all five schemes each, sanitizer + oracle.
    // Any divergence fails the test with the full failure report.
    check::FuzzOptions opt;
    opt.seed = 42;
    opt.cases = 2;
    opt.workloads = {"bfs", "spmv"};
    check::FuzzCampaign camp(opt);
    check::FuzzFailure fail;
    bool ok = camp.run(&fail);
    EXPECT_TRUE(ok) << fail.kind << ": " << fail.message;
}

TEST(FuzzCampaign, SeededFailureShrinksToAReplayableSpec)
{
    check::FuzzOptions opt;
    opt.seed = 5;
    check::FuzzCampaign camp(opt);

    // A hand-built failing case with noise knobs the shrinker should
    // strip: the armed rq-hold violation only needs the scheme and a
    // fault-producing policy.
    check::FuzzCase c;
    c.workload = "bfs";
    c.scale = 1;
    c.params = config::RunParams::baseline();
    const auto &reg = config::KnobRegistry::instance();
    reg.find("policy")->set(c.params, config::KnobValue::ofEnum(
                                          "demand-paging"));
    reg.find("sms")->set(c.params, config::KnobValue::ofInt(4));
    reg.find("operand-log-kb")->set(c.params,
                                    config::KnobValue::ofInt(32));
    reg.find("l1tlb.entries")->set(c.params,
                                   config::KnobValue::ofInt(16));
    reg.find("ideal-switch")->set(c.params,
                                  config::KnobValue::ofBool(true));
    c.params.cfg.scheme = gpu::Scheme::ReplayQueue;
    c.params.cfg.checkInvariants = true;
    c.params.cfg.checkViolation = "rq-hold";

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

} // namespace
} // namespace gex
