/**
 * @file
 * Knob-registry and experiment-spec tests (docs/CONFIGURATION.md):
 * registry defaults and digest sensitivity, spec-file application with
 * unknown-key rejection and suggestions, resolved_config manifest
 * round-trips, flag-vs-spec precedence through cli::ArgParser, strict
 * numeric flag parsing, and the headline property — a run configured
 * from a manifest is bit-identical to the flag-configured run that
 * produced the manifest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "config/cli.hpp"
#include "config/knob_registry.hpp"
#include "harness/grid.hpp"
#include "harness/sweep.hpp"

namespace gex {
namespace {

const config::KnobRegistry &reg = config::KnobRegistry::instance();

/** A legal value of @p k different from its default. */
config::KnobValue
perturbed(const config::Knob &k)
{
    using config::KnobType;
    using config::KnobValue;
    switch (k.type) {
    case KnobType::Int:
        return KnobValue::ofInt(k.def.i + 1 <= k.imax ? k.def.i + 1
                                                      : k.def.i - 1);
    case KnobType::Real:
        return KnobValue::ofReal(k.def.r + 0.0625 <= k.rmax
                                     ? k.def.r + 0.0625
                                     : k.def.r - 0.0625);
    case KnobType::Bool:
        return KnobValue::ofBool(!k.def.b);
    case KnobType::Enum:
        for (const std::string &v : k.enumValues)
            if (v != k.def.e)
                return KnobValue::ofEnum(v);
        break;
    }
    ADD_FAILURE() << "no perturbation for knob " << k.name;
    return k.def;
}

std::string
manifestText(const config::RunParams &p)
{
    std::ostringstream os;
    json::Writer w(os);
    reg.writeManifest(w, p);
    return os.str();
}

std::string
tmpSpec(const char *name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path);
    os << text;
    return path;
}

TEST(KnobRegistry, DefaultsMatchBaseline)
{
    const config::RunParams base = config::RunParams::baseline();
    for (const config::Knob &k : reg.knobs())
        EXPECT_EQ(k.get(base), k.def) << "knob " << k.name;
}

TEST(KnobRegistry, NamesAndFlagsResolve)
{
    for (const config::Knob &k : reg.knobs()) {
        EXPECT_EQ(reg.find(k.name), &k);
        EXPECT_EQ(reg.findFlag(k.flag), &k);
    }
    EXPECT_EQ(reg.find("no-such-knob"), nullptr);
    EXPECT_EQ(reg.findFlag("--no-such-flag"), nullptr);
}

TEST(KnobRegistry, SetterGetterRoundTrip)
{
    for (const config::Knob &k : reg.knobs()) {
        if (k.preset)
            continue; // presets read back as their component state
        config::RunParams p;
        const config::KnobValue v = perturbed(k);
        k.set(p, v);
        EXPECT_EQ(k.get(p), v) << "knob " << k.name;
    }
}

// Every digested knob moves the result digest; execution-only knobs
// and pure relabelings don't. This is the property that makes the
// journal's resume keying automatic for future knobs.
TEST(KnobRegistry, EveryDigestedKnobMovesTheDigest)
{
    const config::RunParams base = config::RunParams::baseline();
    const std::uint64_t d0 = reg.resultDigest(base);
    for (const config::Knob &k : reg.knobs()) {
        if (k.preset || k.execOnly)
            continue;
        config::RunParams p;
        k.set(p, perturbed(k));
        EXPECT_NE(reg.resultDigest(p), d0) << "knob " << k.name;
    }
}

TEST(KnobRegistry, ExecOnlyKnobsDoNotMoveTheDigest)
{
    const std::uint64_t d0 =
        reg.resultDigest(config::RunParams::baseline());
    bool sawExecOnly = false;
    for (const config::Knob &k : reg.knobs()) {
        if (!k.execOnly)
            continue;
        sawExecOnly = true;
        config::RunParams p;
        k.set(p, perturbed(k));
        EXPECT_EQ(reg.resultDigest(p), d0) << "knob " << k.name;
    }
    EXPECT_TRUE(sawExecOnly); // check at minimum
}

TEST(KnobRegistry, SuggestFindsNearMisses)
{
    EXPECT_EQ(reg.suggest("smz"), "sms");
    EXPECT_EQ(reg.suggest("inject.rte"), "inject.rate");
    EXPECT_EQ(reg.suggest("zzzzzzzzzzzzzzzzzzzz"), "");
}

TEST(EditDistance, Basics)
{
    EXPECT_EQ(config::editDistance("", "abc"), 3u);
    EXPECT_EQ(config::editDistance("abc", "abc"), 0u);
    EXPECT_EQ(config::editDistance("kitten", "sitting"), 3u);
}

TEST(SpecFile, AppliesKnobsInRegistryOrder)
{
    config::RunParams p;
    // The policy preset first, then a component override: registry
    // order guarantees the preset cannot clobber the component value
    // regardless of JSON member order.
    reg.applySpecText(p,
                      "{\"policy.inputs\": \"gpu-resident\","
                      " \"policy\": \"demand-paging\","
                      " \"scheme\": \"replay-queue\", \"sms\": 4}",
                      "test-spec");
    EXPECT_EQ(p.cfg.numSms, 4);
    EXPECT_EQ(p.cfg.scheme, gpu::Scheme::ReplayQueue);
    // The component override beat the preset's cpu-owned inputs even
    // though the preset key came later in the JSON text ...
    EXPECT_EQ(p.policy.inputs, vm::RegionState::GpuResident);
    // ... while the rest of the preset still applied.
    EXPECT_EQ(p.policy.outputs, vm::RegionState::Untouched);
    EXPECT_EQ(p.policy.heap, vm::RegionState::Untouched);
}

TEST(SpecFile, UnknownKeyIsRejectedWithSuggestion)
{
    config::RunParams p;
    try {
        reg.applySpecText(p, "{\"smz\": 4}", "spec.json");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("spec.json"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unknown key 'smz'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("did you mean 'sms'"), std::string::npos)
            << msg;
    }
}

TEST(SpecFile, RejectsBadValues)
{
    config::RunParams p;
    // Out-of-range rate, non-integral int, bad enum name, non-object
    // document, unreadable file.
    EXPECT_THROW(reg.applySpecText(p, "{\"inject.rate\": 1.5}", "s"),
                 ConfigError);
    EXPECT_THROW(reg.applySpecText(p, "{\"sms\": 2.5}", "s"),
                 ConfigError);
    EXPECT_THROW(reg.applySpecText(p, "{\"scheme\": \"fancy\"}", "s"),
                 ConfigError);
    EXPECT_THROW(reg.applySpecText(p, "[1, 2]", "s"), ConfigError);
    EXPECT_THROW(reg.applySpecFile(p, "/nonexistent/spec.json"),
                 ConfigError);
}

TEST(Manifest, CoversExactlyTheDigestedKnobs)
{
    std::string err;
    auto v = json::parse(manifestText(config::RunParams::baseline()),
                         &err);
    ASSERT_TRUE(v && v->isObject()) << err;
    std::size_t digested = 0;
    for (const config::Knob &k : reg.knobs()) {
        const bool inManifest =
            v->find(k.name) != nullptr;
        EXPECT_EQ(inManifest, !k.preset && !k.execOnly)
            << "knob " << k.name;
        if (!k.preset && !k.execOnly)
            ++digested;
    }
    EXPECT_EQ(v->members.size(), digested);
}

// resolved_config is replayable provenance: feeding the manifest back
// through the spec loader reproduces the exact digested state.
TEST(Manifest, RoundTripsToAnEqualDigest)
{
    config::RunParams a;
    a.cfg.scheme = gpu::Scheme::OperandLog;
    a.cfg.numSms = 6;
    a.cfg.l2.sizeBytes = 3072 * 1024;
    a.policy = vm::VmPolicy::heapFaults(true);
    a.policy.inject.model = inject::ModelKind::Burst;
    a.policy.inject.rate = 0.015625;
    a.policy.inject.seed = 9;

    config::RunParams b;
    reg.applySpecText(b, manifestText(a), "manifest");
    EXPECT_EQ(reg.resultDigest(b), reg.resultDigest(a));
    for (const config::Knob &k : reg.knobs()) {
        if (!k.preset && !k.execOnly)
            EXPECT_EQ(k.get(b), k.get(a)) << "knob " << k.name;
    }
}

TEST(ArgParser, FlagsOverrideSpecsRegardlessOfPosition)
{
    const std::string spec = tmpSpec(
        "prec_spec.json", "{\"sms\": 8, \"scheme\": \"operand-log\"}");

    config::RunParams p;
    cli::ArgParser ap("t", "test");
    ap.bindKnobs(&p);
    std::vector<std::string> args = {"t", "--sms", "12", "--config",
                                     spec};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ap.parse(static_cast<int>(argv.size()), argv.data());

    EXPECT_EQ(p.cfg.numSms, 12); // flag wins though it came first
    EXPECT_EQ(p.cfg.scheme, gpu::Scheme::OperandLog); // spec-only key
    ASSERT_EQ(ap.configFiles().size(), 1u);
    EXPECT_EQ(ap.configFiles()[0], spec);
}

TEST(ArgParser, LaterSpecOverridesEarlierSpec)
{
    const std::string s1 = tmpSpec("layer1.json", "{\"sms\": 8}");
    const std::string s2 = tmpSpec("layer2.json", "{\"sms\": 24}");

    config::RunParams p;
    cli::ArgParser ap("t", "test");
    ap.bindKnobs(&p);
    std::vector<std::string> args = {"t", "--config", s1, "--config",
                                     s2};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ap.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(p.cfg.numSms, 24);
}

TEST(ArgParser, BoolKnobsAcceptNoPrefix)
{
    config::RunParams p;
    cli::ArgParser ap("t", "test");
    ap.bindKnobs(&p);
    std::vector<std::string> args = {"t", "--block-switching",
                                     "--no-capture-events"};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ap.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(p.cfg.blockSwitching);
    EXPECT_FALSE(p.cfg.watchdogCaptureEvents);
}

TEST(ArgParser, UnknownFlagAndSpecKeysOfDriverOptions)
{
    std::string suite;
    config::RunParams p;
    cli::ArgParser ap("t", "test");
    ap.option("--suite", "S", "suite",
              [&](const std::string &v) { suite = v; }, "suite");
    ap.bindKnobs(&p);

    const std::string spec =
        tmpSpec("driver_keys.json", "{\"suite\": \"halloc\"}");
    std::vector<std::string> args = {"t", "--config", spec};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ap.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(suite, "halloc"); // driver key accepted from the spec

    std::vector<std::string> bad = {"t", "--suit", "x"};
    std::vector<char *> badv;
    for (std::string &a : bad)
        badv.push_back(a.data());
    try {
        ap.parse(static_cast<int>(badv.size()), badv.data());
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown flag '--suit'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("--suite"), std::string::npos) << msg;
    }
}

TEST(StrictParsing, TrailingJunkAndGarbageAreRejected)
{
    EXPECT_THROW(cli::parseInt("--jobs", "4x", 0, 100), ConfigError);
    EXPECT_THROW(cli::parseInt("--jobs", "banana", 0, 100), ConfigError);
    EXPECT_THROW(cli::parseInt("--jobs", "", 0, 100), ConfigError);
    EXPECT_THROW(cli::parseRate("--rate", "0.5p"), ConfigError);
    EXPECT_EQ(cli::parseInt("--jobs", "42", 0, 100), 42);
    EXPECT_EQ(cli::parseRate("--rate", "0.25"), 0.25);

    const config::Knob *sms = reg.find("sms");
    ASSERT_NE(sms, nullptr);
    EXPECT_THROW(sms->parseText("--sms", "4x"), ConfigError);
    EXPECT_THROW(sms->parseText("--sms", "0"), ConfigError);
}

TEST(Version, NamesTheRegistry)
{
    const std::string v = cli::versionText("gexsim-test");
    EXPECT_NE(v.find("gexsim-test"), std::string::npos);
    EXPECT_NE(v.find("knob registry"), std::string::npos);
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(reg.registryDigest()));
    EXPECT_NE(v.find(digest), std::string::npos);
}

// The headline acceptance property: a run configured from a manifest
// is bit-identical to the flag-style-configured run that wrote it.
TEST(Manifest, ReRunFromManifestIsBitIdentical)
{
    config::RunParams a;
    a.cfg.numSms = 4;
    a.cfg.scheme = gpu::Scheme::ReplayQueue;
    a.policy = vm::VmPolicy::demandPaging();

    config::RunParams b;
    reg.applySpecText(b, manifestText(a), "manifest");

    harness::TracedWorkload tw = harness::buildTraced("bfs");
    gpu::Gpu ga(a.cfg);
    gpu::SimResult ra = ga.run(tw.kernel, tw.trace, a.policy);
    gpu::Gpu gb(b.cfg);
    gpu::SimResult rb = gb.run(tw.kernel, tw.trace, b.policy);

    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
    std::ostringstream sa, sb;
    ra.stats.dumpCsv(sa);
    rb.stats.dumpCsv(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

/** ConfigError text of expanding the grid of a gexsim-sweep line. */
std::string
gridError(std::vector<std::string> args)
{
    harness::GridSpec g;
    config::RunParams p;
    cli::ArgParser ap("t", "test");
    harness::addGridOptions(ap, g);
    ap.bindKnobs(&p);
    args.insert(args.begin(), "t");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    try {
        ap.parse(static_cast<int>(argv.size()), argv.data());
        harness::expandGrid(g, p);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

// An explicitly empty workload list used to fall back to the whole
// parboil suite.
TEST(GridSpec, EmptyWorkloadListIsAnError)
{
    std::string msg = gridError({"--workloads", ""});
    EXPECT_NE(msg.find("--workloads names no workload"), std::string::npos)
        << msg;
    msg = gridError({"--config",
                     tmpSpec("no_workloads.json", "{\"workloads\": []}")});
    EXPECT_NE(msg.find("--workloads names no workload"), std::string::npos)
        << msg;
    EXPECT_NE(gridError({"--schemes", ""}).find("--schemes"),
              std::string::npos);
}

// A repeated point used to print one row twice and make its base
// ambiguous.
TEST(GridSpec, DuplicateGridPointIsAnError)
{
    std::string msg = gridError({"--schemes", "baseline,baseline"});
    EXPECT_NE(msg.find("--schemes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lists baseline twice"), std::string::npos) << msg;

    msg = gridError({"--workloads", "bfs,bfs"});
    EXPECT_NE(msg.find("--workloads lists 'bfs' twice"), std::string::npos)
        << msg;

    msg = gridError(
        {"--workloads", "bfs", "--config",
         tmpSpec("dup_points.json",
                 "{\"axes\": [{\"scheme\": [\"baseline\"]},"
                 " {\"scheme\": [\"wd-commit\", \"baseline\"]}]}")});
    EXPECT_NE(msg.find("axes: duplicate grid point bfs (scale 1) "
                       "scheme=baseline"),
              std::string::npos)
        << msg;
    EXPECT_EQ(gridError({"--workloads", "bfs", "--schemes",
                         "baseline,wd-commit"}),
              "");
}

} // namespace
} // namespace gex
