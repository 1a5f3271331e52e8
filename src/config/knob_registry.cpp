#include "config/knob_registry.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace gex::config {

namespace {

constexpr std::int64_t kNoLimit = 0x7fffffffffffffffll;

const char *
typeName(KnobType t)
{
    switch (t) {
    case KnobType::Int: return "int";
    case KnobType::Real: return "real";
    case KnobType::Bool: return "bool";
    case KnobType::Enum: return "enum";
    }
    return "?";
}

/** Hash a typed knob value: its type tag, then the typed payload. */
void
hashValue(Fnv1a &f, const KnobValue &v)
{
    f.u64(static_cast<std::uint64_t>(v.type));
    switch (v.type) {
    case KnobType::Int: f.u64(static_cast<std::uint64_t>(v.i)); break;
    case KnobType::Real: f.d(v.r); break;
    case KnobType::Bool: f.u64(v.b ? 1 : 0); break;
    case KnobType::Enum: f.s(v.e); break;
    }
}

std::string
enumList(const std::vector<std::string> &values)
{
    std::string out;
    for (const auto &v : values) {
        if (!out.empty())
            out += " | ";
        out += v;
    }
    return out;
}

} // namespace

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t cur = row[j];
            std::size_t sub = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j - 1] + 1, row[j] + 1, sub});
            prev = cur;
        }
    }
    return row[b.size()];
}

// --- KnobValue -------------------------------------------------------

KnobValue
KnobValue::ofInt(std::int64_t v)
{
    KnobValue k;
    k.type = KnobType::Int;
    k.i = v;
    return k;
}

KnobValue
KnobValue::ofReal(double v)
{
    KnobValue k;
    k.type = KnobType::Real;
    k.r = v;
    return k;
}

KnobValue
KnobValue::ofBool(bool v)
{
    KnobValue k;
    k.type = KnobType::Bool;
    k.b = v;
    return k;
}

KnobValue
KnobValue::ofEnum(std::string v)
{
    KnobValue k;
    k.type = KnobType::Enum;
    k.e = std::move(v);
    return k;
}

bool
KnobValue::operator==(const KnobValue &o) const
{
    if (type != o.type)
        return false;
    switch (type) {
    case KnobType::Int: return i == o.i;
    case KnobType::Real: return r == o.r;
    case KnobType::Bool: return b == o.b;
    case KnobType::Enum: return e == o.e;
    }
    return false;
}

std::string
KnobValue::toString() const
{
    switch (type) {
    case KnobType::Int: return std::to_string(i);
    case KnobType::Real: return json::formatNumber(r);
    case KnobType::Bool: return b ? "true" : "false";
    case KnobType::Enum: return e;
    }
    return "?";
}

// --- Knob ------------------------------------------------------------

std::string
Knob::rangeText() const
{
    switch (type) {
    case KnobType::Int:
        return strprintf("[%lld, %s]", static_cast<long long>(imin),
                         imax == kNoLimit
                             ? "inf"
                             : std::to_string(imax).c_str());
    case KnobType::Real:
        return strprintf("[%s, %s]", json::formatNumber(rmin).c_str(),
                         json::formatNumber(rmax).c_str());
    case KnobType::Bool: return "true | false";
    case KnobType::Enum: return enumList(enumValues);
    }
    return "?";
}

KnobValue
Knob::parseText(const std::string &context,
                const std::string &text) const
{
    switch (type) {
    case KnobType::Int: {
        errno = 0;
        char *end = nullptr;
        long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE)
            throw ConfigError(strprintf("%s needs an integer, got '%s'",
                                        context.c_str(), text.c_str()));
        if (v < imin || v > imax)
            throw ConfigError(strprintf(
                "%s must be in %s, got %lld", context.c_str(),
                rangeText().c_str(), v));
        return KnobValue::ofInt(v);
    }
    case KnobType::Real: {
        errno = 0;
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE)
            throw ConfigError(strprintf("%s needs a number, got '%s'",
                                        context.c_str(), text.c_str()));
        if (!(v >= rmin && v <= rmax))
            throw ConfigError(strprintf(
                "%s must be in %s, got %s", context.c_str(),
                rangeText().c_str(), json::formatNumber(v).c_str()));
        return KnobValue::ofReal(v);
    }
    case KnobType::Bool: {
        if (text == "true" || text == "1")
            return KnobValue::ofBool(true);
        if (text == "false" || text == "0")
            return KnobValue::ofBool(false);
        throw ConfigError(strprintf("%s needs true or false, got '%s'",
                                    context.c_str(), text.c_str()));
    }
    case KnobType::Enum: {
        for (const auto &v : enumValues)
            if (text == v)
                return KnobValue::ofEnum(text);
        throw ConfigError(strprintf(
            "%s must be one of %s, got '%s'", context.c_str(),
            enumList(enumValues).c_str(), text.c_str()));
    }
    }
    throw ConfigError(context + ": unhandled knob type");
}

KnobValue
Knob::fromJson(const std::string &context, const json::Value &v) const
{
    switch (type) {
    case KnobType::Int: {
        if (!v.isNumber())
            throw ConfigError(context + " needs an integer");
        double n = v.number;
        std::int64_t i = static_cast<std::int64_t>(n);
        if (static_cast<double>(i) != n)
            throw ConfigError(strprintf(
                "%s needs an integer, got %s", context.c_str(),
                json::formatNumber(n).c_str()));
        if (i < imin || i > imax)
            throw ConfigError(strprintf(
                "%s must be in %s, got %lld", context.c_str(),
                rangeText().c_str(), static_cast<long long>(i)));
        return KnobValue::ofInt(i);
    }
    case KnobType::Real: {
        if (!v.isNumber())
            throw ConfigError(context + " needs a number");
        if (!(v.number >= rmin && v.number <= rmax))
            throw ConfigError(strprintf(
                "%s must be in %s, got %s", context.c_str(),
                rangeText().c_str(),
                json::formatNumber(v.number).c_str()));
        return KnobValue::ofReal(v.number);
    }
    case KnobType::Bool: {
        if (v.kind != json::Value::Kind::Bool)
            throw ConfigError(context + " needs true or false");
        return KnobValue::ofBool(v.boolean);
    }
    case KnobType::Enum: {
        if (!v.isString())
            throw ConfigError(strprintf(
                "%s needs a string (one of %s)", context.c_str(),
                enumList(enumValues).c_str()));
        return parseText(context, v.str);
    }
    }
    throw ConfigError(context + ": unhandled knob type");
}

// --- Registration helpers --------------------------------------------

void
KnobRegistry::finish(Knob k)
{
    if (k.flag.empty())
        k.flag = "--" + k.name;
    GEX_ASSERT(find(k.name) == nullptr, "duplicate knob '%s'",
               k.name.c_str());
    GEX_ASSERT(findFlag(k.flag) == nullptr, "duplicate flag '%s'",
               k.flag.c_str());
    k.def = k.get(RunParams::baseline());
    knobs_.push_back(std::move(k));
}

void
KnobRegistry::integer(std::string name, std::string doc, std::int64_t lo,
                      std::int64_t hi,
                      std::function<std::int64_t(const RunParams &)> get,
                      std::function<void(RunParams &, std::int64_t)> set,
                      std::string flag, bool execOnly)
{
    Knob k;
    k.name = std::move(name);
    k.flag = std::move(flag);
    k.type = KnobType::Int;
    k.doc = std::move(doc);
    k.imin = lo;
    k.imax = hi;
    k.execOnly = execOnly;
    k.get = [get = std::move(get)](const RunParams &p) {
        return KnobValue::ofInt(get(p));
    };
    k.set = [set = std::move(set)](RunParams &p, const KnobValue &v) {
        set(p, v.i);
    };
    finish(std::move(k));
}

void
KnobRegistry::real(std::string name, std::string doc, double lo,
                   double hi,
                   std::function<double(const RunParams &)> get,
                   std::function<void(RunParams &, double)> set,
                   std::string flag)
{
    Knob k;
    k.name = std::move(name);
    k.flag = std::move(flag);
    k.type = KnobType::Real;
    k.doc = std::move(doc);
    k.rmin = lo;
    k.rmax = hi;
    k.get = [get = std::move(get)](const RunParams &p) {
        return KnobValue::ofReal(get(p));
    };
    k.set = [set = std::move(set)](RunParams &p, const KnobValue &v) {
        set(p, v.r);
    };
    finish(std::move(k));
}

void
KnobRegistry::boolean(std::string name, std::string doc,
                      std::function<bool(const RunParams &)> get,
                      std::function<void(RunParams &, bool)> set,
                      std::string flag, bool execOnly)
{
    Knob k;
    k.name = std::move(name);
    k.flag = std::move(flag);
    k.type = KnobType::Bool;
    k.doc = std::move(doc);
    k.execOnly = execOnly;
    k.get = [get = std::move(get)](const RunParams &p) {
        return KnobValue::ofBool(get(p));
    };
    k.set = [set = std::move(set)](RunParams &p, const KnobValue &v) {
        set(p, v.b);
    };
    finish(std::move(k));
}

void
KnobRegistry::enumeration(
    std::string name, std::string doc, std::vector<std::string> values,
    std::function<std::string(const RunParams &)> get,
    std::function<void(RunParams &, const std::string &)> set,
    std::string flag, bool preset, bool execOnly)
{
    Knob k;
    k.name = std::move(name);
    k.flag = std::move(flag);
    k.type = KnobType::Enum;
    k.doc = std::move(doc);
    k.enumValues = std::move(values);
    k.preset = preset;
    k.execOnly = execOnly;
    k.get = [get = std::move(get)](const RunParams &p) {
        return KnobValue::ofEnum(get(p));
    };
    k.set = [set = std::move(set)](RunParams &p, const KnobValue &v) {
        set(p, v.e);
    };
    finish(std::move(k));
}

// --- The knob inventory ----------------------------------------------

// Field-accessor shorthand: FIELD is a member chain under RunParams
// (e.g. cfg.sm.maxWarps). The KB variants expose byte-sized fields in
// kilobytes, the granularity every driver flag has always used.
#define GETSET_INT(FIELD)                                               \
    [](const RunParams &p) {                                            \
        return static_cast<std::int64_t>(p.FIELD);                      \
    },                                                                  \
    [](RunParams &p, std::int64_t v) {                                  \
        p.FIELD =                                                       \
            static_cast<std::remove_reference_t<decltype(p.FIELD)>>(v); \
    }
#define GETSET_KB(FIELD)                                                \
    [](const RunParams &p) {                                            \
        return static_cast<std::int64_t>(p.FIELD / 1024);               \
    },                                                                  \
    [](RunParams &p, std::int64_t v) {                                  \
        p.FIELD =                                                       \
            static_cast<std::remove_reference_t<decltype(p.FIELD)>>(    \
                v * 1024);                                              \
    }
#define GETSET_REAL(FIELD)                                              \
    [](const RunParams &p) { return static_cast<double>(p.FIELD); },    \
    [](RunParams &p, double v) { p.FIELD = v; }
#define GETSET_BOOL(FIELD)                                              \
    [](const RunParams &p) { return p.FIELD; },                         \
    [](RunParams &p, bool v) { p.FIELD = v; }

KnobRegistry::KnobRegistry()
{
    // ---- Presets first: spec files apply knobs in registry order, so
    // a preset is always applied before the component knobs that
    // refine it ("policy": "demand-paging" + "policy.heap": ...).
    {
        std::vector<std::string> policies = {
            "resident",          "demand-paging", "output-faults",
            "output-faults-local", "heap-faults", "heap-faults-local"};
        enumeration(
            "policy", "residency preset (paper evaluation mode)",
            std::move(policies),
            [](const RunParams &p) {
                return std::string(vm::policyName(p.policy));
            },
            [](RunParams &p, const std::string &v) {
                // Presets configure residency only; a fault model
                // composed onto the policy survives the switch.
                inject::InjectConfig inj = p.policy.inject;
                p.policy = vm::policyFromName(v);
                p.policy.inject = inj;
            },
            "--policy", /*preset=*/true);
    }
    enumeration(
        "link", "host interconnect preset", {"nvlink", "pcie"},
        [](const RunParams &p) { return p.cfg.hostLink.name; },
        [](RunParams &p, const std::string &v) {
            p.cfg.hostLink = v == "pcie" ? vm::HostLinkConfig::pcie()
                                         : vm::HostLinkConfig::nvlink();
        },
        "--link", /*preset=*/true);

    // ---- Scheme and system-level machine knobs.
    {
        std::vector<std::string> schemes;
        for (gpu::Scheme s : gpu::allSchemes())
            schemes.push_back(gpu::schemeName(s));
        enumeration(
            "scheme", "exception handling scheme (paper section 3)",
            std::move(schemes),
            [](const RunParams &p) {
                return std::string(gpu::schemeName(p.cfg.scheme));
            },
            [](RunParams &p, const std::string &v) {
                p.cfg.scheme = gpu::schemeFromName(v);
            },
            "--scheme");
    }
    integer("sms", "number of SMs", 1, 4096, GETSET_INT(cfg.numSms),
            "--sms");
    integer("sm-threads",
            "threads ticking the SMs of one run (results identical "
            "at any value)",
            1, 1024, GETSET_INT(cfg.smThreads), "--sm-threads",
            /*execOnly=*/true);
    integer("operand-log-kb", "operand log size per SM in KB "
            "(operand-log scheme)", 1, 1 << 20,
            GETSET_KB(cfg.operandLogBytes), "--log-kb");
    integer("migration-kb", "fault handling / migration granularity "
            "in KB", 4, 1 << 20,
            GETSET_KB(cfg.migrationGranularityBytes));
    real("dram-bytes-per-cycle", "DRAM bandwidth in bytes per cycle",
         0.001, 1e9, GETSET_REAL(cfg.dramBytesPerCycle));
    integer("dram-latency", "DRAM access latency in cycles", 0,
            kNoLimit, GETSET_INT(cfg.dramLatency));
    integer("fault-retry-latency", "retry latency after a stalled "
            "fault resolves (baseline scheme)", 0, kNoLimit,
            GETSET_INT(cfg.faultRetryLatency));

    // ---- UC1 block switching.
    boolean("block-switching", "UC1: context switch faulted thread "
            "blocks", GETSET_BOOL(cfg.blockSwitching),
            "--block-switching");
    boolean("ideal-switch", "UC1: ideal 1-cycle context save/restore",
            GETSET_BOOL(cfg.idealContextSwitch), "--ideal-switch");
    integer("max-extra-blocks", "UC1: extra off-chip blocks allowed "
            "per SM", 0, 1024, GETSET_INT(cfg.maxExtraBlocks));
    integer("switch-queue-threshold", "UC1: switch only above this "
            "many pending faults", 0, 1 << 20,
            GETSET_INT(cfg.switchQueueThreshold));
    integer("context-switch-overhead", "fixed per-switch control "
            "overhead in cycles (non-ideal)", 0, kNoLimit,
            GETSET_INT(cfg.contextSwitchOverhead));
    integer("min-residency-before-switch", "UC1 anti-churn: cycles a "
            "block must be resident before switching out again", 0,
            kNoLimit, GETSET_INT(cfg.minResidencyBeforeSwitch));

    // ---- Arithmetic-exception extension.
    boolean("arith-exceptions", "make arithmetic exceptions "
            "preemptible too", GETSET_BOOL(cfg.arithExceptions),
            "--arith-exceptions");
    integer("trap-handler-cycles", "trap handler routine latency for "
            "arithmetic exceptions", 0, kNoLimit,
            GETSET_INT(cfg.trapHandlerCycles));

    // ---- Robustness (docs/ROBUSTNESS.md).
    integer("watchdog", "forward-progress watchdog window in cycles "
            "(0 disables)", 0, kNoLimit,
            GETSET_INT(cfg.watchdogCycles), "--watchdog");
    boolean("capture-events", "keep the last-K pipeline events for "
            "watchdog diagnostics", GETSET_BOOL(cfg.watchdogCaptureEvents),
            "--capture-events");
    integer("watchdog-last-events", "event-ring capacity for "
            "capture-events", 1, 1 << 20,
            GETSET_INT(cfg.watchdogLastEvents));
    integer("max-cycles", "hard cycle budget (0 = unlimited)", 0,
            kNoLimit, GETSET_INT(cfg.maxCycles), "--max-cycles");
    boolean("resilience-stats", "emit the resil.* stat block on "
            "fault-free runs too", GETSET_BOOL(cfg.resilienceStats));
    boolean("check", "run the invariant sanitizer and self-checks "
            "(docs/VALIDATION.md); results are never changed",
            GETSET_BOOL(cfg.checkInvariants), "--check",
            /*execOnly=*/true);
    enumeration("check.violate", "test-only: arm one deliberate "
                "invariant violation under --check",
                {"none", "rq-hold", "ol-leak", "event-seq",
                 "double-commit"},
                [](const RunParams &p) { return p.cfg.checkViolation; },
                [](RunParams &p, const std::string &v) {
                    p.cfg.checkViolation = v;
                },
                "--violate", /*preset=*/false, /*execOnly=*/true);

    // ---- Per-SM microarchitecture (paper Table 1, SM section).
    integer("sm.max-blocks", "resident thread blocks per SM", 1, 64,
            GETSET_INT(cfg.sm.maxThreadBlocks));
    integer("sm.max-warps", "resident warps per SM", 1, 1024,
            GETSET_INT(cfg.sm.maxWarps));
    integer("sm.register-file-kb", "register file size per SM in KB",
            1, 1 << 20, GETSET_KB(cfg.sm.registerFileBytes));
    integer("sm.shared-mem-kb", "shared memory per SM in KB", 1,
            1 << 20, GETSET_KB(cfg.sm.sharedMemBytes));
    integer("sm.issue-width", "instructions issued per cycle", 1, 32,
            GETSET_INT(cfg.sm.issueWidth));
    integer("sm.max-issue-per-warp", "issue slots one warp may take "
            "per cycle", 1, 32, GETSET_INT(cfg.sm.maxIssuePerWarp));
    integer("sm.fetch-per-cycle", "instruction lines fetched per "
            "cycle", 1, 32, GETSET_INT(cfg.sm.fetchPerCycle));
    integer("sm.fetch-width", "instructions per fetched line", 1, 32,
            GETSET_INT(cfg.sm.fetchWidth));
    integer("sm.ibuf-depth", "per-warp instruction buffer depth", 1,
            64, GETSET_INT(cfg.sm.instBufferDepth));
    enumeration(
        "sm.sched-policy", "warp selection policy",
        {gpu::schedPolicyName(gpu::SchedPolicy::LooseRoundRobin),
         gpu::schedPolicyName(gpu::SchedPolicy::GreedyThenOldest)},
        [](const RunParams &p) {
            return std::string(gpu::schedPolicyName(p.cfg.sm.schedPolicy));
        },
        [](RunParams &p, const std::string &v) {
            p.cfg.sm.schedPolicy = gpu::schedPolicyFromName(v);
        });
    integer("sm.math-units", "math units per SM", 1, 64,
            GETSET_INT(cfg.sm.numMathUnits));
    integer("sm.math-latency", "math unit latency in cycles", 1,
            kNoLimit, GETSET_INT(cfg.sm.mathLatency));
    integer("sm.sfu-latency", "special function unit latency", 1,
            kNoLimit, GETSET_INT(cfg.sm.sfuLatency));
    integer("sm.branch-latency", "branch unit latency", 1, kNoLimit,
            GETSET_INT(cfg.sm.branchLatency));
    integer("sm.shared-latency", "shared memory access latency", 1,
            kNoLimit, GETSET_INT(cfg.sm.sharedLatency));
    integer("sm.atomic-extra-latency", "extra latency of atomic "
            "accesses", 0, kNoLimit,
            GETSET_INT(cfg.sm.atomicExtraLatency));
    integer("sm.translations-per-cycle", "coalesced requests entering "
            "translation per cycle", 1, 64,
            GETSET_INT(cfg.sm.translationsPerCycle));
    integer("sm.mem-frontend-cycles", "global-memory pipeline front "
            "end depth (issue to last TLB check)", 0, kNoLimit,
            GETSET_INT(cfg.sm.memFrontendCycles));
    integer("sm.lsu-queue-depth", "in-flight global-memory "
            "instructions per SM", 1, 1 << 20,
            GETSET_INT(cfg.sm.lsuQueueDepth));
    integer("sm.fetch-restart-penalty", "fetch refill penalty after a "
            "warp-disable re-enable", 0, kNoLimit,
            GETSET_INT(cfg.sm.fetchRestartPenalty));

    // ---- Caches and TLBs.
    integer("l1.size-kb", "L1 cache size per SM in KB", 1, 1 << 20,
            GETSET_KB(cfg.sm.l1.sizeBytes));
    integer("l1.ways", "L1 associativity", 1, 64,
            GETSET_INT(cfg.sm.l1.ways));
    integer("l1.latency", "L1 hit latency in cycles", 1, kNoLimit,
            GETSET_INT(cfg.sm.l1.latency));
    integer("l1.mshrs", "L1 MSHRs", 1, 1 << 20,
            GETSET_INT(cfg.sm.l1.mshrs));
    integer("l1.ports", "L1 ports", 1, 64, GETSET_INT(cfg.sm.l1.ports));
    boolean("l1.write-allocate", "L1 write-allocate + write-back "
            "(vs write-through)", GETSET_BOOL(cfg.sm.l1.writeAllocate));
    integer("l1tlb.entries", "L1 TLB entries", 1, 1 << 20,
            GETSET_INT(cfg.sm.l1Tlb.entries));
    integer("l1tlb.ways", "L1 TLB associativity", 1, 64,
            GETSET_INT(cfg.sm.l1Tlb.ways));
    integer("l1tlb.latency", "L1 TLB hit latency", 1, kNoLimit,
            GETSET_INT(cfg.sm.l1Tlb.latency));
    integer("l1tlb.miss-queue", "outstanding distinct-page L1 TLB "
            "misses", 1, 1 << 20, GETSET_INT(cfg.sm.l1Tlb.missQueue));
    integer("l2.size-kb", "shared L2 cache size in KB", 1, 1 << 24,
            GETSET_KB(cfg.l2.sizeBytes));
    integer("l2.ways", "L2 associativity", 1, 64,
            GETSET_INT(cfg.l2.ways));
    integer("l2.latency", "L2 hit latency in cycles", 1, kNoLimit,
            GETSET_INT(cfg.l2.latency));
    integer("l2.mshrs", "L2 MSHRs", 1, 1 << 20,
            GETSET_INT(cfg.l2.mshrs));
    integer("l2.ports", "L2 ports", 1, 64, GETSET_INT(cfg.l2.ports));
    boolean("l2.write-allocate", "L2 write-allocate + write-back "
            "(vs write-through)", GETSET_BOOL(cfg.l2.writeAllocate));
    integer("l2tlb.entries", "shared L2 TLB entries", 1, 1 << 20,
            GETSET_INT(cfg.mmu.l2Tlb.entries));
    integer("l2tlb.ways", "L2 TLB associativity", 1, 64,
            GETSET_INT(cfg.mmu.l2Tlb.ways));
    integer("l2tlb.latency", "L2 TLB hit latency", 1, kNoLimit,
            GETSET_INT(cfg.mmu.l2Tlb.latency));
    integer("l2tlb.miss-queue", "outstanding distinct-page L2 TLB "
            "misses", 1, 1 << 20, GETSET_INT(cfg.mmu.l2Tlb.missQueue));

    // ---- MMU / fault servicing.
    integer("mmu.walkers", "concurrent page table walkers", 1, 4096,
            GETSET_INT(cfg.mmu.numWalkers));
    integer("mmu.walk-cycles", "page table walk latency in cycles", 0,
            kNoLimit, GETSET_INT(cfg.mmu.walkCycles));
    integer("link.one-way-latency", "host link one-way propagation + "
            "software stack latency", 0, kNoLimit,
            GETSET_INT(cfg.hostLink.oneWayLatency));
    integer("link.cpu-service-cycles", "CPU handler service time per "
            "fault (fully serialized)", 0, kNoLimit,
            GETSET_INT(cfg.hostLink.cpuServiceCycles));
    real("link.bytes-per-cycle", "effective host link bandwidth for "
         "page data", 0.001, 1e9,
         GETSET_REAL(cfg.hostLink.linkBytesPerCycle));
    integer("link.signal-bytes", "per-fault request/response signaling "
            "bytes on the link", 0, 1ll << 40,
            GETSET_INT(cfg.hostLink.signalBytes));
    integer("handler.cycles", "GPU-local fault handler routine "
            "latency (UC2)", 0, kNoLimit,
            GETSET_INT(cfg.gpuHandler.handlerCycles));
    integer("handler.serial-cycles", "serialization between concurrent "
            "GPU-local handlers", 0, kNoLimit,
            GETSET_INT(cfg.gpuHandler.allocatorSerialCycles));

    // ---- Residency policy components (exact state behind the
    // "policy" preset; these are what the digest and manifest carry).
    {
        auto names = [] {
            return std::vector<std::string>{
                vm::regionStateName(vm::RegionState::GpuResident),
                vm::regionStateName(vm::RegionState::CpuOwned),
                vm::regionStateName(vm::RegionState::Untouched)};
        };
        enumeration(
            "policy.inputs", "initial residency of input buffers",
            names(),
            [](const RunParams &p) {
                return std::string(vm::regionStateName(p.policy.inputs));
            },
            [](RunParams &p, const std::string &v) {
                p.policy.inputs = vm::regionStateFromName(v);
            });
        enumeration(
            "policy.outputs", "initial residency of output buffers",
            names(),
            [](const RunParams &p) {
                return std::string(vm::regionStateName(p.policy.outputs));
            },
            [](RunParams &p, const std::string &v) {
                p.policy.outputs = vm::regionStateFromName(v);
            });
        enumeration(
            "policy.heap", "initial residency of device-malloc heap "
            "pages", names(),
            [](const RunParams &p) {
                return std::string(vm::regionStateName(p.policy.heap));
            },
            [](RunParams &p, const std::string &v) {
                p.policy.heap = vm::regionStateFromName(v);
            });
    }
    boolean("policy.local-handling", "UC2: first-touch faults handled "
            "by the GPU-local handler",
            GETSET_BOOL(policy.localHandling));

    // ---- Fault injection (docs/FAULT_INJECTION.md).
    {
        std::vector<std::string> models;
        for (inject::ModelKind k :
             {inject::ModelKind::None, inject::ModelKind::Bernoulli,
              inject::ModelKind::Burst, inject::ModelKind::HotPage,
              inject::ModelKind::FirstTouch})
            models.push_back(inject::modelName(k));
        enumeration(
            "inject.model", "injected fault model", std::move(models),
            [](const RunParams &p) {
                return std::string(
                    inject::modelName(p.policy.inject.model));
            },
            [](RunParams &p, const std::string &v) {
                p.policy.inject.model = inject::modelFromName(v);
            },
            "--inject-model");
    }
    real("inject.rate", "injected fault rate", 0.0, 1.0,
         GETSET_REAL(policy.inject.rate), "--inject-rate");
    integer("inject.seed", "injection campaign seed", 0, kNoLimit,
            GETSET_INT(policy.inject.seed), "--inject-seed");
    real("inject.burst-rate", "burst model: in-storm fault "
         "probability", 0.0, 1.0, GETSET_REAL(policy.inject.burstRate));
    real("inject.burst-enter", "burst model: P(calm to storm) per "
         "walk", 0.0, 1.0, GETSET_REAL(policy.inject.burstEnter));
    real("inject.burst-exit", "burst model: P(storm to calm) per "
         "walk", 0.0, 1.0, GETSET_REAL(policy.inject.burstExit));
    real("inject.hot-fraction", "hot-page model: fraction of regions "
         "that are hot", 0.0, 1.0,
         GETSET_REAL(policy.inject.hotFraction));
    real("inject.hot-boost", "hot-page model: hot-region rate "
         "multiplier", 0.0, 1e9, GETSET_REAL(policy.inject.hotBoost));
}

#undef GETSET_INT
#undef GETSET_KB
#undef GETSET_REAL
#undef GETSET_BOOL

// --- Registry services -----------------------------------------------

const KnobRegistry &
KnobRegistry::instance()
{
    static const KnobRegistry reg;
    return reg;
}

const Knob *
KnobRegistry::find(const std::string &name) const
{
    for (const Knob &k : knobs_)
        if (k.name == name)
            return &k;
    return nullptr;
}

const Knob *
KnobRegistry::findFlag(const std::string &flag) const
{
    for (const Knob &k : knobs_)
        if (k.flag == flag)
            return &k;
    return nullptr;
}

std::string
KnobRegistry::suggest(const std::string &name) const
{
    std::string best;
    std::size_t bestDist = name.size() / 2 + 2; // only near misses
    for (const Knob &k : knobs_) {
        std::size_t d = editDistance(name, k.name);
        if (d < bestDist) {
            bestDist = d;
            best = k.name;
        }
    }
    return best;
}

void
KnobRegistry::applySpecText(
    RunParams &p, const std::string &text, const std::string &origin,
    const std::function<bool(const std::string &, const json::Value &)>
        &extraKey,
    const std::function<std::string(const std::string &)> &extraSuggest)
    const
{
    std::string err;
    std::unique_ptr<json::Value> root = json::parse(text, &err);
    if (!root)
        throw ConfigError(
            strprintf("%s: %s", origin.c_str(), err.c_str()));
    if (!root->isObject())
        throw ConfigError(strprintf(
            "%s: an experiment spec must be a JSON object",
            origin.c_str()));

    // Knobs apply in registry order (presets before their component
    // knobs), independent of key order in the file.
    for (const Knob &k : knobs_) {
        const json::Value *v = root->find(k.name);
        if (!v)
            continue;
        std::string ctx =
            strprintf("%s: key '%s'", origin.c_str(), k.name.c_str());
        k.set(p, k.fromJson(ctx, *v));
    }
    // Remaining keys are driver-specific or mistakes.
    for (const auto &kv : root->members) {
        if (find(kv.first))
            continue;
        if (extraKey && extraKey(kv.first, kv.second))
            continue;
        std::string hint = suggest(kv.first);
        if (hint.empty() && extraSuggest)
            hint = extraSuggest(kv.first);
        throw ConfigError(strprintf(
            "%s: unknown key '%s'%s", origin.c_str(), kv.first.c_str(),
            hint.empty()
                ? ""
                : strprintf(" (did you mean '%s'?)", hint.c_str())
                      .c_str()));
    }
}

void
KnobRegistry::applySpecFile(
    RunParams &p, const std::string &path,
    const std::function<bool(const std::string &, const json::Value &)>
        &extraKey,
    const std::function<std::string(const std::string &)> &extraSuggest)
    const
{
    std::ifstream is(path);
    if (!is)
        throw ConfigError(strprintf("cannot open spec file '%s'",
                                    path.c_str()));
    std::ostringstream ss;
    ss << is.rdbuf();
    applySpecText(p, ss.str(), path, extraKey, extraSuggest);
}

void
KnobRegistry::writeManifest(json::Writer &w, const RunParams &p) const
{
    w.beginObject();
    for (const Knob &k : knobs_) {
        if (k.preset || k.execOnly)
            continue;
        KnobValue v = k.get(p);
        w.key(k.name);
        switch (v.type) {
        case KnobType::Int:
            w.value(static_cast<std::uint64_t>(v.i));
            break;
        case KnobType::Real: w.value(v.r); break;
        case KnobType::Bool: w.value(v.b); break;
        case KnobType::Enum: w.value(v.e); break;
        }
    }
    w.endObject();
}

std::uint64_t
KnobRegistry::resultDigest(const RunParams &p) const
{
    Fnv1a f;
    for (const Knob &k : knobs_) {
        if (k.preset || k.execOnly)
            continue;
        f.s(k.name);
        hashValue(f, k.get(p));
    }
    return f.h;
}

std::uint64_t
KnobRegistry::registryDigest() const
{
    Fnv1a f;
    for (const Knob &k : knobs_) {
        f.s(k.name);
        f.s(k.flag);
        f.u64(static_cast<std::uint64_t>(k.type));
        f.u64(static_cast<std::uint64_t>(k.imin));
        f.u64(static_cast<std::uint64_t>(k.imax));
        f.d(k.rmin);
        f.d(k.rmax);
        for (const auto &e : k.enumValues)
            f.s(e);
        f.u64((k.execOnly ? 1u : 0u) | (k.preset ? 2u : 0u));
        hashValue(f, k.def);
    }
    return f.h;
}

std::string
KnobRegistry::helpText() const
{
    std::ostringstream os;
    os << "configuration knobs (every flag doubles as a spec-file key;"
          "\nbool knobs also accept a --no- prefix):\n";
    for (const Knob &k : knobs_) {
        std::string left = "  " + k.flag;
        switch (k.type) {
        case KnobType::Int: left += " N"; break;
        case KnobType::Real: left += " X"; break;
        case KnobType::Bool: break;
        case KnobType::Enum: left += " NAME"; break;
        }
        os << left;
        if (left.size() < 30)
            os << std::string(30 - left.size(), ' ');
        else
            os << "\n" << std::string(30, ' ');
        os << k.doc;
        os << " (" << k.rangeText() << "; default "
           << k.def.toString() << ")";
        if (k.execOnly)
            os << " [execution-only]";
        if (k.preset)
            os << " [preset]";
        os << "\n";
    }
    return os.str();
}

std::string
KnobRegistry::markdownTable() const
{
    std::ostringstream os;
    os << "| knob | flag | type | default | range | description |\n";
    os << "|---|---|---|---|---|---|\n";
    for (const Knob &k : knobs_) {
        std::string notes;
        if (k.execOnly)
            notes = " *(execution-only: excluded from result digest "
                    "and manifest)*";
        if (k.preset)
            notes = " *(preset: excluded from result digest and "
                    "manifest; sets the component knobs below)*";
        // rangeText() separates alternatives with '|', which would
        // split the markdown cell; list them comma-separated here.
        std::string range;
        if (k.type == KnobType::Enum) {
            for (const std::string &v : k.enumValues) {
                if (!range.empty())
                    range += ", ";
                range += "`" + v + "`";
            }
        } else if (k.type == KnobType::Bool) {
            range = "`true`, `false`";
        } else {
            range = k.rangeText();
        }
        os << "| `" << k.name << "` | `" << k.flag << "` | "
           << typeName(k.type) << " | `" << k.def.toString() << "` | "
           << range << " | " << k.doc << notes << " |\n";
    }
    return os.str();
}

} // namespace gex::config
