/**
 * @file
 * GPU configuration: paper Table 1 defaults (NVIDIA Kepler K20-class,
 * 16 SMs) plus the exception-scheme and use-case knobs under study.
 */

#ifndef GEX_GPU_CONFIG_HPP
#define GEX_GPU_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "mem/cache.hpp"
#include "vm/fill_unit.hpp"
#include "vm/gpu_fault_handler.hpp"
#include "vm/host_link.hpp"
#include "vm/tlb.hpp"

namespace gex::gpu {

/**
 * Exception handling scheme implemented by the SM pipeline (paper
 * section 3). StallOnFault is the baseline: faults stall in the
 * pipeline and are not preemptible. The remaining schemes support
 * preemptible faults at increasing complexity.
 */
enum class Scheme : std::uint8_t {
    StallOnFault,         ///< baseline (section 2.2)
    WarpDisableCommit,    ///< wd-commit (section 3.1)
    WarpDisableLastCheck, ///< wd-lastcheck (section 3.1)
    ReplayQueue,          ///< replay queue (section 3.2)
    OperandLog,           ///< operand log (section 3.3)
};

const char *schemeName(Scheme s);

/**
 * Parse a scheme from its canonical name ("baseline", "wd-commit",
 * "wd-lastcheck", "replay-queue", "operand-log"); fatal() on unknown
 * names, listing the accepted spellings.
 */
Scheme schemeFromName(const std::string &name);

/** All five schemes in paper order (baseline first). */
const std::vector<Scheme> &allSchemes();

/** Warp selection policy for the fetch/issue schedulers. */
enum class SchedPolicy : std::uint8_t {
    LooseRoundRobin, ///< rotate the starting warp every grant (default)
    GreedyThenOldest, ///< stick with the last warp, then oldest ready
};

const char *schedPolicyName(SchedPolicy p);

/**
 * Parse a scheduling policy from its canonical name
 * ("loose-round-robin", "greedy-then-oldest"); fatal() on unknown
 * names, listing the accepted spellings.
 */
SchedPolicy schedPolicyFromName(const std::string &name);

/** Per-SM microarchitecture (paper Table 1, SM section). */
struct SmConfig {
    int maxThreadBlocks = 16;
    int maxWarps = 64;
    std::uint32_t registerFileBytes = 256 * 1024;
    std::uint32_t sharedMemBytes = 32 * 1024;

    int issueWidth = 2;        ///< 2 instructions total per cycle
    int maxIssuePerWarp = 2;   ///< from 1 or 2 warps
    int fetchPerCycle = 1;     ///< one instruction line per cycle...
    int fetchWidth = 2;        ///< ...holding this many instructions
    int instBufferDepth = 2;

    SchedPolicy schedPolicy = SchedPolicy::LooseRoundRobin;

    int numMathUnits = 2;
    Cycle mathLatency = 4;
    Cycle sfuLatency = 16;
    Cycle branchLatency = 4;
    Cycle sharedLatency = 24;
    Cycle atomicExtraLatency = 8;

    mem::CacheConfig l1 = {"l1", 32 * 1024, 4, 40, 32, 1};
    vm::TlbConfig l1Tlb = {"l1tlb", 32, 8, 1, 32};

    /** Coalesced requests entering translation per cycle. */
    int translationsPerCycle = 1;

    /**
     * Global-memory pipeline front end: address calculation and
     * coalescing-queue occupancy between operand read and the first
     * TLB access (paper Figures 3-7 show the deep, variable-latency
     * global memory pipeline). This is the distance between issue and
     * the "last TLB check" that wd-lastcheck / replay-queue /
     * operand-log wait on.
     */
    Cycle memFrontendCycles = 10;

    /** In-flight global-memory instructions per SM (LSU queue). */
    int lsuQueueDepth = 32;

    /**
     * Fetch pipeline refill penalty after a warp-disable re-enable:
     * the warp lost its fetch slot and must re-enter the fetch stage
     * (warp-disable schemes only).
     */
    Cycle fetchRestartPenalty = 6;
};

/** Whole-GPU configuration (paper Table 1, System section). */
struct GpuConfig {
    int numSms = 16;
    /**
     * Unused: nothing in the simulator reads it. One run ticks its SMs
     * serially; sweep-engine --jobs is the parallelism. The field
     * stays only because the benchmark program perfbench/gexbench.cpp
     * still assigns it; remove the two together.
     */
    int smThreads = 1;
    SmConfig sm;

    mem::CacheConfig l2 = {"l2", 2 * 1024 * 1024, 8, 70, 512, 2};
    double dramBytesPerCycle = 256.0; ///< 256 GB/s at 1 GHz
    Cycle dramLatency = 200;

    /** Fault handling / migration granularity (paper: 64 KB). */
    Addr migrationGranularityBytes = kDefaultMigrationBytes;

    vm::MmuConfig mmu;
    vm::HostLinkConfig hostLink = vm::HostLinkConfig::nvlink();
    vm::GpuHandlerConfig gpuHandler;

    Scheme scheme = Scheme::StallOnFault;
    /** Operand log capacity per SM (OperandLog scheme only). */
    std::uint32_t operandLogBytes = 16 * 1024;

    /** UC1: context switch faulted thread blocks (section 4.1). */
    bool blockSwitching = false;
    /** UC1: ideal 1-cycle context save/restore (Figure 12). */
    bool idealContextSwitch = false;
    /** UC1: extra off-chip blocks allowed per SM. */
    int maxExtraBlocks = 4;
    /** UC1: switch only when this many faults are already pending. */
    int switchQueueThreshold = 1;
    /** Fixed per-switch control overhead (non-ideal), cycles. */
    Cycle contextSwitchOverhead = 100;
    /**
     * UC1 anti-churn: a block must have been resident this long
     * before it may be switched out again. Freshly installed
     * replacement blocks usually fault immediately during a migration
     * storm; re-switching them thrashes context state for no gain.
     */
    Cycle minResidencyBeforeSwitch = 4000;

    /** Retry latency after a stalled fault resolves (baseline). */
    Cycle faultRetryLatency = 20;

    /**
     * Emit the resilience stat block (`resil.*`, `mmu.injected_faults`)
     * even on runs without an injected fault model, so fault-free
     * reference runs of a campaign share the campaign's stat schema.
     * Runs with injection enabled always emit it. Off by default: the
     * golden-stats digests pin the historical stat set of plain runs.
     */
    bool resilienceStats = false;

    // --- robustness knobs (docs/ROBUSTNESS.md) -------------------------

    /**
     * Forward-progress watchdog window, in cycles; 0 disables. If no
     * instruction commits and no thread block retires for a full
     * window while warps are resident, the run raises LivelockError
     * with a per-warp state snapshot instead of spinning forever
     * (detection latency is between one and two windows). Pure
     * observation: the watchdog never changes simulation results, and
     * its bookkeeping runs at most once per window, off the hot path.
     */
    Cycle watchdogCycles = 2'000'000;
    /**
     * Capture the last watchdogLastEvents pipeline events (src/obs)
     * for the watchdog's diagnostics bundle. Off by default: attaching
     * the capture observer makes every emission site construct its
     * event, which plain runs should not pay for. Composes with a
     * user observer (events are forwarded).
     */
    bool watchdogCaptureEvents = false;
    /** Ring capacity for watchdogCaptureEvents. */
    int watchdogLastEvents = 64;
    /**
     * Hard cycle budget; 0 means unlimited. A run that reaches this
     * cycle raises CycleBudgetExceeded — the backstop that bounds one
     * grid point's cost in a campaign even when it commits just often
     * enough to evade the watchdog.
     */
    Cycle maxCycles = 0;

    /**
     * Run the invariant sanitizer and drain-time self-checks
     * (src/check, docs/VALIDATION.md): per-scheme protocol checkers,
     * event-heap ordering checks and end-of-run leak detection. A
     * violation raises InvariantError (exit code 7). Exec-only: off
     * (the default) leaves results and digests bit-identical and the
     * hot path untouched; on changes only whether violations are
     * detected, never the simulated outcome.
     */
    bool checkInvariants = false;
    /**
     * Test-only: arm one deliberate invariant violation so the
     * sanitizer's detection path itself can be exercised end to end
     * ("none", "rq-hold", "ol-leak", "event-seq", "double-commit").
     * Only honored when checkInvariants is on; docs/VALIDATION.md.
     */
    std::string checkViolation = "none";

    /**
     * Extension (paper sections 3.1/3.2): make arithmetic exceptions
     * (divide by zero, ...) preemptible too. Under the warp-disable
     * schemes, instructions that can raise them become fetch barriers;
     * under the replay queue their sources release at completion. A
     * raising instruction switches its warp into a GPU trap handler.
     */
    bool arithExceptions = false;
    /** Trap handler routine latency for arithmetic exceptions. */
    Cycle trapHandlerCycles = 500;

    /** Paper Table 1 defaults. */
    static GpuConfig baseline();
};

} // namespace gex::gpu

#endif // GEX_GPU_CONFIG_HPP
