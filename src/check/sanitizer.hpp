/**
 * @file
 * SimSanitizer: the runtime invariant sanitizer behind `--check`
 * (docs/VALIDATION.md). A PipelineObserver that shadows the SM
 * pipelines off the instruction-lifecycle event stream plus a few
 * targeted hooks, and raises InvariantError (exit code 7) the moment
 * the simulator violates a modeled-hardware invariant:
 *
 *  - per-scheme protocol checkers: warp-disable fetch-barrier
 *    exclusivity, replay-queue scoreboard holds until the last TLB
 *    check, operand-log partition refcounts and capacity, and the
 *    precise-baseline rule that no preemption event ever appears;
 *  - structural checkers: event-heap (cycle, seq) monotonicity and
 *    never-into-the-past scheduling, exactly-once retirement of every
 *    traced instruction (the timing-side architectural oracle), and
 *    the TLB never caching a faulting translation;
 *  - drain checkers (checkDrained/finishRun): leak detection over the
 *    in-flight pool, scoreboard, replay queues, operand log, MSHRs
 *    and TLB miss queues once the machine claims quiescence.
 *
 * The sanitizer is exec-only: it forwards every event unchanged and
 * never mutates simulator state, so `--check` cannot alter results —
 * only detect that they were produced by a broken machine.
 */

#ifndef GEX_CHECK_SANITIZER_HPP
#define GEX_CHECK_SANITIZER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "check/hooks.hpp"
#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "obs/observer.hpp"

namespace gex::gpu {
struct GpuConfig;
}
namespace gex::isa {
class Program;
}
namespace gex::obs {
class PipelineView;
}
namespace gex::trace {
struct KernelTrace;
}
namespace gex::vm {
class Tlb;
class SystemMmu;
}
namespace gex::sm {
struct PipelineState;
enum class EvKind : std::uint8_t;
}

namespace gex::check {

class SimSanitizer : public obs::PipelineObserver
{
  public:
    /**
     * @p next is the downstream observer (the capture ring, or the
     * user's observer); every event forwards there *before* it is
     * checked, so a violation report's event tail includes the
     * violating event itself. @p tail, when non-null, is the capture
     * ring whose rendered table becomes the diagnostics bundle.
     */
    SimSanitizer(const gpu::GpuConfig &cfg, obs::PipelineObserver *next,
                 const obs::PipelineView *tail);

    /** Test-only deliberate violations (check/hooks.hpp). */
    ViolationHooks hooks;

    /** Size the shadow state for one kernel run. */
    void beginRun(const isa::Program &program,
                  const trace::KernelTrace &trace, int blocksPerSm,
                  int warpsPerBlock, std::uint32_t logPartitionBytes,
                  const vm::SystemMmu *mmu);

    /** Event-stream checkers; forwards to next, then checks (throws). */
    void event(const obs::PipeEvent &e) override;

    // --- targeted hooks (wired through PipelineState / sm::Sm) ----------

    /** The SM's tick begins: its clock advanced to @p now. */
    void onCycleStart(int sm, Cycle now);
    /** An event entered the SM's heap (throws). */
    void onEventScheduled(int sm, Cycle cycle, std::uint64_t seq,
                          sm::EvKind kind);
    /** An event left the SM's heap (throws). */
    void onEventPopped(int sm, Cycle cycle, std::uint64_t seq);
    /** A thread block was installed into a slot. */
    void onBlockInstalled(int sm, int slot, std::uint32_t blockId,
                          int firstWarp, int numWarps);
    /**
     * An LSU request faulted on @p page at @p now; the invariant is
     * that no TLB level holds its translation as the request leaves
     * them (throws).
     */
    void onFaultedTranslation(int sm, int warp, Addr page,
                              const vm::Tlb &l1tlb, Cycle now);

    /**
     * Drain checker over one SM's pipeline state after the run loop
     * claims completion: leaked pool entries, scoreboard holds, warp
     * queues, operand-log bytes, and lazily-drained
     * MSHR/TLB-miss entries still pending past @p now.
     */
    void checkDrained(const sm::PipelineState &st, Cycle now) const;

    /** End-of-run shadow checks: exactly-once trace coverage, empty
     *  in-flight shadows, zero log bytes. */
    void finishRun(Cycle now);

    /** Build and throw the InvariantError for a violation. */
    [[noreturn]] void fail(const std::string &what, Cycle cycle, int sm,
                           int warp) const;

  private:
    /**
     * Bits of one traced instruction's shadow byte (flags_). The
     * in-flight bits describe the current issue: Squashed and
     * Committed clear all three, a re-issue sets them afresh.
     */
    enum InstFlag : std::uint8_t {
        kCommitted = 1,  ///< retired (exactly-once coverage)
        kInFlight = 2,   ///< issued, not yet committed or squashed
        kTlbChecked = 4, ///< its last TLB check happened this issue
        kGlobalMem = 8,  ///< a global-memory instruction (RQ hold)
    };

    static constexpr std::uint32_t kNoBlock = UINT32_MAX;

    struct WarpShadow {
        bool fetchDisabled = false;
        /** Barrier instruction allowed to fetch while disabled. */
        std::uint32_t allowFetchIdx = obs::PipeEvent::kNoIndex;
        std::uint32_t blockId = kNoBlock;
        int warpInBlock = -1;
        /** Index of the mapped (block, warp) in traceWarps_. */
        std::uint32_t traceWarp = 0;
        /**
         * Instructions this warp issued minus those it committed or
         * squashed. Signed: a block mapped onto two warps at once can
         * retire through the other one, which then goes negative.
         */
        std::int32_t inFlight = 0;
    };

    /** One traced warp's slice of flags_. */
    struct TracedWarp {
        std::size_t first = 0;  ///< its first byte in flags_
        std::uint32_t insts = 0;
        std::uint32_t retired = 0;
    };

    struct SlotShadow {
        std::uint32_t blockId = kNoBlock;
        int firstWarp = 0;
        int numWarps = 0;
        /** Operand-log partition bytes (spans blocks; reset per run). */
        std::int64_t logBytes = 0;
    };

    struct SmShadow {
        Cycle now = 0;
        bool popped = false;
        Cycle lastPopCycle = 0;
        std::uint64_t lastPopSeq = 0;
        /**
         * Seqs scheduled and not yet popped. It holds exactly what the
         * SM's event heap holds, so it grows to the heap's peak (tens
         * of events), never with the length of the run.
         */
        FlatMap<std::uint8_t> liveSeqs;
        std::vector<WarpShadow> warps;
        std::vector<SlotShadow> slots;
    };

    WarpShadow &warpAt(const obs::PipeEvent &e);
    /**
     * Shadow byte of @p e's traced instruction on its warp's mapped
     * (block, warp), or nullptr when no block is mapped or the index
     * lies beyond the trace.
     */
    std::uint8_t *instFlags(const WarpShadow &w, std::uint32_t traceIdx);

    const gpu::GpuConfig &cfg_;
    obs::PipelineObserver *next_;
    const obs::PipelineView *tail_;

    // Scheme traits, resolved once per run from the config.
    bool wdScheme_ = false;
    bool olScheme_ = false;
    bool rqScheme_ = false;
    bool preemptible_ = false;

    const vm::SystemMmu *mmu_ = nullptr;
    std::uint32_t partitionBytes_ = 0;

    std::vector<SmShadow> sms_;
    /** kGlobalMem or 0 per static instruction of the program. */
    std::vector<std::uint8_t> staticFlags_;
    /**
     * One InstFlag byte per traced instruction of the whole grid,
     * warp after warp in (block, warp) order; traceWarps_ slices it,
     * and blockFirst_[b] is block b's first entry there.
     */
    std::vector<std::uint8_t> flags_;
    std::vector<TracedWarp> traceWarps_;
    std::vector<std::uint32_t> blockFirst_;
};

} // namespace gex::check

#endif // GEX_CHECK_SANITIZER_HPP
