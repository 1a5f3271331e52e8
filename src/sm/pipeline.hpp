/**
 * @file
 * Shared state of the SM pipeline: the runtime structures every stage
 * module (src/sm/stages) ticks over — per-warp state, the in-flight
 * instruction pool, the event heap, backend unit ports, statistics —
 * plus the observer emission points.
 *
 * PipelineState is plain data with small inline helpers; the pipeline
 * *logic* lives in the stage modules (fetch, decode, issue,
 * operand-collect, mem-check, commit) and the block-lifecycle /
 * context-switch machinery stays in sm::Sm. Splitting state from
 * stages keeps each stage a small unit while every stage still sees
 * the one shared pipeline, exactly as the hardware's stages share
 * latches and the scoreboard.
 */

#ifndef GEX_SM_PIPELINE_HPP
#define GEX_SM_PIPELINE_HPP

#include <algorithm>
#include <queue>
#include <vector>

#include "common/bitmask.hpp"
#include "common/log.hpp"
#include "common/ring.hpp"
#include "func/kernel.hpp"
#include "gpu/config.hpp"
#include "obs/observer.hpp"
#include "sm/exception_model.hpp"
#include "sm/lsu.hpp"
#include "sm/scoreboard.hpp"
#include "trace/trace.hpp"

namespace gex::check {
class SimSanitizer;
}

namespace gex::sm {

/** Per-kernel launch geometry computed by the GPU front end. */
struct LaunchInfo {
    const func::Kernel *kernel = nullptr;
    const trace::KernelTrace *trace = nullptr;
    int warpsPerBlock = 0;
    int blocksPerSm = 0;           ///< occupancy (resident TBs per SM)
    std::uint64_t contextBytesPerBlock = 0;
};

/** Non-instruction pipeline events and context-switch steps. */
enum class EvKind : std::uint8_t {
    SourceRelease, LastCheck, Commit, FaultReact, WarpResume,
    SaveReady, SaveDone, RestoreDone, SlotRetry, TrapEnter,
};

struct Event {
    Cycle cycle;
    std::uint64_t seq;
    EvKind kind;
    std::int32_t arg;   ///< warp or slot index
    std::uint32_t id;   ///< inflight pool index (when applicable)
    bool
    operator>(const Event &o) const
    {
        return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
    }
};

/** One issued-but-not-retired instruction (pool slot). */
struct Inflight {
    std::uint32_t traceIdx = 0;
    int warp = -1;
    const trace::TraceInst *ti = nullptr;
    const isa::Instruction *si = nullptr;
    Cycle commitAt = 0;
    MemTimeline mem;
    bool isGlobalMem = false;
    bool isControl = false;
    bool isArithBarrier = false; ///< wd fetch barrier for arith exc.
    bool squashed = false;
    bool sourcesHeld = false;
    bool dstHeld = false;
    bool logHeld = false;
    std::uint32_t logBytes = 0;
    int logPartition = 0;
    int eventsLeft = 0;    ///< pool slot frees when this hits 0
    bool live = false;
};

/** Decoded-instruction buffer entry (see stages/decode.hpp). */
struct InstBufEntry {
    std::uint32_t idx;
    Cycle readyAt;
    bool replayed; ///< fetched from the replay queue, not at fetchIdx
};

struct WarpRt {
    // The fields below are everything the fetch/issue scans touch
    // for a warp the readiness masks do not already rule out; they
    // are kept together (ahead of the rings) so a failing check
    // reads one cache line per warp.
    int slot = -1;
    int controlPending = 0;
    bool wdFetchDisable = false;
    bool waitingBarrier = false;
    bool exitFetched = false;
    bool exitCommitted = false;
    bool finished = false;
    bool faultBlocked = false;
    bool frozen = false;       ///< TB draining for a context switch
    std::uint32_t fetchIdx = 0;
    const trace::WarpTrace *tr = nullptr;
    Cycle fetchResumeAt = 0;   ///< wd re-enable pipeline refill
    /**
     * Issue-stall memo: the head trace index that last failed the
     * scoreboard checks and the warp's scoreboard generation at
     * that moment. While both still match, the same checks would
     * fail identically, so the issue stage re-registers the stall
     * without re-decoding the instruction.
     */
    std::uint32_t sbStallIdx = UINT32_MAX;
    std::uint64_t sbStallGen = 0;
    /** Cycle the current wd fetch barrier engaged (resilience stats). */
    Cycle wdDisabledSince = 0;
    // Inline ring buffers: the fetch/issue stages read them on every
    // visit, so the common-case queue state lives inside the WarpRt
    // itself (no per-entry heap nodes to chase).
    Ring<InstBufEntry, 4> ibuf;
    Ring<std::uint32_t, 4> replayQ;
    int inflight = 0;
    Cycle blockedUntil = 0;
    Cycle maxCommitScheduled = 0;

    bool
    schedulable() const
    {
        return slot >= 0 && !finished && !waitingBarrier &&
               !faultBlocked && !frozen;
    }
};

struct TbSlot {
    enum class State : std::uint8_t {
        Empty, Running, Draining, Saving, Restoring,
    };
    State state = State::Empty;
    std::uint32_t blockId = 0;
    const trace::BlockTrace *bt = nullptr;
    int firstWarp = 0;
    int numWarps = 0;
    int warpsFinished = 0;
    Cycle faultReadyAt = 0;
    Cycle installedAt = 0; ///< for the UC1 anti-churn residency rule
};

struct SavedWarp {
    std::uint32_t fetchIdx = 0;
    Ring<std::uint32_t, 4> replayQ;
    bool waitingBarrier = false;
    bool finished = false;
};

struct OffchipBlock {
    std::uint32_t blockId = 0;
    const trace::BlockTrace *bt = nullptr;
    std::vector<SavedWarp> warps;
    Cycle readyAt = 0;
};

/**
 * One shared-memory-system operation staged by the SM-local tick
 * phases for the serial drain phase (Sm::drainShared). The phased
 * tick engine keeps L2/DRAM/MMU port reservations in ascending-SM
 * FIFO order — the exact order the unsplit serial tick produced — by
 * recording each would-be access here instead of performing it
 * in-place, together with the event sequence number(s) reserved at
 * the original call site so the resulting events keep their exact
 * position in the (cycle, seq) total order.
 */
struct StagedOp {
    enum class Kind : std::uint8_t {
        /** Global-memory instruction: LSU translate + cache access
         *  (deferred tail of IssueStage::tryIssueHead; two seqs
         *  reserved, LastCheck/FaultReact then Commit). */
        Mem,
        /** Context save/restore bulk DRAM transfer (deferred from the
         *  SaveReady handler / fillEmptySlots; one seq reserved for
         *  the completion event). */
        Bulk,
    };
    Kind kind;
    EvKind doneKind;    ///< Bulk: SaveDone or RestoreDone
    std::int32_t arg;   ///< Bulk: slot; Mem: warp
    std::uint32_t id;   ///< Mem: inflight id; Bulk: restore id payload
    std::uint64_t seq;  ///< first reserved event sequence number
};

/**
 * The counters a tick that does no work can still move: the issue
 * scan's stall and back-pressure counts. Every other effect of such a
 * tick is an idempotent mask or memo bit, so an idle SM's next ticks
 * repeat it exactly until an event arrives; Sm::trySleep skips them
 * and charges each one tick's worth of these counters in bulk. A new
 * counter that an idle tick can move belongs here.
 */
struct StallCounters {
    std::uint64_t scoreboard = 0;
    std::uint64_t lsuQueue = 0;
    std::uint64_t log = 0;
    std::uint64_t logBackpressureCycles = 0;
    std::uint64_t logAllocFailures = 0;

    StallCounters
    operator-(const StallCounters &o) const
    {
        return {scoreboard - o.scoreboard, lsuQueue - o.lsuQueue,
                log - o.log, logBackpressureCycles - o.logBackpressureCycles,
                logAllocFailures - o.logAllocFailures};
    }

    StallCounters
    operator*(std::uint64_t n) const
    {
        return {scoreboard * n, lsuQueue * n, log * n,
                logBackpressureCycles * n, logAllocFailures * n};
    }
};

/**
 * Everything the stage modules share. Helpers that run on the
 * fetch/issue/event hot paths are defined inline here so the stage
 * split does not cost the timing loop any cross-module calls.
 */
struct PipelineState {
    PipelineState(int id, const gpu::GpuConfig &config, MemorySystem &sys);

    int smId;
    const gpu::GpuConfig &cfg;
    SchemePolicy policy;
    Scoreboard sb;
    OperandLog log;
    Lsu lsu;

    LaunchInfo li;
    /**
     * Warps actually populated by the current kernel (blocksPerSm ×
     * warpsPerBlock). The fetch/issue scans rotate over only these;
     * slots past the count can never become schedulable, and skipping
     * them preserves the visit order of the live ones exactly.
     */
    int activeWarps = 0;
    std::vector<WarpRt> warps;

    // Readiness masks, one bit per warp slot. A set bit records what a
    // scan found out about the warp; it stays valid until an event
    // mutates the warp, and every such event calls wakeWarp, which
    // clears all three. The scans walk only the warps clear in the
    // masks that gate them (MaskWalk), so a set bit costs nothing.

    /**
     * A scan found the warp !schedulable() (no block, finished, at a
     * barrier, fault-blocked, or frozen for a context switch). Every
     * transition back to schedulable calls wakeWarp. Fetch and issue
     * both skip these warps: visiting one has no effect.
     */
    Bitmask unschedulable;
    /**
     * The last fetch scan found the warp blocked for a *state* reason
     * (buffer full, pending control, fetch-disable, trace drained) —
     * nothing time-based: a warp waiting only on fetchResumeAt stays
     * clear, since time unblocks it without a state change. A failed
     * fetch has no side effects, so skipping it is invisible.
     */
    Bitmask fetchBlocked;
    /**
     * The warp is schedulable, its ibuf head has passed its ready
     * cycle, and that head already failed the scoreboard checks with
     * no scoreboard change since. A rescan would fail the same way
     * with exactly one stallScoreboard increment, so the issue scan
     * walks past the warp and adds the stalls it passed by popcount.
     */
    Bitmask issueStalled;

    std::vector<TbSlot> slots;
    std::vector<OffchipBlock> offchip;
    std::vector<OffchipBlock> restorePending;
    int extraBlocksBrought = 0;
    Cycle lsuIssuedAt = kNoCycle;
    /** Earliest pending SlotRetry event (dedup; kNoCycle = none). */
    Cycle slotRetryAt = kNoCycle;

    std::vector<Inflight> pool;
    std::vector<std::uint32_t> freeList;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::uint64_t eventSeq = 0;

    mem::Port mathPort;
    mem::Port sfuPort;
    mem::Port branchPort;
    mem::Port sharedPort;
    int inflightMem = 0;
    int rrFetch = 0;
    int rrIssue = 0;
    bool didWork = false;
    /**
     * A TB slot went Empty this cycle (block finished or saved
     * off-chip). The only cycles in which Gpu::allDone() can flip
     * true, so the driver's per-cycle completion scan is gated on it.
     */
    bool slotReleased = false;

    /**
     * Shared-resource operations staged by this cycle's SM-local
     * phases, in program order (event-handler stagings first, then at
     * most one issued memory instruction). Drained FIFO by
     * Sm::drainShared in ascending SM order and always empty between
     * cycles.
     */
    std::vector<StagedOp> staged;

    /** Attached observer; nullptr (the default) disables all tracing. */
    obs::PipelineObserver *obs = nullptr;
    /**
     * Attached invariant sanitizer (--check); nullptr (the default)
     * disables the event-heap shadow at the cost of one
     * predicted-not-taken branch per scheduled event.
     */
    check::SimSanitizer *san = nullptr;
    /**
     * Events emitted this cycle, buffered until this SM's drain phase
     * so parallel SM-local phases never call the (shared) observer
     * concurrently. Flushing in ascending SM order per cycle replays
     * the exact sequence the serial tick delivered. Empty whenever no
     * observer is attached (the emit guards never run).
     */
    std::vector<obs::PipeEvent> obsBuf;

    // statistics
    std::uint64_t instsCommitted = 0;
    std::uint64_t instsIssued = 0;
    std::uint64_t fetches = 0;
    std::uint64_t stallScoreboard = 0;
    std::uint64_t stallLog = 0;
    std::uint64_t stallLsuQueue = 0;
    std::uint64_t faultsSeen = 0;
    std::uint64_t faultsJoined = 0;
    std::uint64_t faultsGpuHandled = 0;
    std::uint64_t switchOuts = 0;
    std::uint64_t switchIns = 0;
    std::uint64_t newBlocksViaSwitch = 0;
    std::uint64_t systemModeCycles = 0;
    std::uint64_t trapsHandled = 0;
    std::uint64_t arithReportedOnly = 0;
    std::uint64_t contextBytesMoved = 0;
    std::uint64_t blocksCompleted = 0;

    // Resilience counters (emitted only through the opt-in
    // Sm::collectResilienceStats block; tracked unconditionally —
    // every site is on a fault/stall path, never the per-cycle scans).
    /** Replays queued per warp slot, accumulated across blocks. */
    std::vector<std::uint32_t> replaysPerWarp;
    /** Deepest replay queue any warp ever reached. */
    std::size_t replayQHwm = 0;
    /** Cycles with at least one warp refused issue for log space. */
    std::uint64_t logBackpressureCycles = 0;
    Cycle lastLogStallCycle = kNoCycle;
    /** Warp-cycles spent fault-blocked (squash-to-resume windows). */
    std::uint64_t faultBlockedCycles = 0;
    /** Warp-cycles spent under a warp-disable fetch barrier. */
    std::uint64_t fetchDisabledCycles = 0;

    /**
     * Extend a warp's blocked window to @p until and account the
     * newly-added span (fault reaction and trap paths). Call before
     * setting faultBlocked so the previous state is visible.
     */
    void
    extendBlocked(WarpRt &w, Cycle now, Cycle until)
    {
        Cycle from = w.faultBlocked ? std::max(w.blockedUntil, now) : now;
        if (until > w.blockedUntil)
            w.blockedUntil = until;
        if (w.blockedUntil > from)
            faultBlockedCycles += w.blockedUntil - from;
    }

    /** The StallCounters, read from where they live. */
    StallCounters
    stallCounters() const
    {
        return {stallScoreboard, stallLsuQueue, stallLog,
                logBackpressureCycles, log.allocFailures()};
    }

    /** Add @p c to the StallCounters where they live. */
    void
    addStalls(const StallCounters &c)
    {
        stallScoreboard += c.scoreboard;
        stallLsuQueue += c.lsuQueue;
        stallLog += c.log;
        logBackpressureCycles += c.logBackpressureCycles;
        log.addFailures(c.logAllocFailures);
    }

    // --- hot-path helpers (inline: see file comment) -------------------

    /**
     * A scan's visit order over the live warps, given the stage's last
     * pick. LRR starts just past it and wraps. GTO retries it, then
     * goes oldest (lowest slot) first over all of them.
     */
    MaskWalk
    scanOrder(int last) const
    {
        const int n = activeWarps;
        if (cfg.sm.schedPolicy == gpu::SchedPolicy::GreedyThenOldest)
            return MaskWalk(last, 0, n);
        const int start = std::min(last, n - 1) + 1;
        return MaskWalk(-1, start == n ? 0 : start, n);
    }

    void
    wakeWarp(int w)
    {
        unschedulable.reset(w);
        fetchBlocked.reset(w);
        issueStalled.reset(w);
    }

    std::uint32_t
    allocInflight()
    {
        if (!freeList.empty()) {
            std::uint32_t id = freeList.back();
            freeList.pop_back();
            pool[id] = Inflight{};
            pool[id].live = true;
            return id;
        }
        pool.push_back(Inflight{});
        pool.back().live = true;
        return static_cast<std::uint32_t>(pool.size() - 1);
    }

    /** Schedule a non-instruction event (id is free payload). */
    void
    scheduleEvent(Cycle cycle, EvKind kind, std::int32_t arg,
                  std::uint32_t id)
    {
        events.push(Event{cycle, ++eventSeq, kind, arg, id});
        if (san)
            sanEventScheduled(cycle, eventSeq, kind);
    }

    /** Schedule an event referencing inflight record @p id. */
    void
    scheduleInstEvent(Cycle cycle, EvKind kind, std::int32_t arg,
                      std::uint32_t id)
    {
        events.push(Event{cycle, ++eventSeq, kind, arg, id});
        ++pool[id].eventsLeft;
        if (san)
            sanEventScheduled(cycle, eventSeq, kind);
    }

    /**
     * Reserve @p n consecutive event sequence numbers for a StagedOp.
     * Taking them at the original (staging) call site keeps the
     * (cycle, seq) tie-break order of the later-materialized events
     * identical to the unstaged schedule; an unused reserved seq (the
     * faulted-instruction case) leaves a harmless gap.
     */
    std::uint64_t
    reserveSeq(std::uint64_t n = 1)
    {
        std::uint64_t first = eventSeq + 1;
        eventSeq += n;
        return first;
    }

    /** Materialize a staged event with its reserved seq. */
    void
    scheduleEventAt(Cycle cycle, std::uint64_t seq, EvKind kind,
                    std::int32_t arg, std::uint32_t id)
    {
        events.push(Event{cycle, seq, kind, arg, id});
        if (san)
            sanEventScheduled(cycle, seq, kind);
    }

    /** Same, referencing inflight record @p id. */
    void
    scheduleInstEventAt(Cycle cycle, std::uint64_t seq, EvKind kind,
                        std::int32_t arg, std::uint32_t id)
    {
        events.push(Event{cycle, seq, kind, arg, id});
        ++pool[id].eventsLeft;
        if (san)
            sanEventScheduled(cycle, seq, kind);
    }

    /**
     * Un-fetch a warp's decoded-instruction buffer (squash and drain
     * paths): entries fetched from the replay queue go back into it,
     * fetchIdx rewinds to the oldest entry fetched at fetchIdx, and
     * the control-pending counts the buffered instructions contributed
     * are dropped.
     */
    void revertIbuf(WarpRt &w);

    /** Queue @p trace_idx for re-fetch, keeping replayQ sorted. */
    static void insertReplay(WarpRt &w, std::uint32_t trace_idx);

    void
    retireEventRef(std::uint32_t id)
    {
        Inflight &in = pool[id];
        GEX_ASSERT(in.eventsLeft > 0);
        if (--in.eventsLeft == 0 && in.live && in.squashed) {
            in.live = false;
            freeList.push_back(id);
        }
    }

    // --- observer emission ---------------------------------------------
    // One predicted-not-taken branch when no observer is attached; the
    // event construction lives out of line. Emission appends to obsBuf
    // (fields captured at emit time); the virtual observer dispatch
    // happens when Sm::drainShared flushes the buffer.

    /** Warp-level event (slot taken from the warp's runtime state). */
    void
    emitWarp(Cycle now, obs::PipeEventKind k, int w, std::uint64_t arg = 0)
    {
        if (obs)
            emitWarpSlow(now, k, w, arg);
    }

    /** Instruction-level event for an in-flight record. */
    void
    emitInst(Cycle now, obs::PipeEventKind k, const Inflight &in,
             std::uint64_t arg = 0)
    {
        if (obs)
            emitInstSlow(now, k, in, arg);
    }

    /** Instruction-level event before an Inflight record exists. */
    void
    emitFetch(Cycle now, obs::PipeEventKind k, int w,
              std::uint32_t trace_idx, std::uint32_t static_idx,
              std::uint64_t arg = 0)
    {
        if (obs)
            emitFetchSlow(now, k, w, trace_idx, static_idx, arg);
    }

    /** Block-level event (context save/restore). */
    void
    emitBlock(Cycle now, obs::PipeEventKind k, int slot,
              std::uint64_t block_id)
    {
        if (obs)
            emitBlockSlow(now, k, slot, block_id);
    }

  private:
    /** Out of line so this header need not see the sanitizer class. */
    void sanEventScheduled(Cycle cycle, std::uint64_t seq, EvKind kind);
    void emitWarpSlow(Cycle now, obs::PipeEventKind k, int w,
                      std::uint64_t arg);
    void emitInstSlow(Cycle now, obs::PipeEventKind k, const Inflight &in,
                      std::uint64_t arg);
    void emitFetchSlow(Cycle now, obs::PipeEventKind k, int w,
                       std::uint32_t trace_idx, std::uint32_t static_idx,
                       std::uint64_t arg);
    void emitBlockSlow(Cycle now, obs::PipeEventKind k, int slot,
                       std::uint64_t block_id);
};

} // namespace gex::sm

#endif // GEX_SM_PIPELINE_HPP
