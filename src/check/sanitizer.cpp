#include "check/sanitizer.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/log.hpp"
#include "gpu/config.hpp"
#include "isa/program.hpp"
#include "sm/exception_model.hpp"
#include "sm/pipeline.hpp"
#include "trace/trace.hpp"
#include "vm/fill_unit.hpp"
#include "vm/tlb.hpp"

namespace gex::check {

void
ViolationHooks::arm(const std::string &name)
{
    if (name == "none")
        return;
    if (name == "rq-hold")
        breakRqHold = true;
    else if (name == "ol-leak")
        leakLogEntry = true;
    else if (name == "event-seq")
        corruptEventSeq = true;
    else if (name == "double-commit")
        doubleCommit = true;
    else
        throw ConfigError(strprintf(
            "unknown violation hook '%s' (none, rq-hold, ol-leak, "
            "event-seq, double-commit)",
            name.c_str()));
}

SimSanitizer::SimSanitizer(const gpu::GpuConfig &cfg,
                           obs::PipelineObserver *next,
                           const obs::LastKObserver *tail)
    : cfg_(cfg), next_(next), tail_(tail)
{
    sm::SchemePolicy pol = sm::SchemePolicy::make(cfg.scheme);
    wdScheme_ = pol.fetchDisableOnGlobalMem;
    olScheme_ = pol.usesOperandLog;
    rqScheme_ = pol.holdSourcesUntilLastCheck;
    preemptible_ = pol.preemptible;
}

void
SimSanitizer::beginRun(const isa::Program &program,
                       const trace::KernelTrace &trace, int blocksPerSm,
                       int warpsPerBlock,
                       std::uint32_t logPartitionBytes,
                       const vm::SystemMmu *mmu)
{
    mmu_ = mmu;
    partitionBytes_ = logPartitionBytes;

    sms_.assign(static_cast<std::size_t>(cfg_.numSms), SmShadow());
    for (SmShadow &s : sms_) {
        s.warps.assign(
            static_cast<std::size_t>(blocksPerSm * warpsPerBlock),
            WarpShadow{});
        s.slots.assign(static_cast<std::size_t>(blocksPerSm),
                       SlotShadow{});
    }

    staticFlags_.resize(program.size());
    for (std::size_t i = 0; i < program.size(); ++i)
        staticFlags_[i] = program.at(static_cast<std::uint32_t>(i))
                                  .isGlobalMem()
                              ? kGlobalMem
                              : 0;

    traceWarps_.clear();
    blockFirst_.clear();
    std::size_t bytes = 0;
    for (const trace::BlockTrace &bt : trace.blocks) {
        blockFirst_.push_back(
            static_cast<std::uint32_t>(traceWarps_.size()));
        for (const trace::WarpTrace &wt : bt.warps) {
            TracedWarp tw;
            tw.first = bytes;
            tw.insts = static_cast<std::uint32_t>(wt.insts.size());
            traceWarps_.push_back(tw);
            bytes += wt.insts.size();
        }
    }
    flags_.assign(bytes, 0);
}

void
SimSanitizer::fail(const std::string &what, Cycle cycle, int sm,
                   int warp) const
{
    ErrorContext ctx;
    ctx.cycle = cycle;
    ctx.sm = sm;
    ctx.warp = warp;
    ctx.scheme = gpu::schemeName(cfg_.scheme);
    std::string diag;
    if (tail_) {
        diag = "  last pipeline events:\n";
        diag += tail_->render();
    } else {
        diag = "  (recent-event capture off; add --capture-events for "
               "the event tail)\n";
    }
    throw InvariantError(what, std::move(ctx), std::move(diag));
}

SimSanitizer::WarpShadow &
SimSanitizer::warpAt(const obs::PipeEvent &e)
{
    return sms_[static_cast<std::size_t>(e.sm)]
        .warps[static_cast<std::size_t>(e.warp)];
}

std::uint8_t *
SimSanitizer::instFlags(const WarpShadow &w, std::uint32_t traceIdx)
{
    if (w.blockId == kNoBlock)
        return nullptr;
    const TracedWarp &tw = traceWarps_[w.traceWarp];
    return traceIdx < tw.insts ? &flags_[tw.first + traceIdx] : nullptr;
}

void
SimSanitizer::event(const obs::PipeEvent &e)
{
    // Forward first: the violating event must reach the last-K ring
    // (and any user observer) before a violation renders it.
    if (next_)
        next_->event(e);
    if (e.sm < 0 || static_cast<std::size_t>(e.sm) >= sms_.size())
        return;
    SmShadow &s = sms_[static_cast<std::size_t>(e.sm)];

    using K = obs::PipeEventKind;
    switch (e.kind) {
      case K::Fetched: {
        WarpShadow &w = warpAt(e);
        if (w.fetchDisabled) {
            if (e.traceIdx == w.allowFetchIdx)
                w.allowFetchIdx = obs::PipeEvent::kNoIndex;
            else
                fail(strprintf(
                         "warp-disable violation: instruction fetched "
                         "past an engaged fetch barrier (trace idx %u)",
                         e.traceIdx),
                     e.cycle, e.sm, e.warp);
        }
        break;
      }
      case K::FetchDisabled: {
        if (!wdScheme_)
            fail("fetch barrier engaged outside a warp-disable scheme",
                 e.cycle, e.sm, e.warp);
        WarpShadow &w = warpAt(e);
        if (w.fetchDisabled)
            fail("warp-disable exclusivity violation: second fetch "
                 "barrier engaged while one is already in flight",
                 e.cycle, e.sm, e.warp);
        w.fetchDisabled = true;
        w.allowFetchIdx = e.traceIdx;
        break;
      }
      case K::FetchReenabled: {
        WarpShadow &w = warpAt(e);
        if (!w.fetchDisabled)
            fail("fetch re-enabled without an engaged fetch barrier",
                 e.cycle, e.sm, e.warp);
        w.fetchDisabled = false;
        w.allowFetchIdx = obs::PipeEvent::kNoIndex;
        break;
      }
      case K::Issued: {
        WarpShadow &w = warpAt(e);
        if (w.blockId == kNoBlock)
            fail("issue on a warp with no installed thread block",
                 e.cycle, e.sm, e.warp);
        const TracedWarp &tw = traceWarps_[w.traceWarp];
        if (e.traceIdx >= tw.insts)
            fail(strprintf("issue beyond the warp's trace (idx %u of "
                           "%zu traced instructions)",
                           e.traceIdx, static_cast<std::size_t>(tw.insts)),
                 e.cycle, e.sm, e.warp);
        std::uint8_t &f = flags_[tw.first + e.traceIdx];
        if (f & kInFlight)
            fail(strprintf("instruction issued twice without an "
                           "intervening commit or squash (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        const std::uint8_t mem = e.staticIdx < staticFlags_.size()
                                     ? staticFlags_[e.staticIdx]
                                     : 0;
        f = static_cast<std::uint8_t>((f & kCommitted) | kInFlight | mem);
        ++w.inFlight;
        break;
      }
      case K::SourcesHeld:
        break;
      case K::SourcesReleased: {
        if (!rqScheme_)
            break;
        const std::uint8_t *f = instFlags(warpAt(e), e.traceIdx);
        // A squashed instruction's release is exempt: Squashed clears
        // the in-flight bits before its SourcesReleased arrives.
        if (f && (*f & (kInFlight | kGlobalMem | kTlbChecked)) ==
                     (kInFlight | kGlobalMem))
            fail(strprintf(
                     "replay-queue hold violation: sources of "
                     "global-memory instruction (trace idx %u) released "
                     "before its last TLB check",
                     e.traceIdx),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::LogAllocated: {
        if (!olScheme_)
            fail("operand-log allocation outside the operand-log "
                 "scheme",
                 e.cycle, e.sm, e.warp);
        if (e.slot < 0 ||
            static_cast<std::size_t>(e.slot) >= s.slots.size())
            break;
        SlotShadow &sl = s.slots[static_cast<std::size_t>(e.slot)];
        sl.logBytes += static_cast<std::int64_t>(e.arg);
        if (sl.logBytes > static_cast<std::int64_t>(partitionBytes_))
            fail(strprintf("operand-log capacity violation: partition "
                           "%d holds %lld bytes of a %u-byte partition",
                           static_cast<int>(e.slot),
                           static_cast<long long>(sl.logBytes),
                           partitionBytes_),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::LogReleased: {
        if (e.slot < 0 ||
            static_cast<std::size_t>(e.slot) >= s.slots.size())
            break;
        SlotShadow &sl = s.slots[static_cast<std::size_t>(e.slot)];
        sl.logBytes -= static_cast<std::int64_t>(e.arg);
        if (sl.logBytes < 0)
            fail(strprintf("operand-log refcount violation: partition "
                           "%d released below zero",
                           static_cast<int>(e.slot)),
                 e.cycle, e.sm, e.warp);
        break;
      }
      case K::TlbChecked: {
        std::uint8_t *f = instFlags(warpAt(e), e.traceIdx);
        if (!f || !(*f & kInFlight))
            fail(strprintf("last TLB check for an instruction that is "
                           "not in flight (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        *f |= kTlbChecked;
        break;
      }
      case K::Faulted: {
        if (!preemptible_)
            fail("precise-baseline violation: preemptible fault event "
                 "under a stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        // The fault reaction clears the warp-disable barrier without a
        // FetchReenabled event (the squash re-fetches the barrier
        // instruction); mirror that silently.
        WarpShadow &w = warpAt(e);
        w.fetchDisabled = false;
        w.allowFetchIdx = obs::PipeEvent::kNoIndex;
        break;
      }
      case K::Squashed: {
        if (!preemptible_)
            fail("precise-baseline violation: squash under a "
                 "stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        WarpShadow &w = warpAt(e);
        std::uint8_t *f = instFlags(w, e.traceIdx);
        if (!f || !(*f & kInFlight))
            fail(strprintf("squash of an instruction that is not in "
                           "flight (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        *f &= kCommitted;
        --w.inFlight;
        break;
      }
      case K::Replayed:
        if (!preemptible_)
            fail("precise-baseline violation: replay under a "
                 "stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        break;
      case K::TrapEntered:
        if (!preemptible_)
            fail("precise-baseline violation: trap entry under a "
                 "stall-on-fault scheme",
                 e.cycle, e.sm, e.warp);
        break;
      case K::Committed: {
        WarpShadow &w = warpAt(e);
        if (w.blockId == kNoBlock)
            fail("commit on a warp with no installed thread block",
                 e.cycle, e.sm, e.warp);
        TracedWarp &tw = traceWarps_[w.traceWarp];
        if (e.traceIdx >= tw.insts)
            fail(strprintf("commit beyond the warp's trace (idx %u of "
                           "%zu traced instructions)",
                           e.traceIdx, static_cast<std::size_t>(tw.insts)),
                 e.cycle, e.sm, e.warp);
        std::uint8_t &f = flags_[tw.first + e.traceIdx];
        if (f & kCommitted)
            fail(strprintf("exactly-once retirement violation: "
                           "instruction committed twice (block %u, "
                           "warp %d, trace idx %u)",
                           w.blockId, w.warpInBlock, e.traceIdx),
                 e.cycle, e.sm, e.warp);
        const bool issued = f & kInFlight;
        f = kCommitted;
        ++tw.retired;
        if (!issued)
            fail(strprintf("commit of an instruction that never "
                           "issued (trace idx %u)",
                           e.traceIdx),
                 e.cycle, e.sm, e.warp);
        --w.inFlight;
        break;
      }
      case K::ContextSaved: {
        if (e.slot < 0 ||
            static_cast<std::size_t>(e.slot) >= s.slots.size())
            break;
        SlotShadow &sl = s.slots[static_cast<std::size_t>(e.slot)];
        for (int j = 0; j < sl.numWarps; ++j) {
            WarpShadow &w =
                s.warps[static_cast<std::size_t>(sl.firstWarp + j)];
            if (w.fetchDisabled)
                fail("context saved with an engaged fetch barrier",
                     e.cycle, e.sm, sl.firstWarp + j);
            if (w.inFlight != 0)
                fail(strprintf("context saved with %d in-flight "
                               "instructions",
                               w.inFlight),
                     e.cycle, e.sm, sl.firstWarp + j);
            w.blockId = kNoBlock;
            w.warpInBlock = -1;
        }
        sl.blockId = kNoBlock;
        break;
      }
      case K::ContextRestored:
        break; // mapping updates through onBlockInstalled
    }
}

void
SimSanitizer::onCycleStart(int sm, Cycle now)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    if (now < s.now)
        fail(strprintf("event-heap violation: SM clock moved backwards "
                       "(tick at cycle %llu after cycle %llu)",
                       static_cast<unsigned long long>(now),
                       static_cast<unsigned long long>(s.now)),
             now, sm, -1);
    s.now = now;
    // Pop-order monotonicity is a per-tick property: processEvents
    // pops everything with cycle <= now in (cycle, seq) heap order
    // each tick, so only within one tick does a regression indicate a
    // corrupted heap (see onEventPopped).
    s.popped = false;
}

namespace {

/** sm::EvKind names, in enumerator order. */
constexpr const char *kEvNames[] = {
    "SourceRelease", "LastCheck", "Commit",      "FaultReact",
    "WarpResume",    "SaveReady", "SaveDone",    "RestoreDone",
    "SlotRetry",     "TrapEnter",
};
static_assert(std::size(kEvNames) ==
                  static_cast<std::size_t>(sm::EvKind::NumEvKinds),
              "one name per sm::EvKind");

} // namespace

void
SimSanitizer::onEventScheduled(int sm, Cycle cycle, std::uint64_t seq,
                               sm::EvKind kind)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    // Never-into-the-past, with one documented carve-out: a warp
    // joining a fault that has been outstanding for a while inherits
    // the *original* detect time from the TLB's pending-miss entry
    // (vm/tlb.cpp merge path), so its FaultReact legitimately targets
    // a past cycle — the event still fires on the very next tick.
    if (cycle < s.now && kind != sm::EvKind::FaultReact)
        fail(strprintf("event-heap violation: %s event scheduled into the "
                       "past (target cycle %llu < current cycle %llu)",
                       kEvNames[static_cast<std::size_t>(kind)],
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(s.now)),
             s.now, sm, -1);
    if (!s.liveSeqs.insert(seq))
        fail(strprintf("event-heap violation: duplicate event sequence "
                       "number %llu",
                       static_cast<unsigned long long>(seq)),
             s.now, sm, -1);
}

void
SimSanitizer::onEventPopped(int sm, Cycle cycle, std::uint64_t seq)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    if (s.popped &&
        (cycle < s.lastPopCycle ||
         (cycle == s.lastPopCycle && seq <= s.lastPopSeq)))
        fail(strprintf("event-heap violation: events popped out of "
                       "(cycle, seq) order — (%llu, %llu) after "
                       "(%llu, %llu)",
                       static_cast<unsigned long long>(cycle),
                       static_cast<unsigned long long>(seq),
                       static_cast<unsigned long long>(s.lastPopCycle),
                       static_cast<unsigned long long>(s.lastPopSeq)),
             s.now, sm, -1);
    if (!s.liveSeqs.erase(seq))
        fail(strprintf("event-heap violation: popped an event that was "
                       "never scheduled (seq %llu)",
                       static_cast<unsigned long long>(seq)),
             s.now, sm, -1);
    s.popped = true;
    s.lastPopCycle = cycle;
    s.lastPopSeq = seq;
}

void
SimSanitizer::onBlockInstalled(int sm, int slot, std::uint32_t blockId,
                               int firstWarp, int numWarps)
{
    SmShadow &s = sms_[static_cast<std::size_t>(sm)];
    SlotShadow &sl = s.slots[static_cast<std::size_t>(slot)];
    sl.blockId = blockId;
    sl.firstWarp = firstWarp;
    sl.numWarps = numWarps;
    for (int j = 0; j < numWarps; ++j) {
        WarpShadow &w = s.warps[static_cast<std::size_t>(firstWarp + j)];
        // Only the block mapping updates: the warp-disable shadow and
        // the in-flight count track the continuous event stream.
        w.blockId = blockId;
        w.warpInBlock = j;
        w.traceWarp = blockFirst_[blockId] + static_cast<std::uint32_t>(j);
    }
}

void
SimSanitizer::onFaultedTranslation(int sm, int warp, Addr page,
                                   const vm::Tlb &l1tlb, Cycle now)
{
    if (l1tlb.contains(page))
        fail(strprintf("TLB caching violation: L1 TLB holds the "
                       "faulting translation of page 0x%llx",
                       static_cast<unsigned long long>(page)),
             now, sm, warp);
    if (mmu_ && mmu_->l2Tlb().contains(page))
        fail(strprintf("TLB caching violation: shared L2 TLB holds the "
                       "faulting translation of page 0x%llx",
                       static_cast<unsigned long long>(page)),
             now, sm, warp);
}

void
SimSanitizer::checkDrained(const sm::PipelineState &st, Cycle now) const
{
    for (std::size_t i = 0; i < st.pool.size(); ++i)
        if (st.pool[i].live)
            fail(strprintf("leak at drain: in-flight pool entry %zu "
                           "still live (trace idx %u)",
                           i, st.pool[i].traceIdx),
                 now, st.smId, st.pool[i].warp);
    for (const sm::TbSlot &ts : st.slots)
        if (ts.state != sm::TbSlot::State::Empty)
            fail("leak at drain: thread-block slot not empty after the "
                 "run claimed completion",
                 now, st.smId, -1);
    for (int w = 0; w < st.activeWarps; ++w) {
        const sm::WarpRt &wr = st.warps[static_cast<std::size_t>(w)];
        if (wr.slot >= 0)
            fail("leak at drain: warp still owns a thread-block slot",
                 now, st.smId, w);
        if (wr.inflight != 0 || !wr.replayQ.empty() || !wr.ibuf.empty())
            fail(strprintf("leak at drain: warp state not empty "
                           "(inflight %d, replayQ %zu, ibuf %zu)",
                           wr.inflight, wr.replayQ.size(),
                           wr.ibuf.size()),
                 now, st.smId, w);
        if (wr.wdFetchDisable)
            fail("leak at drain: warp-disable fetch barrier still "
                 "engaged",
                 now, st.smId, w);
        if (!st.sb.clean(w))
            fail("leak at drain: scoreboard entries still held", now,
                 st.smId, w);
    }
    if (st.policy.usesOperandLog)
        for (int p = 0; p < st.li.blocksPerSm; ++p)
            if (st.log.used(p) != 0)
                fail(strprintf("leak at drain: operand-log partition "
                               "%d holds %u bytes",
                               p, st.log.used(p)),
                     now, st.smId, -1);
    if (!st.offchip.empty())
        fail("leak at drain: blocks still switched out off-chip", now,
             st.smId, -1);
    for (const sm::OffchipBlock &rb : st.restorePending)
        if (rb.bt != nullptr)
            fail("leak at drain: context restore still pending", now,
                 st.smId, -1);
    if (st.inflightMem != 0)
        fail(strprintf("leak at drain: LSU in-flight count is %d",
                       st.inflightMem),
             now, st.smId, -1);
    // MSHRs and TLB miss queues drain lazily: quiescence at cycle N
    // means nothing outstanding past N, not emptiness.
    if (st.lsu.l1Tlb().maxPendingExpiry() > now)
        fail("leak at drain: L1 TLB miss outstanding past the end of "
             "the run",
             now, st.smId, -1);
    if (st.lsu.l1().maxPendingReady() > now)
        fail("leak at drain: L1 MSHR entry outstanding past the end of "
             "the run",
             now, st.smId, -1);
}

void
SimSanitizer::finishRun(Cycle now)
{
    for (std::size_t b = 0; b < blockFirst_.size(); ++b) {
        const std::size_t end = b + 1 < blockFirst_.size()
                                    ? blockFirst_[b + 1]
                                    : traceWarps_.size();
        for (std::size_t w = 0; w < end - blockFirst_[b]; ++w) {
            const TracedWarp &tw = traceWarps_[blockFirst_[b] + w];
            if (tw.retired != tw.insts)
                fail(strprintf(
                         "architectural coverage violation: block %zu "
                         "warp %zu retired %llu of %zu traced "
                         "instructions",
                         b, w,
                         static_cast<unsigned long long>(tw.retired),
                         static_cast<std::size_t>(tw.insts)),
                     now, -1, -1);
        }
    }
    for (std::size_t i = 0; i < sms_.size(); ++i) {
        const SmShadow &s = sms_[i];
        for (std::size_t w = 0; w < s.warps.size(); ++w) {
            if (s.warps[w].inFlight != 0)
                fail(strprintf("shadow leak at drain: %d instructions "
                               "issued but never retired or squashed",
                               s.warps[w].inFlight),
                     now, static_cast<int>(i), static_cast<int>(w));
            if (s.warps[w].fetchDisabled)
                fail("shadow leak at drain: fetch barrier engaged at "
                     "end of run",
                     now, static_cast<int>(i), static_cast<int>(w));
        }
        for (std::size_t p = 0; p < s.slots.size(); ++p)
            if (s.slots[p].logBytes != 0)
                fail(strprintf("operand-log accounting violation: "
                               "partition %zu ends the run with %lld "
                               "bytes",
                               p,
                               static_cast<long long>(
                                   s.slots[p].logBytes)),
                     now, static_cast<int>(i), -1);
    }
}

} // namespace gex::check
