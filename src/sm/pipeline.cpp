#include "sm/pipeline.hpp"

#include "check/sanitizer.hpp"
#include "sm/stages/decode.hpp"

namespace gex::sm {

void
PipelineState::sanEventScheduled(Cycle cycle, std::uint64_t seq,
                                 EvKind kind)
{
    san->onEventScheduled(smId, cycle, seq, static_cast<int>(kind));
}

PipelineState::PipelineState(int id, const gpu::GpuConfig &config,
                             MemorySystem &sys)
    : smId(id), cfg(config), policy(SchemePolicy::make(config.scheme)),
      lsu(config.sm, sys), mathPort(config.sm.numMathUnits), sfuPort(1),
      branchPort(1), sharedPort(1)
{
    sb.init(cfg.sm.maxWarps);
    warps.resize(static_cast<size_t>(cfg.sm.maxWarps));
    unschedulable.resize(cfg.sm.maxWarps);
    fetchBlocked.resize(cfg.sm.maxWarps);
    issueStalled.resize(cfg.sm.maxWarps);
    replaysPerWarp.assign(static_cast<size_t>(cfg.sm.maxWarps), 0);
    // Pre-size the event heap from the config-derived in-flight bound:
    // each in-flight instruction carries at most three live events
    // (source release, last check, commit) and in-flight work per warp
    // is capped by the instruction buffer plus the LSU queue.
    std::vector<Event> backing;
    backing.reserve(static_cast<std::size_t>(cfg.sm.maxWarps) * 3 *
                    static_cast<std::size_t>(cfg.sm.instBufferDepth +
                                             cfg.sm.lsuQueueDepth));
    events = decltype(events)(std::greater<>(), std::move(backing));
    pool.reserve(static_cast<std::size_t>(cfg.sm.maxWarps) *
                 static_cast<std::size_t>(cfg.sm.instBufferDepth +
                                          cfg.sm.lsuQueueDepth));
}

void
PipelineState::revertIbuf(WarpRt &w)
{
    bool rewound = false;
    for (std::size_t i = 0; i < w.ibuf.size(); ++i) {
        const InstBufEntry &e = w.ibuf[i];
        const trace::TraceInst &ti = w.tr->insts[e.idx];
        const isa::Instruction &si = decodeInst(*this, ti);
        if (si.isControl()) {
            GEX_ASSERT(w.controlPending > 0);
            --w.controlPending;
        }
        // A replayed entry lies behind fetchIdx: rewinding fetchIdx to
        // it would fetch again everything issued since.
        if (e.replayed) {
            insertReplay(w, e.idx);
        } else if (!rewound) {
            w.fetchIdx = e.idx;
            rewound = true;
        }
    }
    w.ibuf.clear();
}

void
PipelineState::insertReplay(WarpRt &w, std::uint32_t trace_idx)
{
    std::size_t pos = w.replayQ.lowerBound(trace_idx);
    GEX_ASSERT(pos == w.replayQ.size() || w.replayQ[pos] != trace_idx,
               "instruction already in replay queue");
    w.replayQ.insert(pos, trace_idx);
}

void
PipelineState::emitWarpSlow(Cycle now, obs::PipeEventKind k, int w,
                            std::uint64_t arg)
{
    obs::PipeEvent e;
    e.cycle = now;
    e.sm = static_cast<std::int16_t>(smId);
    e.slot = static_cast<std::int16_t>(warps[static_cast<size_t>(w)].slot);
    e.warp = w;
    e.kind = k;
    e.arg = arg;
    obsBuf.push_back(e);
}

void
PipelineState::emitInstSlow(Cycle now, obs::PipeEventKind k,
                            const Inflight &in, std::uint64_t arg)
{
    obs::PipeEvent e;
    e.cycle = now;
    e.sm = static_cast<std::int16_t>(smId);
    e.slot = static_cast<std::int16_t>(
        warps[static_cast<size_t>(in.warp)].slot);
    e.warp = in.warp;
    e.kind = k;
    e.traceIdx = in.traceIdx;
    e.staticIdx = in.ti ? in.ti->staticIdx : obs::PipeEvent::kNoIndex;
    e.arg = arg;
    obsBuf.push_back(e);
}

void
PipelineState::emitFetchSlow(Cycle now, obs::PipeEventKind k, int w,
                             std::uint32_t trace_idx,
                             std::uint32_t static_idx, std::uint64_t arg)
{
    obs::PipeEvent e;
    e.cycle = now;
    e.sm = static_cast<std::int16_t>(smId);
    e.slot = static_cast<std::int16_t>(warps[static_cast<size_t>(w)].slot);
    e.warp = w;
    e.kind = k;
    e.traceIdx = trace_idx;
    e.staticIdx = static_idx;
    e.arg = arg;
    obsBuf.push_back(e);
}

void
PipelineState::emitBlockSlow(Cycle now, obs::PipeEventKind k, int slot,
                             std::uint64_t block_id)
{
    obs::PipeEvent e;
    e.cycle = now;
    e.sm = static_cast<std::int16_t>(smId);
    e.slot = static_cast<std::int16_t>(slot);
    e.kind = k;
    e.arg = block_id;
    obsBuf.push_back(e);
}

} // namespace gex::sm
