#include "sm/stages/fetch.hpp"

#include "sm/stages/decode.hpp"

namespace gex::sm {

void
FetchStage::tick(Cycle now)
{
    // Walk only the warps not already known to be blocked; a set bit
    // in either mask means a fetch attempt would fail with no effect.
    MaskWalk walk = st_.scanOrder(st_.rrFetch);
    for (int lines = 0, w; lines < st_.cfg.sm.fetchPerCycle &&
                           (w = walk.next(st_.unschedulable,
                                          st_.fetchBlocked)) >= 0;) {
        WarpRt &wr = st_.warps[static_cast<size_t>(w)];
        if (!wr.schedulable()) {
            st_.unschedulable.set(w);
            continue;
        }

        int fetched_from_warp = 0;
        while (fetched_from_warp < st_.cfg.sm.fetchWidth) {
            if (static_cast<int>(wr.ibuf.size()) >=
                st_.cfg.sm.instBufferDepth)
                break;
            if (wr.controlPending > 0 || wr.wdFetchDisable)
                break;
            if (now < wr.fetchResumeAt)
                break;

            std::uint32_t idx;
            bool from_replay = false;
            if (!wr.replayQ.empty()) {
                idx = wr.replayQ.front();
                wr.replayQ.pop_front();
                from_replay = true;
            } else if (wr.fetchIdx < wr.tr->insts.size()) {
                idx = wr.fetchIdx++;
            } else {
                break;
            }

            const trace::TraceInst &ti = wr.tr->insts[idx];
            const isa::Instruction &si = decodeInst(st_, ti);
            if (si.isControl())
                ++wr.controlPending;
            if (st_.policy.fetchBarrier(si.isGlobalMem(),
                                        si.traits().canRaiseArith,
                                        st_.cfg.arithExceptions)) {
                wr.wdFetchDisable = true;
                wr.wdDisabledSince = now;
                st_.emitFetch(now, obs::PipeEventKind::FetchDisabled, w,
                              idx, ti.staticIdx);
            }
            wr.ibuf.push_back(
                InstBufEntry{idx, decodeReady(now), from_replay});
            st_.emitFetch(now, obs::PipeEventKind::Fetched, w, idx,
                          ti.staticIdx, from_replay ? 1 : 0);
            ++st_.fetches;
            ++fetched_from_warp;
            st_.didWork = true;
        }
        if (fetched_from_warp > 0) {
            ++lines;
            st_.rrFetch = w;
        } else {
            // Mark state-blocked warps so later scans walk past them; a
            // wait on fetchResumeAt is the only purely time-based reason
            // and must keep the warp scannable.
            const bool time_blocked =
                static_cast<int>(wr.ibuf.size()) <
                    st_.cfg.sm.instBufferDepth &&
                wr.controlPending == 0 && !wr.wdFetchDisable &&
                now < wr.fetchResumeAt;
            if (!time_blocked)
                st_.fetchBlocked.set(w);
        }
    }
}

} // namespace gex::sm
