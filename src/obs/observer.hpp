/**
 * @file
 * Cycle-level pipeline observability: the instruction-lifecycle event
 * stream emitted by the SM stage modules (src/sm/stages) and the
 * observer interface consumers implement.
 *
 * The timing loop pays nothing when tracing is off: every emission
 * site is guarded by a single observer-null check (see
 * sm::PipelineState), and no event is constructed unless an observer
 * is attached. Attaching one (gpu::Gpu::setObserver) is strictly
 * additive — it never changes simulation behaviour, only watches it.
 *
 * docs/OBSERVABILITY.md has the event reference table (emitting stage
 * and payload of every kind) and the consumer walkthrough.
 */

#ifndef GEX_OBS_OBSERVER_HPP
#define GEX_OBS_OBSERVER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gex::obs {

/** Instruction-lifecycle / warp-state event kinds, in pipeline order. */
enum class PipeEventKind : std::uint8_t {
    Fetched,         ///< fetch: instruction entered the i-buffer
    FetchDisabled,   ///< fetch: warp-disable barrier fetched (wd-*)
    FetchReenabled,  ///< last check or commit: barrier lifted
    Issued,          ///< issue: passed scoreboard + structural gates
    SourcesHeld,     ///< issue: source scoreboard entries acquired
    SourcesReleased, ///< operand read / last check / commit / squash
    LogAllocated,    ///< issue: operand-log partition space reserved
    LogReleased,     ///< last check / commit / squash
    TlbChecked,      ///< LSU: last TLB check passed (all requests)
    Faulted,         ///< LSU: a request page-faulted (preemptible)
    Squashed,        ///< fault reaction: in-flight instruction killed
    Replayed,        ///< fault reaction: trace index queued for replay
    TrapEntered,     ///< commit: arithmetic-exception trap handler
    Committed,       ///< commit: instruction retired
    ContextSaved,    ///< UC1: block context saved off-chip
    ContextRestored, ///< UC1: block context restored into a slot
};

/** Number of distinct PipeEventKind values. */
inline constexpr int kNumPipeEventKinds =
    static_cast<int>(PipeEventKind::ContextRestored) + 1;

/** Canonical short name ("fetched", "fetch-disabled", ...). */
const char *pipeEventName(PipeEventKind k);

/**
 * One pipeline event. Instruction-level events carry the dynamic trace
 * index and the static instruction index (program counter);
 * warp/block-level events leave them at kNoIndex. `arg` is a
 * kind-specific payload documented per kind in docs/OBSERVABILITY.md
 * (operand-log bytes, fault kind, fetch-resume cycle, block id, ...).
 */
struct PipeEvent {
    static constexpr std::uint32_t kNoIndex = UINT32_MAX;

    Cycle cycle = 0;
    std::int16_t sm = -1;
    std::int16_t slot = -1;       ///< thread-block slot; -1 when n/a
    std::int32_t warp = -1;       ///< SM warp index; -1 when n/a
    PipeEventKind kind = PipeEventKind::Fetched;
    std::uint32_t traceIdx = kNoIndex;
    std::uint32_t staticIdx = kNoIndex;
    std::uint64_t arg = 0;
};

/**
 * Observer interface threaded through every pipeline stage. One
 * virtual call per event while attached; never called when detached.
 * Implementations must not mutate simulator state.
 */
class PipelineObserver
{
  public:
    virtual ~PipelineObserver() = default;
    virtual void event(const PipeEvent &e) = 0;
};

/** Keep-everything observer for tests and small traces. */
class RecordingObserver : public PipelineObserver
{
  public:
    void
    event(const PipeEvent &e) override
    {
        events.push_back(e);
    }

    std::vector<PipeEvent> events;
};

} // namespace gex::obs

#endif // GEX_OBS_OBSERVER_HPP
