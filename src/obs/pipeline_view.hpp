/**
 * @file
 * Textual pipeline view: an observer that keeps the last N
 * instruction-lifecycle events in a ring and renders them as a
 * human-readable table — the tool behind the paper's Figure 3/4/6/7
 * style walkthroughs (examples/pipeline_diagrams.cpp), gexsim-run
 * --view, and the event tail of the watchdog's and the sanitizer's
 * diagnostics (gpu::Gpu builds one when watchdogCaptureEvents is set).
 */

#ifndef GEX_OBS_PIPELINE_VIEW_HPP
#define GEX_OBS_PIPELINE_VIEW_HPP

#include <cstddef>
#include <ostream>
#include <vector>

#include "isa/program.hpp"
#include "obs/observer.hpp"

namespace gex::obs {

class PipelineView : public PipelineObserver
{
  public:
    /**
     * Keep the most recent @p capacity events, first forwarding every
     * event (unfiltered) to @p next when it is non-null, so the ring
     * composes with another observer.
     */
    explicit PipelineView(std::size_t capacity = 256,
                          PipelineObserver *next = nullptr);

    /** Optional: annotate rows with disassembly from @p p. */
    void setProgram(const isa::Program *p) { program_ = p; }

    /** Restrict the view to one warp (-1, the default, shows all). */
    void filterWarp(int w) { warpFilter_ = w; }

    void event(const PipeEvent &e) override;

    std::size_t size() const { return count_ < cap_ ? count_ : cap_; }
    std::uint64_t totalEvents() const { return count_; }
    void clear();

    /**
     * Render the retained events, oldest first, one per line:
     *
     *     cycle  sm wp  event             inst
     *      112    0  1  fetched           #5 LD.E R3, [R2]
     */
    void render(std::ostream &os) const;

  private:
    const PipeEvent &at(std::size_t i) const; ///< i-th oldest retained

    PipelineObserver *next_;
    std::size_t cap_;
    std::uint64_t count_ = 0; ///< events accepted since clear()
    std::vector<PipeEvent> ring_;
    const isa::Program *program_ = nullptr;
    int warpFilter_ = -1;
};

} // namespace gex::obs

#endif // GEX_OBS_PIPELINE_VIEW_HPP
