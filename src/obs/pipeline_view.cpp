#include "obs/pipeline_view.hpp"

#include <cstdio>

namespace gex::obs {

PipelineView::PipelineView(std::size_t capacity, PipelineObserver *next)
    : next_(next), cap_(capacity ? capacity : 1)
{
    ring_.reserve(cap_);
}

void
PipelineView::event(const PipeEvent &e)
{
    if (next_)
        next_->event(e);
    if (warpFilter_ >= 0 && e.warp != warpFilter_)
        return;
    if (ring_.size() < cap_)
        ring_.push_back(e);
    else
        ring_[count_ % cap_] = e;
    ++count_;
}

void
PipelineView::clear()
{
    ring_.clear();
    count_ = 0;
}

const PipeEvent &
PipelineView::at(std::size_t i) const
{
    if (count_ <= cap_)
        return ring_[i];
    return ring_[(count_ + i) % cap_];
}

void
PipelineView::render(std::ostream &os) const
{
    os << " cycle  sm wp  event             inst\n";
    char buf[64];
    for (std::size_t i = 0; i < size(); ++i) {
        const PipeEvent &e = at(i);
        std::snprintf(buf, sizeof buf, "%6llu  %2d %2d  %-16s",
                      static_cast<unsigned long long>(e.cycle), e.sm,
                      e.warp, pipeEventName(e.kind));
        os << buf;
        if (e.staticIdx != PipeEvent::kNoIndex) {
            std::snprintf(buf, sizeof buf, "  #%u ", e.traceIdx);
            os << buf;
            if (program_ && e.staticIdx < program_->size())
                os << program_->at(e.staticIdx).toString();
            else
                os << "pc " << e.staticIdx;
        }
        if (e.arg != 0) {
            std::snprintf(buf, sizeof buf, "  (arg=%llu)",
                          static_cast<unsigned long long>(e.arg));
            os << buf;
        }
        os << '\n';
    }
    if (count_ > cap_) {
        os << " ... " << (count_ - cap_)
           << " earlier events dropped (ring capacity " << cap_ << ")\n";
    }
}

} // namespace gex::obs
