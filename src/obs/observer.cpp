#include "obs/observer.hpp"

namespace gex::obs {

const char *
pipeEventName(PipeEventKind k)
{
    switch (k) {
      case PipeEventKind::Fetched: return "fetched";
      case PipeEventKind::FetchDisabled: return "fetch-disabled";
      case PipeEventKind::FetchReenabled: return "fetch-reenabled";
      case PipeEventKind::Issued: return "issued";
      case PipeEventKind::SourcesHeld: return "sources-held";
      case PipeEventKind::SourcesReleased: return "sources-released";
      case PipeEventKind::LogAllocated: return "log-allocated";
      case PipeEventKind::LogReleased: return "log-released";
      case PipeEventKind::TlbChecked: return "tlb-checked";
      case PipeEventKind::Faulted: return "faulted";
      case PipeEventKind::Squashed: return "squashed";
      case PipeEventKind::Replayed: return "replayed";
      case PipeEventKind::TrapEntered: return "trap-entered";
      case PipeEventKind::Committed: return "committed";
      case PipeEventKind::ContextSaved: return "context-saved";
      case PipeEventKind::ContextRestored: return "context-restored";
    }
    return "?";
}

} // namespace gex::obs
