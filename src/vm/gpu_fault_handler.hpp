/**
 * @file
 * GPU-local page fault handler model (paper section 4.2): a faulted
 * warp switches to system mode and runs an allocator + page-table
 * update routine on its own SM. Latency is the paper's measured
 * prototype cost (20 us), an order of magnitude above the CPU handler,
 * but handling is fully parallel across warps/SMs — the throughput win
 * behind Figures 13 and 14.
 */

#ifndef GEX_VM_GPU_FAULT_HANDLER_HPP
#define GEX_VM_GPU_FAULT_HANDLER_HPP

#include "common/stats.hpp"
#include "common/types.hpp"

namespace gex::vm {

struct GpuHandlerConfig {
    /** End-to-end handler routine latency (paper: 20 us). */
    Cycle handlerCycles = 20000;
    /**
     * Serialization between concurrent handlers on the same allocator
     * partition. The paper's prototype uses lock-free structures and
     * address-space partitioning, so the default is no serialization;
     * nonzero values support the UC2 ablation
     * (experiments/ablation-uc2.json).
     */
    Cycle allocatorSerialCycles = 0;
};

class GpuFaultHandler
{
  public:
    explicit GpuFaultHandler(const GpuHandlerConfig &cfg) : cfg_(cfg) {}

    const GpuHandlerConfig &config() const { return cfg_; }

    /**
     * Handle an allocation fault detected at @p detect on the GPU.
     * @return cycle at which the page table update is visible.
     */
    Cycle
    handle(Cycle detect)
    {
        ++handled_;
        Cycle start = detect;
        if (cfg_.allocatorSerialCycles > 0) {
            start = std::max(start, allocatorFree_);
            allocatorFree_ = start + cfg_.allocatorSerialCycles;
        }
        return start + cfg_.handlerCycles;
    }

    std::uint64_t handled() const { return handled_; }

    void
    collectStats(StatSet &s) const
    {
        s.set("gpuhandler.faults", static_cast<double>(handled_));
    }

  private:
    GpuHandlerConfig cfg_;
    Cycle allocatorFree_ = 0;
    std::uint64_t handled_ = 0;
};

} // namespace gex::vm

#endif // GEX_VM_GPU_FAULT_HANDLER_HPP
