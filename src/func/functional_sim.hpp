/**
 * @file
 * Execution-driven functional simulator: runs a Kernel in SIMT lockstep
 * (divergence stack, barriers, shared memory, global atomics, device
 * malloc) and emits the dynamic trace the timing simulator consumes.
 */

#ifndef GEX_FUNC_FUNCTIONAL_SIM_HPP
#define GEX_FUNC_FUNCTIONAL_SIM_HPP

#include <cstddef>
#include <cstdint>
#include <memory>

#include "func/kernel.hpp"
#include "func/memory.hpp"
#include "func/simt_stack.hpp"
#include "trace/trace.hpp"

namespace gex::func {

/**
 * Functional executor. Thread blocks run one at a time (launch order);
 * warps within a block interleave at instruction granularity with
 * correct barrier semantics, so intra-block shared-memory communication
 * behaves as on hardware.
 *
 * A warp executes a whole instruction at once: registers are stored
 * per warp as rows of 32 lanes and predicates as one lane mask per
 * predicate register, so each opcode family is one lane kernel run
 * over the guard mask (a full warp is the all-ones mask).
 */
class FunctionalSim
{
  public:
    /**
     * @param mem  global memory image (inputs pre-filled by the caller;
     *             outputs and heap written during execution)
     */
    explicit FunctionalSim(GlobalMemory &mem) : mem_(mem) {}

    /**
     * Execute @p kernel to completion and return its dynamic trace.
     * Fatal on malformed kernels (unbound divergence, missing barrier
     * convergence, heap exhaustion).
     */
    trace::KernelTrace run(const Kernel &kernel);

    /** Cap on dynamic warp instructions per block (runaway guard). */
    void setMaxWarpInsts(std::uint64_t n) { maxWarpInsts_ = n; }

  private:
    struct WarpExec;
    struct BlockExec;

    void runBlock(const Kernel &kernel, std::uint32_t block_id,
                  trace::BlockTrace &out);
    /** Execute one instruction of warp @p w; returns false if stalled
     *  at a barrier or finished. */
    bool stepWarp(const Kernel &kernel, BlockExec &blk, WarpExec &w,
                  trace::WarpTrace &out);

    /** Coalesce one global-memory instruction's lane addresses into
     *  @p out's line pool and count it toward memInsts/memRequests. */
    void recordLines(const Addr *addrs, std::size_t n,
                     trace::TraceInst &ti, trace::WarpTrace &out);

    GlobalMemory &mem_;
    std::uint64_t maxWarpInsts_ = 50'000'000;
    std::uint64_t memInsts_ = 0;
    std::uint64_t memRequests_ = 0;
    /** Register rows standing in for RZ as a destination (writes are
     *  discarded) and for an immediate second operand. */
    std::uint64_t sinkRow_[kWarpSize] = {};
    std::uint64_t immRow_[kWarpSize] = {};
};

} // namespace gex::func

#endif // GEX_FUNC_FUNCTIONAL_SIM_HPP
