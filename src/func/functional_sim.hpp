/**
 * @file
 * Execution-driven functional simulator: runs a Kernel in SIMT lockstep
 * (divergence stack, barriers, shared memory, global atomics, device
 * malloc) and emits the dynamic trace the timing simulator consumes.
 */

#ifndef GEX_FUNC_FUNCTIONAL_SIM_HPP
#define GEX_FUNC_FUNCTIONAL_SIM_HPP

#include <cstdint>

#include "func/kernel.hpp"
#include "func/memory.hpp"
#include "trace/trace.hpp"

namespace gex::func {

/**
 * Functional executor. Warps within a block interleave at instruction
 * granularity with correct barrier semantics, so intra-block
 * shared-memory communication behaves as on hardware.
 *
 * Thread blocks run speculatively on worker threads and commit in
 * launch order on the calling thread, so the trace, the memory image
 * and every error are those of running the blocks one at a time in
 * launch order, at any worker count. A worker runs a block against the
 * committed memory plus a private overlay and records the pages it
 * reads and a log of its writes. A block that read no page an earlier
 * block of its window wrote replays its log into the memory; any other
 * block, one that threw included, runs again on the committed memory,
 * and so does the rest of the kernel. A kernel with ALLOC runs
 * serially (docs/PERFORMANCE.md, "Block-parallel tracing").
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
     * @param mem      global memory image (inputs pre-filled by the
     *                 caller; outputs and heap written during execution)
     * @param workers  threads that trace blocks, the calling one
     *                 included; 0 means the host's CPU count. Clamped
     *                 to the block count; 1 runs the blocks serially.
     */
    explicit FunctionalSim(GlobalMemory &mem, unsigned workers = 0);

    /**
     * Execute @p kernel to completion and return its dynamic trace.
     * Fatal on malformed kernels (unbound divergence, missing barrier
     * convergence, heap exhaustion). Every worker thread is joined
     * before it returns or throws.
     */
    trace::KernelTrace run(const Kernel &kernel);

    /** Cap on dynamic warp instructions per block (runaway guard). */
    void setMaxWarpInsts(std::uint64_t n) { maxWarpInsts_ = n; }

    /**
     * Blocks of the last run() that committed from speculation; the
     * rest ran serially. A diagnostic: no trace or stat carries it.
     */
    std::uint32_t speculatedBlocks() const { return speculated_; }

  private:
    GlobalMemory &mem_;
    unsigned workers_;
    std::uint64_t maxWarpInsts_ = 50'000'000;
    std::uint32_t speculated_ = 0;
};

} // namespace gex::func

#endif // GEX_FUNC_FUNCTIONAL_SIM_HPP
