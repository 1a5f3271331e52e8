/**
 * @file
 * ArchOracle: the architectural half of the self-checking simulation
 * (docs/VALIDATION.md). The timing simulator is trace-driven — it
 * never computes values — so the architectural contract decomposes
 * into three checkable pieces:
 *
 *  1. the functional simulator is deterministic: rebuilding the
 *     workload from scratch and re-executing it reproduces the final
 *     memory image and the per-warp committed instruction streams
 *     bit-for-bit (verifyReplay);
 *  2. the timing simulator retires exactly the traced stream: every
 *     traced instruction commits exactly once under any scheme, fault
 *     model and UC1/UC2 setting — enforced per event by
 *     SimSanitizer's per-instruction shadow, and summarized here by the
 *     committed-instruction count (verifyTiming);
 *  3. schemes are equivalent: with 1 and 2 holding for every scheme
 *     over the same trace, all five produce the same architectural
 *     final state, so cross-scheme divergence reduces to fingerprint
 *     or instruction-count inequality (the fuzz campaign's oracle).
 *
 * Violations raise InvariantError (exit code 7).
 */

#ifndef GEX_CHECK_ORACLE_HPP
#define GEX_CHECK_ORACLE_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"

namespace gex::func {
class GlobalMemory;
}
namespace gex::trace {
struct KernelTrace;
}
namespace gex::gpu {
struct SimResult;
struct GpuConfig;
}

namespace gex::check {

/**
 * Architectural identity of one executed workload. The digests are
 * WordHash values (common/digest.hpp): compared only within one
 * process, reference against replay, and never persisted, so a faster
 * hash may replace them without moving any stored digest. Only
 * FunctionalGolden pins them, to guard the functional simulator; a
 * hash change re-pins its rows.
 */
struct ArchFingerprint {
    /** func::GlobalMemory::digest() of the final memory image. */
    std::uint64_t memDigest = 0;
    /** traceDigest() of every warp's committed instruction stream. */
    std::uint64_t traceDigest = 0;
    std::uint64_t dynamicInsts = 0;

    bool
    operator==(const ArchFingerprint &o) const
    {
        return memDigest == o.memDigest && traceDigest == o.traceDigest &&
               dynamicInsts == o.dynamicInsts;
    }
    bool operator!=(const ArchFingerprint &o) const { return !(*this == o); }

    std::string toString() const;
};

/**
 * WordHash digest of the per-warp committed instruction streams: every
 * (block, warp, staticIdx, active mask, coalesced lines, arithFault)
 * in program order. Two traces with equal digests describe the same
 * architectural execution.
 */
std::uint64_t traceDigest(const trace::KernelTrace &trace);

/** Fingerprint a finished functional execution. */
ArchFingerprint fingerprint(const func::GlobalMemory &mem,
                            const trace::KernelTrace &trace);

/**
 * One workload's oracle: checks timing results and replays against the
 * reference execution it was built from. The reference fingerprint is
 * taken on the first reference() or verifyReplay() call, not at
 * construction, so an oracle that only checks timing never hashes the
 * memory image and trace. Not thread-safe.
 */
class ArchOracle
{
  public:
    /**
     * The oracle keeps references to @p mem and @p trace: both must
     * outlive it and stay unchanged until the first reference() or
     * verifyReplay() call. The instruction count verifyTiming checks
     * is read here.
     */
    ArchOracle(std::string workload, int scale,
               const func::GlobalMemory &mem,
               const trace::KernelTrace &trace);

    /** The reference fingerprint (taken on the first call). */
    const ArchFingerprint &reference() const;

    /**
     * Check a timing-simulation result against the trace: the retired
     * instruction count must equal the trace's dynamic instruction
     * count (SimSanitizer's per-instruction shadow guarantees the stronger
     * exactly-once property per instruction when --check is on).
     * Throws InvariantError on divergence.
     */
    void verifyTiming(const gpu::SimResult &r,
                      const gpu::GpuConfig &cfg) const;

    /**
     * Rebuild the workload on a fresh GlobalMemory, re-execute it on
     * the functional simulator, and diff the final memory image and
     * committed instruction streams against the reference. Throws
     * InvariantError on divergence.
     */
    void verifyReplay() const;

  private:
    std::string workload_;
    int scale_;
    const func::GlobalMemory *mem_;
    const trace::KernelTrace *trace_;
    std::uint64_t dynamicInsts_;
    mutable std::optional<ArchFingerprint> ref_;
};

} // namespace gex::check

#endif // GEX_CHECK_ORACLE_HPP
