/**
 * @file
 * Differential fuzz campaigns over the simulator itself
 * (docs/VALIDATION.md): CounterRng-seeded random points of an
 * experiment spec's case space (experiments/fuzz/cases.json), each
 * executed under all five exception schemes with the invariant
 * sanitizer on, checked against the architectural oracle. Any failure
 * is greedily shrunk to a minimal reproducer and serialized as a
 * spec.json one `gexsim-run --config` invocation replays.
 *
 * Case generation is a pure function of (campaign seed, case index,
 * spec): re-running a campaign with the same seed and spec regenerates
 * the same cases in the same order, so a reported failing index is
 * itself a repro.
 */

#ifndef GEX_CHECK_FUZZ_HPP
#define GEX_CHECK_FUZZ_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "config/knob_registry.hpp"
#include "gpu/config.hpp"
#include "harness/grid.hpp"
#include "harness/sweep.hpp"

namespace gex::check {

class ArchOracle;

/** One generated fuzz point (scheme is chosen by the runner). */
struct FuzzCase {
    std::string workload;
    int scale = 1;
    config::RunParams params;
    std::uint64_t index = 0; ///< case index within the campaign
    std::vector<std::string> axes; ///< the case's axes, in spec order
};

/** A failed case, pinned to the scheme that failed. */
struct FuzzFailure {
    FuzzCase c; ///< params carry the failing scheme
    std::string kind;    ///< error taxonomy name ("InvariantError", ...)
    std::string message; ///< full report text
};

struct FuzzOptions {
    std::uint64_t seed = 1;
    int cases = 20;
    harness::GridSpec grid;  ///< the case space: workloads and axes
    config::RunParams base;  ///< the spec's values outside the axes
};

class FuzzCampaign
{
  public:
    /** ConfigError on a spec without axes or with a scheme axis. */
    explicit FuzzCampaign(FuzzOptions opt);

    /**
     * Draw case @p index (harness::sampleGrid), sanitizer on; axes in
     * @p atBase keep their base value.
     */
    FuzzCase generate(std::uint64_t index,
                      const std::vector<std::string> &atBase = {}) const;

    /**
     * Execute @p c under every scheme: sanitizer on, oracle replay +
     * timing verification. True on pass; on
     * failure fills @p fail and returns false.
     */
    bool runCase(const FuzzCase &c, FuzzFailure *fail);

    /**
     * Run the whole campaign, stopping at the first failure. @p
     * progress (optional) is called after each case with its index and
     * pass/fail. True when every case passed.
     */
    bool run(FuzzFailure *fail,
             const std::function<void(const FuzzCase &, bool)> &progress
             = {});

    /**
     * Greedy shrink: reset the case's axes in spec order, each to its
     * base value, keeping every reset under which the case still fails
     * for the same scheme.
     */
    FuzzCase shrink(const FuzzFailure &f);

    /**
     * Serialize @p c as a gexsim spec: {"workload", "scale", every
     * non-default non-preset knob}. `gexsim-run --config <file>`
     * replays it exactly (including --check and an armed violation).
     */
    static std::string reproSpecJson(const FuzzCase &c);

    /** One-line human summary: workload plus non-default knobs. */
    static std::string describeCase(const FuzzCase &c);

  private:
    /** Run one scheme of one case; false fills @p fail. */
    bool runScheme(const FuzzCase &c, gpu::Scheme scheme,
                   const ArchOracle &oracle, FuzzFailure *fail);

    FuzzOptions opt_;
    harness::TraceCache cache_;
};

} // namespace gex::check

#endif // GEX_CHECK_FUZZ_HPP
