/**
 * @file
 * Differential fuzz campaigns over the simulator itself
 * (docs/VALIDATION.md): CounterRng-seeded random points in the
 * (workload, policy, fault model, knob) space, each executed under all
 * five exception schemes with the invariant sanitizer on, checked
 * against the architectural oracle. Any failure is greedily shrunk to a minimal
 * reproducer and serialized as a spec.json one `gexsim-run --config`
 * invocation replays.
 *
 * Case generation is a pure function of (campaign seed, case index):
 * re-running a campaign with the same seed regenerates the same cases
 * in the same order, so a reported failing index is itself a repro.
 */

#ifndef GEX_CHECK_FUZZ_HPP
#define GEX_CHECK_FUZZ_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "config/knob_registry.hpp"
#include "gpu/config.hpp"
#include "harness/sweep.hpp"

namespace gex::check {

/** One generated fuzz point (scheme is chosen by the runner). */
struct FuzzCase {
    std::string workload;
    int scale = 1;
    config::RunParams params;
    std::uint64_t index = 0; ///< case index within the campaign
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
    /** Workload pool; empty = a curated fast subset. */
    std::vector<std::string> workloads;
    /** Attach the last-K event ring to every run's sanitizer. */
    bool captureEvents = true;
};

class FuzzCampaign
{
  public:
    explicit FuzzCampaign(FuzzOptions opt);

    const FuzzOptions &options() const { return opt_; }

    /** The curated default workload pool. */
    static const std::vector<std::string> &defaultWorkloads();

    /** Deterministically generate case @p index of this campaign. */
    FuzzCase generate(std::uint64_t index) const;

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
     * Greedy shrink: try resetting each non-default knob (fault model
     * first, then UC1/UC2 switches, then machine-shape knobs) and keep
     * every reset under which the case still fails. The result fails
     * for the same scheme with a minimal set of non-default knobs.
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
                   FuzzFailure *fail);

    FuzzOptions opt_;
    harness::TraceCache cache_;
};

} // namespace gex::check

#endif // GEX_CHECK_FUZZ_HPP
