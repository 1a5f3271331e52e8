/**
 * @file
 * Structured error taxonomy for the simulator library. Library code
 * throws a GexError subclass instead of killing the process, so
 * harnesses (src/harness) can classify one grid point's failure and
 * keep a multi-hour campaign alive, and tools can catch at the top
 * level and render one actionable report with a stable exit code.
 *
 * The taxonomy (docs/ROBUSTNESS.md has the user-facing contract):
 *
 *   ConfigError          bad user input: unknown scheme/model/workload
 *                        names, malformed kasm, invalid flag values
 *   TraceError           the functional trace is unusable: functional
 *                        deadlock, runaway warp, trace/kernel mismatch
 *   DeadlockError        timing simulation wedged: warps resident but
 *                        no work and no future events
 *   LivelockError        the forward-progress watchdog tripped: the
 *                        machine keeps ticking but nothing commits
 *   CycleBudgetExceeded  the run crossed GpuConfig::maxCycles
 *   InvariantError       a runtime self-check tripped: the invariant
 *                        sanitizer or architectural oracle (--check,
 *                        docs/VALIDATION.md) caught the simulator
 *                        violating a modeled-hardware invariant
 *
 * panic() / GEX_ASSERT remain aborting: they flag simulator bugs, not
 * survivable events (only speculative work, inside a PanicsThrow,
 * catches them). fatal() (common/log.hpp) throws ConfigError.
 */

#ifndef GEX_COMMON_ERROR_HPP
#define GEX_COMMON_ERROR_HPP

#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace gex {

/**
 * Where in the simulated machine an error was detected. Fields that do
 * not apply stay at their defaults and are omitted from reports.
 */
struct ErrorContext {
    Cycle cycle = kNoCycle; ///< global cycle at detection
    int sm = -1;            ///< SM index, when one is implicated
    int warp = -1;          ///< warp index within that SM
    std::string scheme;     ///< exception scheme of the run, if known
    std::string workload;   ///< workload name, if known

    /** "cycle 1234, sm 2, warp 7, scheme replay-queue" (set fields). */
    std::string describe() const;
};

/**
 * Base of every structured simulator error. Carries a one-line message
 * (what()), machine context, and an optional multi-line diagnostics
 * bundle (per-warp state dumps, recent pipeline events) that report()
 * renders after the headline.
 */
class GexError : public std::runtime_error
{
  public:
    GexError(std::string kind, const std::string &message,
             ErrorContext ctx = {}, std::string diagnostics = {});

    /** Stable taxonomy name ("ConfigError", "LivelockError", ...). */
    const std::string &kind() const { return kind_; }
    const ErrorContext &context() const { return ctx_; }
    /** Multi-line diagnostic text bundle; empty when none captured. */
    const std::string &diagnostics() const { return diag_; }

    /**
     * Render the full actionable report: "<kind>: <message>", the
     * context line when any field is set, then the diagnostics bundle.
     */
    std::string report() const;

  private:
    std::string kind_;
    ErrorContext ctx_;
    std::string diag_;
};

/** The user asked for something unsupported or inconsistent. */
class ConfigError : public GexError
{
  public:
    explicit ConfigError(const std::string &message, ErrorContext ctx = {})
        : GexError("ConfigError", message, std::move(ctx))
    {}
};

/** The functional trace (or its kernel) is unusable for timing. */
class TraceError : public GexError
{
  public:
    explicit TraceError(const std::string &message, ErrorContext ctx = {},
                        std::string diagnostics = {})
        : GexError("TraceError", message, std::move(ctx),
                   std::move(diagnostics))
    {}
};

/** Timing simulation wedged: no work, no events, warps resident. */
class DeadlockError : public GexError
{
  public:
    explicit DeadlockError(const std::string &message, ErrorContext ctx = {},
                           std::string diagnostics = {})
        : GexError("DeadlockError", message, std::move(ctx),
                   std::move(diagnostics))
    {}
};

/** Forward-progress watchdog: ticking without committing. */
class LivelockError : public GexError
{
  public:
    explicit LivelockError(const std::string &message, ErrorContext ctx = {},
                           std::string diagnostics = {})
        : GexError("LivelockError", message, std::move(ctx),
                   std::move(diagnostics))
    {}
};

/** The run crossed the hard GpuConfig::maxCycles budget. */
class CycleBudgetExceeded : public GexError
{
  public:
    explicit CycleBudgetExceeded(const std::string &message,
                                 ErrorContext ctx = {},
                                 std::string diagnostics = {})
        : GexError("CycleBudgetExceeded", message, std::move(ctx),
                   std::move(diagnostics))
    {}
};

/**
 * A runtime self-check tripped: the invariant sanitizer or the
 * architectural oracle (src/check, enabled by --check) detected the
 * simulator violating an invariant the modeled hardware guarantees.
 * Unlike panic(), this is survivable — fuzz campaigns catch it,
 * shrink the failing case and keep going (docs/VALIDATION.md).
 */
class InvariantError : public GexError
{
  public:
    explicit InvariantError(const std::string &message,
                            ErrorContext ctx = {},
                            std::string diagnostics = {})
        : GexError("InvariantError", message, std::move(ctx),
                   std::move(diagnostics))
    {}
};

} // namespace gex

#endif // GEX_COMMON_ERROR_HPP
