/**
 * @file
 * Shared command-line plumbing for the gexsim_* drivers: validated
 * numeric flag parsing (a bad value is a one-line ConfigError, not a
 * silent atoi(0)), the top-level error guard that maps the structured
 * error taxonomy (common/error.hpp) onto stable process exit codes
 * (docs/ROBUSTNESS.md, "Exit codes"), and the registry-driven
 * ArgParser that gives every driver the same knob flags, `--config`
 * spec-file loading, `--help`, `--version` and `--dump-knobs` without
 * any per-driver flag loop.
 */

#ifndef GEX_CONFIG_CLI_HPP
#define GEX_CONFIG_CLI_HPP

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "config/knob_registry.hpp"

namespace gex::cli {

/**
 * Process exit codes of every gexsim tool, one per taxonomy kind so a
 * script (or the CI smokes) can branch on the failure class without
 * parsing stderr.
 */
enum ExitCode : int {
    ExitOk = 0,
    ExitInternal = 1, ///< non-taxonomy exception (simulator bug)
    ExitConfig = 2,   ///< ConfigError: bad flags / names / files
    ExitTrace = 3,    ///< TraceError
    ExitDeadlock = 4, ///< DeadlockError
    ExitLivelock = 5, ///< LivelockError (watchdog)
    ExitBudget = 6,   ///< CycleBudgetExceeded (--max-cycles)
    ExitInvariant = 7, ///< InvariantError (--check self-checks)
};

inline int
exitCodeFor(const GexError &e)
{
    if (dynamic_cast<const ConfigError *>(&e)) return ExitConfig;
    if (dynamic_cast<const TraceError *>(&e)) return ExitTrace;
    if (dynamic_cast<const DeadlockError *>(&e)) return ExitDeadlock;
    if (dynamic_cast<const LivelockError *>(&e)) return ExitLivelock;
    if (dynamic_cast<const CycleBudgetExceeded *>(&e)) return ExitBudget;
    if (dynamic_cast<const InvariantError *>(&e)) return ExitInvariant;
    return ExitInternal;
}

/**
 * Parse @p text (the value of flag @p flag) as a decimal integer in
 * [@p lo, @p hi]; ConfigError on garbage, partial parses or range
 * violations — "--jobs banana" and "--sms 0" both die with one line.
 */
inline long long
parseInt(const char *flag, const std::string &text, long long lo,
         long long hi)
{
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        throw ConfigError(strprintf("%s needs an integer, got '%s'",
                                    flag, text.c_str()));
    if (v < lo || v > hi)
        throw ConfigError(
            strprintf("%s must be in [%lld, %lld], got %lld", flag, lo,
                      hi, v));
    return v;
}

/** parseInt, bounded to [lo, hi] of int. */
inline int
parseIntFlag(const char *flag, const std::string &text, int lo, int hi)
{
    return static_cast<int>(parseInt(flag, text, lo, hi));
}

/** Parse a real number in [@p lo, @p hi]; ConfigError otherwise. */
inline double
parseDouble(const char *flag, const std::string &text, double lo,
            double hi)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        throw ConfigError(strprintf("%s needs a number, got '%s'", flag,
                                    text.c_str()));
    if (!(v >= lo && v <= hi))
        throw ConfigError(strprintf("%s must be in [%g, %g], got %g",
                                    flag, lo, hi, v));
    return v;
}

/** Parse a probability/rate in [0, 1]; ConfigError otherwise. */
inline double
parseRate(const char *flag, const std::string &text)
{
    return parseDouble(flag, text, 0.0, 1.0);
}

/** Split a comma-separated list; empty segments are dropped. */
inline std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/**
 * Top-level guard every tool's main() delegates to. Flag/config
 * mistakes print one line; simulation errors print the full report
 * (context line + diagnostics bundle); each kind maps to its ExitCode.
 */
template <typename Fn>
int
run(const char *prog, Fn &&fn)
{
    try {
        return fn();
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: error: %s\n", prog, e.what());
        return ExitConfig;
    } catch (const GexError &e) {
        std::fprintf(stderr, "%s: %s\n", prog, e.report().c_str());
        return exitCodeFor(e);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: unexpected error: %s\n", prog,
                     e.what());
        return ExitInternal;
    }
}

/**
 * The build-provenance text behind every driver's --version: program
 * name, compiler, build type, and the knob-registry digest identifying
 * the exact knob schema the binary was built with.
 */
std::string versionText(const std::string &prog);

/**
 * Registry-driven argument parser shared by all gexsim_* drivers.
 *
 * A driver registers only its *driver-specific* options (workload
 * selection, output paths, grid axes) and calls bindKnobs() with its
 * config::RunParams; every registered knob then parses from its CLI
 * flag (`--sms 32`, bool knobs also as `--no-capture-events`), and the
 * driver gains for free:
 *
 *   --config FILE   apply a JSON experiment spec (repeatable; files
 *                   apply in order, then flags override regardless of
 *                   their position relative to --config)
 *   --help          driver options + the generated knob reference
 *   --version       build/provenance info (versionText)
 *   --dump-knobs    the registry knob table as markdown (what CI
 *                   diffs against docs/CONFIGURATION.md)
 *
 * Spec files accept every knob name plus the driver options that were
 * registered with a spec key; any other key is rejected with exit
 * code 2 and a nearest-name suggestion.
 */
class ArgParser
{
  public:
    ArgParser(std::string prog, std::string description);

    /** One "usage: ..." synopsis line under --help (optional). */
    void synopsis(std::string text);

    /**
     * A driver option taking a value. @p specKey, when non-null, also
     * accepts the option as a spec-file key under that name (use for
     * result-affecting driver keys: workloads, schemes, scale, ...;
     * spec values may be strings, numbers, bools or arrays of those —
     * arrays reach @p setter comma-joined, matching the CSV flags).
     */
    void option(std::string flag, std::string valueName, std::string doc,
                std::function<void(const std::string &)> setter,
                const char *specKey = nullptr);

    /**
     * A spec-file-only driver key (no CLI flag) whose value reaches
     * @p setter as parsed JSON: the grid keys axes, scales, normalize.
     */
    void specKey(std::string key, std::string doc,
                 std::function<void(const json::Value &)> setter);

    /** A value-less driver flag (--stats, --quick, --list). */
    void flag(std::string flag, std::string doc,
              std::function<void()> setter);

    /**
     * Bind the knob registry to @p params: enables every knob flag,
     * --config, --dump-knobs, and the knob section of --help. @p params
     * must outlive parse().
     */
    void bindKnobs(config::RunParams *params);

    /**
     * Parse the command line. Spec files named by --config apply first
     * (in order), then flags in CLI order, so a flag always overrides
     * a spec regardless of position. --help/--version/--dump-knobs
     * print and exit 0. Unknown flags, unknown spec keys, malformed or
     * out-of-range values throw ConfigError (exit 2 via run()).
     */
    void parse(int argc, char **argv);

    /** Spec files applied by the last parse() (campaign provenance). */
    const std::vector<std::string> &configFiles() const
    {
        return configFiles_;
    }

  private:
    struct Option {
        std::string flag;
        std::string valueName; ///< empty for value-less flags
        std::string doc;
        std::function<void(const std::string &)> setter; ///< valued
        std::function<void()> action;                    ///< value-less
        std::function<void(const json::Value &)> jsonSetter; ///< spec-only
        std::string specKey; ///< empty: not accepted in spec files
    };

    const Option *findOption(const std::string &flag) const;
    [[noreturn]] void unknownFlag(const std::string &flag) const;
    void applySpec(const std::string &path);
    void printHelp() const;

    std::string prog_;
    std::string description_;
    std::string synopsis_;
    std::vector<Option> options_;
    config::RunParams *params_ = nullptr;
    std::vector<std::string> configFiles_;
};

} // namespace gex::cli

#endif // GEX_CONFIG_CLI_HPP
