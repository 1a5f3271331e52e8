/**
 * @file
 * Minimal leveled logging plus fatal/panic helpers in the gem5 spirit:
 * panic() for simulator bugs, fatal() for user/configuration errors.
 */

#ifndef GEX_COMMON_LOG_HPP
#define GEX_COMMON_LOG_HPP

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace gex {

enum class LogLevel { Quiet = 0, Warn = 1, Info = 2, Debug = 3 };

/** Global log level; defaults to Warn so library use is silent-ish. */
LogLevel logLevel();
void setLogLevel(LogLevel lvl);

/** printf-style log at the given level; a newline is appended. */
void logf(LogLevel lvl, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Abort with a message: the simulator itself is broken (invariant
 * violation). Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user error: something unsupported or inconsistent was asked
 * for (bad configuration, malformed kernel). Throws gex::ConfigError
 * (common/error.hpp) so harnesses can survive a bad grid point and
 * tools can catch at the top level; never returns normally.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * What panic() and a failed GEX_ASSERT throw, in place of aborting, on
 * a thread that holds a PanicsThrow.
 */
class SpeculativePanic : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * While one is alive, panic() and failed GEX_ASSERTs on its thread
 * throw SpeculativePanic instead of printing and aborting. Work that
 * may run on stale inputs holds one (the functional simulator's
 * speculative thread blocks): its failure is discarded and the work
 * redone exactly, where a real simulator bug still aborts.
 */
class PanicsThrow
{
  public:
    PanicsThrow();
    ~PanicsThrow();
    PanicsThrow(const PanicsThrow &) = delete;
    PanicsThrow &operator=(const PanicsThrow &) = delete;

  private:
    bool outer_;
};

/** printf into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Assertion failure backend for GEX_ASSERT. Never returns. */
[[noreturn]] void panicAssert(const char *cond, const char *file, int line,
                              const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

#define GEX_ASSERT(cond, ...)                                              \
    do {                                                                   \
        if (!(cond))                                                       \
            ::gex::panicAssert(#cond, __FILE__, __LINE__, "" __VA_ARGS__); \
    } while (0)

} // namespace gex

#endif // GEX_COMMON_LOG_HPP
