#include "common/log.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/error.hpp"

namespace gex {

namespace {
LogLevel g_level = LogLevel::Warn;
thread_local bool t_panicsThrow = false;

std::string
vstrprintf(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(n));
}
} // namespace

LogLevel
logLevel()
{
    return g_level;
}

void
setLogLevel(LogLevel lvl)
{
    g_level = lvl;
}

void
logf(LogLevel lvl, const char *fmt, ...)
{
    if (static_cast<int>(lvl) > static_cast<int>(g_level))
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[gex] %s\n", msg.c_str());
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (t_panicsThrow)
        throw SpeculativePanic(msg);
    std::fprintf(stderr, "[gex PANIC] %s\n", msg.c_str());
    std::abort();
}

PanicsThrow::PanicsThrow() : outer_(t_panicsThrow)
{
    t_panicsThrow = true;
}

PanicsThrow::~PanicsThrow()
{
    t_panicsThrow = outer_;
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    throw ConfigError(msg);
}

void
panicAssert(const char *cond, const char *file, int line, const char *fmt,
            ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (t_panicsThrow)
        throw SpeculativePanic(strprintf("assertion failed: %s (%s:%d) %s",
                                         cond, file, line, msg.c_str()));
    std::fprintf(stderr, "[gex PANIC] assertion failed: %s (%s:%d) %s\n",
                 cond, file, line, msg.c_str());
    std::abort();
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    return msg;
}

} // namespace gex
