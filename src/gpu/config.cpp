#include "gpu/config.hpp"

#include "common/log.hpp"

namespace gex::gpu {

const char *
schemeName(Scheme s)
{
    switch (s) {
      case Scheme::StallOnFault: return "baseline";
      case Scheme::WarpDisableCommit: return "wd-commit";
      case Scheme::WarpDisableLastCheck: return "wd-lastcheck";
      case Scheme::ReplayQueue: return "replay-queue";
      case Scheme::OperandLog: return "operand-log";
    }
    return "?";
}

Scheme
schemeFromName(const std::string &name)
{
    for (Scheme s : allSchemes())
        if (name == schemeName(s))
            return s;
    // Derive the accepted spellings from the scheme list itself so a
    // new scheme can never be missing from the message.
    std::string expected;
    for (Scheme s : allSchemes()) {
        if (!expected.empty())
            expected += " | ";
        expected += schemeName(s);
    }
    fatal("unknown scheme '%s' (expected %s)", name.c_str(),
          expected.c_str());
}

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::LooseRoundRobin: return "loose-round-robin";
      case SchedPolicy::GreedyThenOldest: return "greedy-then-oldest";
    }
    return "?";
}

SchedPolicy
schedPolicyFromName(const std::string &name)
{
    for (SchedPolicy p :
         {SchedPolicy::LooseRoundRobin, SchedPolicy::GreedyThenOldest})
        if (name == schedPolicyName(p))
            return p;
    fatal("unknown scheduling policy '%s' (expected "
          "loose-round-robin | greedy-then-oldest)",
          name.c_str());
}

const std::vector<Scheme> &
allSchemes()
{
    static const std::vector<Scheme> all = {
        Scheme::StallOnFault, Scheme::WarpDisableCommit,
        Scheme::WarpDisableLastCheck, Scheme::ReplayQueue,
        Scheme::OperandLog,
    };
    return all;
}

GpuConfig
GpuConfig::baseline()
{
    return GpuConfig{};
}

} // namespace gex::gpu
