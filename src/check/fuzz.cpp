#include "check/fuzz.hpp"

#include <sstream>

#include "check/oracle.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "gpu/gpu.hpp"

namespace gex::check {

namespace {

/** Run @p body; a GexError it throws fills @p fail and gives false. */
template <typename Fn>
bool
passes(const FuzzCase &c, FuzzFailure *fail, Fn &&body)
{
    try {
        body();
    } catch (const GexError &e) {
        if (fail) {
            fail->c = c;
            fail->kind = e.kind();
            fail->message = e.report();
        }
        return false;
    }
    return true;
}

} // namespace

FuzzCampaign::FuzzCampaign(FuzzOptions opt) : opt_(std::move(opt))
{
    const json::Value &axes = opt_.grid.axes;
    if (axes.isNull())
        fatal("gexsim-check samples its cases from a spec's axes; pass "
              "--config experiments/fuzz/cases.json");
    bool scheme = axes.find("scheme");
    for (const json::Value &block : axes.items)
        scheme = scheme || block.find("scheme");
    if (scheme)
        fatal("every case runs all five schemes; drop the 'scheme' axis");
    generate(0); // the rest of the spec's validation, before any run
}

FuzzCase
FuzzCampaign::generate(std::uint64_t index,
                       const std::vector<std::string> &atBase) const
{
    FuzzCase c;
    c.index = index;
    const harness::RunSpec rs = harness::sampleGrid(
        opt_.grid, opt_.base, opt_.seed, index, atBase, &c.axes);
    c.workload = rs.workload;
    c.scale = rs.scale;
    c.params.cfg = rs.cfg;
    c.params.policy = rs.policy;
    // Self-checking contract of every fuzz run.
    c.params.cfg.checkInvariants = true;
    return c;
}

bool
FuzzCampaign::runScheme(const FuzzCase &c, gpu::Scheme scheme,
                        const ArchOracle &oracle, FuzzFailure *fail)
{
    const harness::TracedWorkload &tw = cache_.get(c.workload, c.scale);
    FuzzCase sc = c;
    sc.params.cfg.scheme = scheme;
    return passes(sc, fail, [&] {
        gpu::Gpu g(sc.params.cfg);
        oracle.verifyTiming(g.run(tw.kernel, tw.trace, sc.params.policy),
                            sc.params.cfg);
    });
}

bool
FuzzCampaign::runCase(const FuzzCase &c, FuzzFailure *fail)
{
    // One oracle per case: its reference fingerprint checks the
    // functional replay and every scheme's retired instruction count.
    const harness::TracedWorkload &tw = cache_.get(c.workload, c.scale);
    const ArchOracle oracle(c.workload, c.scale, *tw.mem, tw.trace);
    if (!passes(c, fail, [&] { oracle.verifyReplay(); }))
        return false;
    for (gpu::Scheme s : gpu::allSchemes())
        if (!runScheme(c, s, oracle, fail))
            return false;
    return true;
}

bool
FuzzCampaign::run(FuzzFailure *fail,
                  const std::function<void(const FuzzCase &, bool)>
                      &progress)
{
    for (int i = 0; i < opt_.cases; ++i) {
        FuzzCase c = generate(static_cast<std::uint64_t>(i));
        FuzzFailure ff;
        const bool ok = runCase(c, &ff);
        if (progress)
            progress(c, ok);
        if (!ok) {
            if (fail)
                *fail = ff;
            return false;
        }
    }
    return true;
}

FuzzCase
FuzzCampaign::shrink(const FuzzFailure &f)
{
    FuzzCase best = f.c;
    const gpu::Scheme scheme = best.params.cfg.scheme;
    std::vector<std::string> atBase;
    for (const std::string &axis : f.c.axes) {
        atBase.push_back(axis);
        FuzzCase cand = generate(f.c.index, atBase);
        cand.params.cfg.scheme = scheme;
        if (describeCase(cand) == describeCase(best))
            continue; // the axis already sits at its base value
        const harness::TracedWorkload &tw =
            cache_.get(cand.workload, cand.scale);
        const ArchOracle oracle(cand.workload, cand.scale, *tw.mem,
                                tw.trace);
        if (runScheme(cand, scheme, oracle, nullptr))
            atBase.pop_back(); // the failure needs this axis's value
        else
            best = cand;
    }
    return best;
}

std::string
FuzzCampaign::reproSpecJson(const FuzzCase &c)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginObject();
    w.key("workload").value(c.workload);
    w.key("scale").value(static_cast<std::uint64_t>(c.scale));
    // Exec-only knobs (check, check.violate) are included: the repro
    // must re-arm the checkers that tripped.
    for (const auto &[k, v] : config::KnobRegistry::instance().changed(
             c.params)) {
        w.key(k->name);
        v.writeJson(w);
    }
    w.endObject();
    return os.str();
}

std::string
FuzzCampaign::describeCase(const FuzzCase &c)
{
    std::string out = strprintf("%s x%d", c.workload.c_str(), c.scale);
    for (const auto &[k, v] : config::KnobRegistry::instance().changed(
             c.params))
        out += strprintf(" %s=%s", k->name.c_str(), v.toString().c_str());
    return out;
}

} // namespace gex::check
