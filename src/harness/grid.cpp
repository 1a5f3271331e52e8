#include "harness/grid.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>

#include "common/error.hpp"
#include "common/log.hpp"
#include "config/cli.hpp"
#include "inject/rng.hpp"
#include "workloads/workloads.hpp"

namespace gex::harness {

namespace {

struct Axis {
    const config::Knob *knob;
    std::vector<config::KnobValue> values;
};

/** One object of "axes": its axes in file order. */
using Block = std::vector<Axis>;

/** The value index of an axis that keeps its base value. */
constexpr std::size_t kAtBase = SIZE_MAX;

/**
 * The "scale" axis. A point's scale is a grid key (RunSpec::scale),
 * not a registry knob, so this knob only validates the axis values
 * and names the axis in labels; expandGrid never sets it.
 */
const config::Knob &
scaleKnob()
{
    static const config::Knob k = [] {
        config::Knob s;
        s.name = "scale";
        s.type = config::KnobType::Int;
        s.imin = 1;
        s.imax = 1 << 20;
        return s;
    }();
    return k;
}

const config::Knob &
findKnob(const std::string &where, const std::string &name)
{
    const config::KnobRegistry &reg = config::KnobRegistry::instance();
    if (const config::Knob *k = reg.find(name))
        return *k;
    std::string hint = reg.suggest(name);
    fatal("%s: unknown knob '%s'%s", where.c_str(), name.c_str(),
          hint.empty()
              ? ""
              : strprintf(" (did you mean '%s'?)", hint.c_str()).c_str());
}

Block
parseBlock(const std::string &where, const json::Value &obj)
{
    if (!obj.isObject() || obj.keys.empty())
        fatal("%s needs an object of knob -> list of values",
              where.c_str());
    Block b;
    for (const std::string &name : obj.keys) {
        Axis a{name == "scale" ? &scaleKnob() : &findKnob(where, name),
               {}};
        const std::string ctx =
            strprintf("%s: '%s'", where.c_str(), name.c_str());
        const json::Value &list = *obj.find(name);
        if (!list.isArray() || list.items.empty())
            fatal("%s needs a non-empty list of values", ctx.c_str());
        for (const json::Value &item : list.items) {
            config::KnobValue v = a.knob->fromJson(ctx, item);
            if (std::find(a.values.begin(), a.values.end(), v) !=
                a.values.end())
                fatal("%s lists %s twice", ctx.c_str(),
                      v.toString().c_str());
            a.values.push_back(std::move(v));
        }
        b.push_back(std::move(a));
    }
    return b;
}

std::vector<std::string>
resolveWorkloads(const GridSpec &g)
{
    if (!g.workloads) {
        if (g.suite == "parboil")
            return workloads::parboilSuite();
        if (g.suite == "halloc")
            return workloads::hallocSuite();
        if (g.suite == "all")
            return workloads::allNames();
        fatal("unknown suite '%s' (expected parboil | halloc | all)",
              g.suite.c_str());
    }
    if (g.workloads->empty())
        fatal("--workloads names no workload");
    std::set<std::string> seen;
    for (const std::string &w : *g.workloads) {
        if (!workloads::exists(w))
            fatal("--workloads: unknown workload '%s' (try --list)",
                  w.c_str());
        if (!seen.insert(w).second)
            fatal("--workloads lists '%s' twice", w.c_str());
    }
    return *g.workloads;
}

std::map<std::string, int>
parseScales(const json::Value &v)
{
    std::map<std::string, int> out;
    if (v.isNull())
        return out;
    if (!v.isObject())
        fatal("scales needs an object of workload -> scale");
    for (const auto &[w, s] : v.members) {
        if (!workloads::exists(w))
            fatal("scales: unknown workload '%s'", w.c_str());
        if (!s.isNumber() || s.number < 1 || s.number > (1 << 20) ||
            s.number != static_cast<int>(s.number))
            fatal("scales: '%s' needs an integer scale in [1, %d]",
                  w.c_str(), 1 << 20);
        out[w] = static_cast<int>(s.number);
    }
    return out;
}

/**
 * The blocks of @p g's axes, or of its --schemes shorthand; @p axesKey
 * receives the name diagnostics give them.
 */
std::vector<Block>
parseAxes(const GridSpec &g, const std::map<std::string, int> &scales,
          std::string &axesKey)
{
    // --schemes is shorthand for a one-axis grid over the scheme knob.
    json::Value axes = g.axes;
    axesKey = "axes";
    if (axes.isNull()) {
        if (g.schemes && g.schemes->empty())
            fatal("--schemes names no scheme");
        json::Value list;
        list.kind = json::Value::Kind::Array;
        for (const std::string &s :
             g.schemes ? *g.schemes
                       : config::KnobRegistry::instance()
                             .find("scheme")
                             ->enumValues) {
            json::Value v;
            v.kind = json::Value::Kind::String;
            v.str = s;
            list.items.push_back(std::move(v));
        }
        axes.kind = json::Value::Kind::Object;
        axes.keys = {"scheme"};
        axes.members["scheme"] = std::move(list);
        axesKey = "--schemes";
    } else if (g.schemes) {
        fatal("--schemes and spec key 'axes' both define the grid; "
              "give one");
    }

    std::vector<Block> blocks;
    if (axes.isArray()) {
        for (std::size_t i = 0; i < axes.items.size(); ++i)
            blocks.push_back(parseBlock(
                strprintf("%s[%zu]", axesKey.c_str(), i),
                axes.items[i]));
    } else {
        blocks.push_back(parseBlock(axesKey, axes));
    }
    if (blocks.empty())
        fatal("axes lists no block");
    if (!scales.empty())
        for (const Block &b : blocks)
            for (const Axis &a : b)
                if (a.knob == &scaleKnob())
                    fatal("scales and a 'scale' axis both set the scale; "
                          "give one");
    return blocks;
}

/**
 * Apply the values @p idx picks (kAtBase: none) on @p b's axes over
 * @p p in registry order, presets first, like the keys of a spec file
 * (knob pointers all point into the registry's one knob array, so they
 * compare in that order). Returns the scale a scale axis sets, else
 * @p scale.
 */
int
applyPoint(const Block &b, const std::vector<std::size_t> &idx,
           config::RunParams &p, int scale)
{
    std::vector<std::size_t> order(b.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](auto x, auto y) {
        return std::less<>()(b[x].knob, b[y].knob);
    });
    for (std::size_t i : order) {
        if (idx[i] == kAtBase)
            continue;
        if (b[i].knob == &scaleKnob())
            scale = static_cast<int>(b[i].values[idx[i]].i);
        else
            b[i].knob->set(p, b[i].values[idx[i]]);
    }
    return scale;
}

} // namespace

void
addGridOptions(cli::ArgParser &p, GridSpec &g)
{
    p.option("--suite", "S", "parboil | halloc | all (default parboil)",
             [&g](const std::string &v) { g.suite = v; }, "suite");
    p.option("--workloads", "A,B,C",
             "explicit workload list (overrides --suite)",
             [&g](const std::string &v) { g.workloads = cli::splitCsv(v); },
             "workloads");
    p.option("--schemes", "A,B,C",
             "scheme axis (default all five; exclusive with axes)",
             [&g](const std::string &v) { g.schemes = cli::splitCsv(v); },
             "schemes");
    p.option("--scale", "N",
             "scale of the workloads scales does not name (default 1)",
             [&g](const std::string &v) {
                 g.scale = cli::parseIntFlag("--scale", v, 1, 1 << 20);
             },
             "scale");
    p.specKey("axes",
              "grid: knob -> value list (cartesian product), or a list "
              "of such blocks (union)",
              [&g](const json::Value &v) { g.axes = v; });
    p.specKey("scales", "grid: workload -> scale",
              [&g](const json::Value &v) { g.scales = v; });
    p.specKey("normalize",
              "grid: knob -> value of the base points (default: first "
              "value of the first axis)",
              [&g](const json::Value &v) { g.normalize = v; });
}

Grid
expandGrid(const GridSpec &g, const config::RunParams &base)
{
    const std::vector<std::string> names = resolveWorkloads(g);
    const std::map<std::string, int> scales = parseScales(g.scales);

    std::string axesKey;
    const std::vector<Block> blocks = parseAxes(g, scales, axesKey);

    // The base values: a knob -> value map every base point carries.
    std::map<const config::Knob *, config::KnobValue> norm;
    if (g.normalize.isNull()) {
        norm[blocks[0][0].knob] = blocks[0][0].values[0];
    } else {
        if (!g.normalize.isObject() || g.normalize.keys.empty())
            fatal("normalize needs an object of knob -> base value");
        for (const std::string &name : g.normalize.keys) {
            const config::Knob &k = findKnob("normalize", name);
            norm[&k] = k.fromJson(
                strprintf("normalize: '%s'", name.c_str()),
                *g.normalize.find(name));
        }
    }
    auto carries = [&](const Block &b, const config::Knob *k,
                       const config::KnobValue &v) {
        for (const Axis &a : b)
            if (a.knob == k)
                return std::find(a.values.begin(), a.values.end(), v) !=
                       a.values.end();
        return false;
    };
    for (const auto &[k, v] : norm) {
        bool any = false;
        for (const Block &b : blocks)
            any = any || carries(b, k, v);
        if (!any)
            fatal("normalize: no axis carries %s=%s", k->name.c_str(),
                  v.toString().c_str());
    }

    // Base blocks carry every base value; the axes they vary besides
    // the normalize knobs decide which base a point divides by.
    const Block *baseBlock = nullptr;
    std::vector<const config::Knob *> matching;
    for (const Block &b : blocks) {
        bool isBase = true;
        for (const auto &[k, v] : norm)
            isBase = isBase && carries(b, k, v);
        if (!isBase)
            continue;
        std::vector<const config::Knob *> m;
        for (const Axis &a : b)
            if (!norm.count(a.knob))
                m.push_back(a.knob);
        if (baseBlock && m != matching)
            fatal("normalize: the blocks carrying the base values vary "
                  "different axes");
        baseBlock = &b;
        matching = std::move(m);
    }
    if (!baseBlock)
        fatal("normalize: no single %s block carries every base value",
              axesKey.c_str());
    auto isMatching = [&](const config::Knob *k) {
        return std::find(matching.begin(), matching.end(), k) !=
               matching.end();
    };

    // Series labels name a point's values on its block's other axes,
    // except that a grid whose only axis is the scheme keeps plain
    // scheme names (RunSpec's default series label).
    const bool plainSchemes = blocks.size() == 1 &&
                              blocks[0].size() == 1 &&
                              blocks[0][0].knob->name == "scheme";
    auto seriesOf = [&](const Block &b, auto &&valueAt) {
        std::string s;
        if (plainSchemes)
            return s;
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (isMatching(b[i].knob))
                continue;
            if (!s.empty())
                s += ",";
            s += b[i].knob->name + "=" + valueAt(i).toString();
        }
        return s;
    };

    Grid grid;
    grid.baseSeries =
        plainSchemes ? norm.begin()->second.toString()
                     : seriesOf(*baseBlock, [&](std::size_t i) {
                           return norm.at((*baseBlock)[i].knob);
                       });

    std::set<std::string> seen;
    for (const std::string &w : names) {
        auto sc = scales.find(w);
        const int wScale = sc == scales.end() ? g.scale : sc->second;
        for (const Block &b : blocks) {
            // Odometer over the block, last axis fastest.
            std::vector<std::size_t> idx(b.size(), 0);
            for (bool more = true; more;) {
                config::RunParams p = base;
                const int scale = applyPoint(b, idx, p, wScale);

                RunSpec rs;
                rs.workload = w;
                rs.scale = scale;
                rs.cfg = p.cfg;
                rs.policy = p.policy;
                rs.series = seriesOf(
                    b, [&](std::size_t i) { return b[i].values[idx[i]]; });
                rs.group = w;
                for (std::size_t m = 0; m < matching.size(); ++m)
                    rs.group += (m ? "," : "/") + matching[m]->name + "=" +
                                (matching[m] == &scaleKnob()
                                     ? std::to_string(scale)
                                     : matching[m]->get(p).toString());
                std::string key = strprintf(
                    "%s (scale %d) %s", rs.groupLabel().c_str(), scale,
                    rs.seriesLabel().c_str());
                if (!seen.insert(key).second)
                    fatal("%s: duplicate grid point %s",
                          axesKey.c_str(), key.c_str());
                grid.points.push_back(std::move(rs));

                more = false;
                for (std::size_t i = b.size(); i-- > 0;) {
                    if (++idx[i] < b[i].values.size()) {
                        more = true;
                        break;
                    }
                    idx[i] = 0;
                }
            }
        }
    }
    return grid;
}

RunSpec
sampleGrid(const GridSpec &g, const config::RunParams &base,
           std::uint64_t seed, std::uint64_t index,
           const std::vector<std::string> &atBase,
           std::vector<std::string> *axes)
{
    const std::vector<std::string> names = resolveWorkloads(g);
    const std::map<std::string, int> scales = parseScales(g.scales);
    std::string axesKey;
    const std::vector<Block> blocks = parseAxes(g, scales, axesKey);

    const inject::CounterRng rng(seed, index);
    std::uint64_t draw = 0;
    RunSpec rs;
    rs.workload = names[rng.at(draw++) % names.size()];
    const Block &b = blocks.size() == 1
                         ? blocks[0]
                         : blocks[rng.at(draw++) % blocks.size()];
    std::vector<std::size_t> idx;
    for (const Axis &a : b) {
        const std::size_t i = rng.at(draw++) % a.values.size();
        rs.series += (rs.series.empty() ? "" : ",") + a.knob->name + "=" +
                     a.values[i].toString();
        idx.push_back(std::count(atBase.begin(), atBase.end(),
                                 a.knob->name) ? kAtBase : i);
        if (axes)
            axes->push_back(a.knob->name);
    }

    config::RunParams p = base;
    auto sc = scales.find(rs.workload);
    rs.scale = applyPoint(b, idx, p, sc == scales.end() ? g.scale : sc->second);
    rs.cfg = p.cfg;
    rs.policy = p.policy;
    return rs;
}

} // namespace gex::harness
