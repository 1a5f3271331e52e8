/**
 * @file
 * Experiment grids as data: the workload list, per-workload scales,
 * knob axes and normalization base of a JSON experiment spec
 * (docs/CONFIGURATION.md, "Grids"), validated and expanded into the
 * SweepEngine points of one campaign, or sampled one point at a time.
 * Every paper figure is one such spec under experiments/, and
 * gexsim-check's fuzz case space is one under experiments/fuzz/.
 */

#ifndef GEX_HARNESS_GRID_HPP
#define GEX_HARNESS_GRID_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "config/knob_registry.hpp"
#include "harness/sweep.hpp"

namespace gex::cli {
class ArgParser;
} // namespace gex::cli

namespace gex::harness {

/** The grid keys of an experiment spec, as the driver collected them. */
struct GridSpec {
    /** Workload suite (parboil | halloc | all) when no list is given. */
    std::string suite = "parboil";
    /** Explicit workload list; overrides the suite. Must be non-empty. */
    std::optional<std::vector<std::string>> workloads;
    /**
     * Scheme list: shorthand for axes {"scheme": [...]}, exclusive
     * with axes. With neither, the grid is all five schemes.
     */
    std::optional<std::vector<std::string>> schemes;
    /** Scale of every workload the scales map does not name. */
    int scale = 1;
    /** "scales": object of workload -> scale (null: none). */
    json::Value scales;
    /**
     * "axes": object of knob -> list of values, expanded as a
     * cartesian product (first axis outermost), or an array of such
     * blocks whose union is the grid. Besides registry knobs, an axis
     * may be "scale", the workload scale of the block's points.
     */
    json::Value axes;
    /**
     * "normalize": object of knob -> value selecting the base points
     * (null: the first value of the first axis).
     */
    json::Value normalize;
};

/**
 * Register the grid's driver options on @p p, writing into @p g: the
 * flags/spec keys --suite, --workloads, --schemes and --scale, and
 * the spec-only keys axes, scales and normalize.
 */
void addGridOptions(cli::ArgParser &p, GridSpec &g);

/** An expanded grid: its points in run order and its base series. */
struct Grid {
    std::vector<RunSpec> points;
    /**
     * Series label of every base point. A point's group label is its
     * workload plus its values on the axes the base block varies
     * besides the normalize knobs, so normalizeToSeries(runs,
     * baseSeries) divides each point by the base with the same
     * workload and the same values on those axes.
     */
    std::string baseSeries;
};

/**
 * Validate @p g and expand it over @p base, the resolved spec and
 * flag configuration. Per workload, blocks expand in order; a point's
 * axis values apply over @p base in registry order (a preset axis
 * such as link or policy resets the components it covers).
 *
 * Labels come from the axis values: series "knob=value,..." (plain
 * scheme names when the grid's only axis is scheme), group as
 * described on Grid::baseSeries.
 *
 * ConfigError names the offending flag or key on: an unknown suite or
 * workload, an empty or repeated workload list, a bad scale, both
 * schemes and axes given, both scales and a scale axis given, an
 * unknown axis knob (with a "did you mean"), a value the knob
 * rejects, a value listed twice, a duplicate grid point, and a
 * normalize knob or value that no axis carries.
 */
Grid expandGrid(const GridSpec &g, const config::RunParams &base);

/**
 * Draw point @p index of @p g instead of expanding it, for grids too
 * large to run whole (experiments/fuzz/cases.json). A pure function of
 * (@p seed, @p index, @p g, @p base): of inject::CounterRng(seed,
 * index), one draw picks the workload, one more the block when axes is
 * a list, then one per axis its value. Validation and application are
 * expandGrid's; normalize is not read. The series lists the drawn
 * values ("sms=2,policy=resident"); @p axes receives the block's axis
 * names, in spec order. Axes named in @p atBase keep their base value.
 */
RunSpec sampleGrid(const GridSpec &g, const config::RunParams &base,
                   std::uint64_t seed, std::uint64_t index,
                   const std::vector<std::string> &atBase = {},
                   std::vector<std::string> *axes = nullptr);

} // namespace gex::harness

#endif // GEX_HARNESS_GRID_HPP
