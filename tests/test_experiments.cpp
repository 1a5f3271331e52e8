/**
 * @file
 * The experiment specs under experiments/ and the grid expansion that
 * runs them (harness::expandGrid, docs/CONFIGURATION.md "Grids").
 *
 * Each spec is pinned to the exact set of grid points of the figure
 * program it replaced: an FNV-1a over every point's (workload, scale,
 * specDigest), sorted, so equal pins mean the same simulations and
 * therefore the same cycles. A spec file without a pin fails, so a new
 * experiment must be pinned when it is added. The validation paths of
 * the grid keys are covered below.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "config/cli.hpp"
#include "harness/grid.hpp"
#include "harness/journal.hpp"

namespace gex {
namespace {

/** Parse a gexsim-sweep command line and expand its grid. */
harness::Grid
gridOf(std::vector<std::string> args)
{
    harness::GridSpec g;
    config::RunParams p;
    cli::ArgParser ap("t", "test");
    harness::addSweepGridOptions(ap, g);
    ap.bindKnobs(&p);
    args.insert(args.begin(), "t");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    ap.parse(static_cast<int>(argv.size()), argv.data());
    return harness::expandGrid(g, p);
}

std::uint64_t
pointsDigest(const harness::Grid &g)
{
    std::vector<std::tuple<std::string, int, std::uint64_t>> pts;
    for (const harness::RunSpec &rs : g.points)
        pts.emplace_back(rs.workload, rs.scale, harness::specDigest(rs));
    std::sort(pts.begin(), pts.end());
    Fnv1a f;
    for (const auto &[w, scale, digest] : pts) {
        f.s(w);
        f.u64(static_cast<std::uint64_t>(scale));
        f.u64(digest);
    }
    return f.h;
}

std::string
tmpSpec(const char *name, const std::string &text)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path);
    os << text;
    return path;
}

/** The ConfigError text of expanding @p spec, or "" if none. */
std::string
errorOf(const std::string &spec)
{
    try {
        gridOf({"--config", tmpSpec("grid_err.json", spec)});
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

// Point count and points digest per spec, generated from the grids of
// the figure programs these specs replaced.
const std::map<std::string, std::pair<std::size_t, std::uint64_t>>
    kPins = {
        {"ablation-frontend", {15, 0xf9321d4e529f7ed1ull}},
        {"ablation-uc1", {12, 0x9d86715de33d73ddull}},
        {"ablation-uc2", {10, 0xceac4dc242516bcfull}},
        {"fault-storm", {36, 0x203f2a51091a3b76ull}},
        {"faultsim", {495, 0x32257a2e254187aeull}},
        {"faultsim-quick", {4, 0x44ae3c4e6db72b19ull}},
        {"fig10", {44, 0x844b9e17a603696bull}},
        {"fig11", {55, 0xe61b745b9d739e93ull}},
        {"fig12", {66, 0x0bf3b7013f3da90cull}},
        {"fig13", {20, 0xbdbf7a577522578bull}},
        {"fig14", {44, 0x14505d78ef6bdabaull}},
        {"scal-sms", {18, 0x7cc89408ea6d60f9ull}},
        {"scal-sms-uc2", {12, 0x2961eef53e0fd835ull}},
};

TEST(Experiments, EverySpecReproducesItsPinnedGrid)
{
    std::size_t seen = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(GEX_EXPERIMENTS_DIR)) {
        const std::filesystem::path &path = entry.path();
        if (path.extension() != ".json")
            continue;
        const std::string name = path.stem().string();
        auto pin = kPins.find(name);
        ASSERT_NE(pin, kPins.end()) << "no pin for " << path;
        harness::Grid g = gridOf({"--config", path.string()});
        EXPECT_EQ(g.points.size(), pin->second.first) << name;
        EXPECT_EQ(pointsDigest(g), pin->second.second)
            << name << ": 0x" << std::hex << pointsDigest(g);
        ++seen;
    }
    EXPECT_EQ(seen, kPins.size());
}

TEST(Experiments, LabelsAndBasesFollowTheAxes)
{
    harness::Grid fig10 = gridOf(
        {"--config", std::string(GEX_EXPERIMENTS_DIR) + "/fig10.json",
         "--workloads", "bfs"});
    ASSERT_EQ(fig10.points.size(), 4u);
    EXPECT_EQ(fig10.baseSeries, "baseline");
    EXPECT_EQ(fig10.points[3].seriesLabel(), "replay-queue");
    EXPECT_EQ(fig10.points[3].groupLabel(), "bfs");

    // fig12: two bases per workload, one per link; the base's block
    // varies link besides the normalize knob, so link joins the group.
    harness::Grid fig12 = gridOf(
        {"--config", std::string(GEX_EXPERIMENTS_DIR) + "/fig12.json",
         "--workloads", "sgemm"});
    ASSERT_EQ(fig12.points.size(), 6u);
    EXPECT_EQ(fig12.baseSeries, "block-switching=false");
    EXPECT_EQ(fig12.points[0].scale, 3);
    EXPECT_EQ(fig12.points[1].groupLabel(), "sgemm/link=pcie");
    EXPECT_EQ(fig12.points[1].seriesLabel(), "block-switching=false");
    EXPECT_EQ(fig12.points[5].groupLabel(), "sgemm/link=pcie");
    EXPECT_EQ(fig12.points[5].seriesLabel(),
              "block-switching=true,ideal-switch=true");
    EXPECT_TRUE(fig12.points[5].cfg.idealContextSwitch);
}

TEST(Experiments, UnknownAxisKnobIsRejectedWithSuggestion)
{
    const std::string msg =
        errorOf("{\"axes\": {\"schme\": [\"baseline\"]}}");
    EXPECT_NE(msg.find("unknown knob 'schme'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'scheme'"), std::string::npos)
        << msg;
}

TEST(Experiments, OutOfRangeAxisValueIsRejected)
{
    const std::string msg = errorOf("{\"axes\": {\"sms\": [4, 0]}}");
    EXPECT_NE(msg.find("'sms'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("must be in"), std::string::npos) << msg;
    EXPECT_NE(errorOf("{\"axes\": {\"scheme\": [\"fancy\"]}}"), "");
}

TEST(Experiments, NormalizeValueNoAxisCarriesIsRejected)
{
    std::string msg = errorOf(
        "{\"axes\": {\"scheme\": [\"baseline\", \"wd-commit\"]},"
        " \"normalize\": {\"scheme\": \"operand-log\"}}");
    EXPECT_NE(msg.find("normalize"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scheme=operand-log"), std::string::npos) << msg;

    msg = errorOf("{\"axes\": {\"scheme\": [\"baseline\"]},"
                  " \"normalize\": {\"sms\": 16}}");
    EXPECT_NE(msg.find("no axis carries sms=16"), std::string::npos)
        << msg;
}

TEST(Experiments, ScaleAxisSetsEachPointsScale)
{
    // Weak scaling: the workload grows with the machine, and each
    // (sms, scale) pair is its own normalization group.
    harness::Grid g = gridOf(
        {"--config",
         std::string(GEX_EXPERIMENTS_DIR) + "/scal-sms-uc2.json",
         "--workloads", "ha-prob"});
    ASSERT_EQ(g.points.size(), 6u);
    EXPECT_EQ(g.baseSeries, "policy=heap-faults");
    EXPECT_EQ(g.points[0].scale, 1);
    EXPECT_EQ(g.points[3].scale, 2);
    EXPECT_EQ(g.points[3].cfg.numSms, 16);
    EXPECT_EQ(g.points[3].groupLabel(), "ha-prob/sms=16,scale=2");
    EXPECT_EQ(g.points[3].seriesLabel(), "policy=heap-faults-local");
    EXPECT_EQ(g.points[5].scale, 4);
}

TEST(Experiments, ScalesAndScaleAxisAreExclusive)
{
    const std::string msg =
        errorOf("{\"scales\": {\"bfs\": 2},"
                " \"axes\": {\"scale\": [1, 2]}}");
    EXPECT_NE(msg.find("scales and a 'scale' axis"), std::string::npos)
        << msg;
}

TEST(Experiments, OutOfRangeScaleAxisIsRejected)
{
    std::string msg = errorOf("{\"axes\": {\"scale\": [1, 0]}}");
    EXPECT_NE(msg.find("'scale' must be in"), std::string::npos) << msg;
    msg = errorOf("{\"axes\": {\"scale\": [1.5]}}");
    EXPECT_NE(msg.find("'scale' needs an integer"), std::string::npos)
        << msg;
}

TEST(Experiments, DuplicateScalePointIsRejected)
{
    const std::string msg =
        errorOf("{\"workloads\": [\"bfs\"], \"axes\": ["
                "{\"scale\": [1, 2]}, {\"scale\": [2]}]}");
    EXPECT_NE(msg.find("duplicate grid point"), std::string::npos) << msg;
}

TEST(Experiments, SchemesAndAxesAreExclusive)
{
    const std::string spec = tmpSpec(
        "grid_axes.json", "{\"axes\": {\"scheme\": [\"baseline\"]}}");
    EXPECT_THROW(gridOf({"--config", spec, "--schemes", "baseline"}),
                 ConfigError);
}

} // namespace
} // namespace gex
