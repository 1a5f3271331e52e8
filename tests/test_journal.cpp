/**
 * @file
 * Campaign-journal tests (docs/ROBUSTNESS.md, "Resume contract"):
 * point keys and config digests, record/load round trips through the
 * atomic JSONL file, corrupt-line tolerance, digest-guarded lookups,
 * and the headline property — a campaign interrupted after a few
 * points and resumed at a different parallelism produces a final JSON
 * document byte-identical to an uninterrupted run's.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness/journal.hpp"
#include "harness/sweep.hpp"

namespace gex {
namespace {

std::string
tmpPath(const char *name)
{
    std::string p = ::testing::TempDir() + name;
    std::remove(p.c_str());
    return p;
}

harness::RunSpec
smallSpec(const char *workload, gpu::Scheme scheme)
{
    harness::RunSpec rs;
    rs.workload = workload;
    rs.cfg = gpu::GpuConfig::baseline();
    rs.cfg.numSms = 4;
    rs.cfg.scheme = scheme;
    return rs;
}

std::vector<harness::RunSpec>
smallGrid()
{
    std::vector<harness::RunSpec> grid;
    for (const char *w : {"bfs", "spmv"})
        for (gpu::Scheme s :
             {gpu::Scheme::StallOnFault, gpu::Scheme::ReplayQueue})
            grid.push_back(smallSpec(w, s));
    // One faulting point so fault machinery goes through the journal
    // too.
    harness::RunSpec dp = smallSpec("bfs", gpu::Scheme::ReplayQueue);
    dp.policy = vm::VmPolicy::demandPaging();
    dp.series = "replay-queue-dp";
    grid.push_back(std::move(dp));
    return grid;
}

/** The deterministic report document for @p runs, as one string. */
std::string
reportJson(std::vector<harness::RunRecord> runs)
{
    harness::normalizeToSeries(runs, "baseline");
    harness::SweepReport rep;
    rep.name = "test_journal";
    rep.deterministic = true;
    rep.geomeans = harness::seriesGeomeans(runs);
    rep.runs = std::move(runs);
    std::ostringstream os;
    rep.writeJson(os);
    return os.str();
}

// --- Keys and digests ------------------------------------------------

TEST(Journal, PointKeyNamesTheGridCoordinates)
{
    harness::RunSpec rs = smallSpec("bfs", gpu::Scheme::ReplayQueue);
    rs.policy = vm::VmPolicy::demandPaging();
    std::string key = harness::pointKey(rs);
    EXPECT_NE(key.find("bfs"), std::string::npos) << key;
    EXPECT_NE(key.find("replay-queue"), std::string::npos) << key;
    EXPECT_NE(key.find(vm::policyName(rs.policy)), std::string::npos)
        << key;
}

TEST(Journal, DigestIgnoresExecutionKnobsOnly)
{
    harness::RunSpec rs = smallSpec("bfs", gpu::Scheme::ReplayQueue);
    const std::uint64_t d0 = harness::specDigest(rs);

    // Execution-environment knobs do not change results and must not
    // change the digest: a campaign resumes with or without --check.
    harness::RunSpec chk = rs;
    chk.cfg.checkInvariants = true;
    EXPECT_EQ(harness::specDigest(chk), d0);

    // Everything result-affecting must change it.
    harness::RunSpec sms = rs;
    sms.cfg.numSms = 8;
    EXPECT_NE(harness::specDigest(sms), d0);

    harness::RunSpec rate = rs;
    rate.policy.inject.rate = 0.25;
    EXPECT_NE(harness::specDigest(rate), d0);

    // Watchdog knobs change what outcome gets *recorded* (livelock vs
    // budget vs completion), so they are part of the digest.
    harness::RunSpec wd = rs;
    wd.cfg.watchdogCycles = 1'000;
    EXPECT_NE(harness::specDigest(wd), d0);

    harness::RunSpec bud = rs;
    bud.cfg.maxCycles = 1'000;
    EXPECT_NE(harness::specDigest(bud), d0);
}

// --- Record / load round trip ---------------------------------------

TEST(Journal, RecordLoadRoundTripsResultBitExactly)
{
    std::string path = tmpPath("gex_journal_roundtrip.jsonl");

    harness::SweepEngine eng(1);
    harness::CampaignJournal j1(path);
    eng.setJournal(&j1);
    harness::RunSpec rs = smallSpec("bfs", gpu::Scheme::StallOnFault);
    eng.add(rs);
    std::vector<harness::RunRecord> runs = eng.run();
    ASSERT_EQ(runs.size(), 1u);
    ASSERT_TRUE(runs[0].ok());
    EXPECT_EQ(j1.size(), 1u);

    harness::CampaignJournal j2(path);
    EXPECT_EQ(j2.load(), 1u);
    harness::RunRecord rec;
    ASSERT_TRUE(j2.lookup(rs, &rec));
    EXPECT_EQ(rec.status, harness::PointStatus::Ok);
    EXPECT_EQ(rec.attempts, runs[0].attempts);
    EXPECT_EQ(rec.result.cycles, runs[0].result.cycles);
    EXPECT_EQ(rec.result.instructions, runs[0].result.instructions);
    const auto &want = runs[0].result.stats.scalars();
    const auto &got = rec.result.stats.scalars();
    ASSERT_EQ(got.size(), want.size());
    auto it = got.begin();
    for (const auto &kv : want) {
        EXPECT_EQ(it->first, kv.first);
        EXPECT_EQ(it->second, kv.second) << kv.first;
        ++it;
    }

    // A different config must miss: the digest guards the lookup.
    harness::RunSpec other = rs;
    other.cfg.numSms = 8;
    EXPECT_FALSE(j2.lookup(other, &rec));

    std::remove(path.c_str());
}

TEST(Journal, MalformedLinesAreSkippedNotFatal)
{
    std::string path = tmpPath("gex_journal_torn.jsonl");
    {
        harness::SweepEngine eng(1);
        harness::CampaignJournal j(path);
        eng.setJournal(&j);
        eng.add(smallSpec("bfs", gpu::Scheme::StallOnFault));
        eng.run();
    }
    // Simulate the torn write of a crash plus a corrupt byte.
    {
        std::ofstream os(path, std::ios::app);
        os << "{\"key\": \"half a li";
    }
    harness::CampaignJournal j(path);
    EXPECT_EQ(j.load(), 1u);
    harness::RunRecord rec;
    EXPECT_TRUE(
        j.lookup(smallSpec("bfs", gpu::Scheme::StallOnFault), &rec));
    std::remove(path.c_str());
}

// --- The resume contract --------------------------------------------

TEST(Journal, InterruptedCampaignResumesBitIdentical)
{
    std::vector<harness::RunSpec> grid = smallGrid();

    // The reference: one uninterrupted serial campaign.
    std::string cleanPath = tmpPath("gex_journal_clean.jsonl");
    harness::CampaignJournal clean(cleanPath);
    harness::SweepEngine ref(1);
    ref.setJournal(&clean);
    for (const auto &rs : grid)
        ref.add(rs);
    std::string want = reportJson(ref.run());

    // The "crash": a first engine journals only the first two points,
    // as if the process was killed mid-campaign.
    std::string path = tmpPath("gex_journal_resume.jsonl");
    {
        harness::CampaignJournal j(path);
        harness::SweepEngine eng(1);
        eng.setJournal(&j);
        eng.add(grid[0]);
        eng.add(grid[1]);
        eng.run();
        EXPECT_EQ(j.size(), 2u);
    }

    // The resume: fresh process state, the full grid, more worker
    // threads than the first attempt.
    harness::CampaignJournal j(path);
    EXPECT_EQ(j.load(), 2u);
    harness::SweepEngine eng(4);
    eng.setJournal(&j);
    for (const auto &rs : grid)
        eng.add(rs);
    std::vector<harness::RunRecord> runs = eng.run();
    EXPECT_EQ(j.size(), grid.size());
    std::string got = reportJson(std::move(runs));

    EXPECT_EQ(got, want);

    std::remove(cleanPath.c_str());
    std::remove(path.c_str());
}

} // namespace
} // namespace gex
