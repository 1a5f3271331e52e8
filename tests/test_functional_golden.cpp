/**
 * @file
 * Golden functional fingerprints: every registered workload's final
 * memory image, committed instruction streams and functional
 * statistics, pinned bit for bit. The timing-side golden digests
 * (test_golden_stats.cpp) see the functional simulator only through
 * the trace it hands the timing model; these pins guard the
 * functional simulator directly, values included.
 *
 * The digests are check::fingerprint()'s WordHash values
 * (common/digest.hpp). A deliberate change to WordHash or to the trace
 * packing moves every pin here and nothing else; re-pin from the
 * failure messages, which print the observed row.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "common/log.hpp"
#include "func/functional_sim.hpp"
#include "func/memory.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace gex {
namespace {

struct GoldenFingerprint {
    const char *workload;
    int scale;
    std::uint64_t memDigest;
    std::uint64_t traceDigest;
    std::uint64_t dynamicInsts;
    std::uint64_t memInsts;
    std::uint64_t memRequests;
    std::uint64_t touchedPages;
};

const GoldenFingerprint kGolden[] = {
    // clang-format off
    {"bfs", 1, 0x1bd0a436e73a2c4bull, 0x17e548b4fca6dd6aull, 50994, 9738, 41460, 242},
    {"cutcp", 1, 0x68824edebaf414ddull, 0x26a9dba42c4bba2full, 212480, 49408, 53248, 129},
    {"ha-grid", 1, 0x6f53aa985d10c0a9ull, 0xf58da148b210f77dull, 21120, 1536, 37440, 492},
    {"ha-prob", 1, 0xac36a5987ca73db7ull, 0xa16e01550330fbfcull, 32064, 2496, 56256, 732},
    {"ha-queue", 1, 0xc29e9efe8216504aull, 0x8fa4ba5bc3350d0dull, 18426, 2298, 61060, 776},
    {"ha-tree", 1, 0x7a8c2ffee59b476aull, 0xcce5fafa80985fcbull, 34944, 4224, 99840, 972},
    {"histo", 1, 0xd4f8cfbe7149bccfull, 0x0ae7c10c886cacf6ull, 48384, 15360, 217263, 770},
    {"lbm", 1, 0x32c2d29ec1a72bcfull, 0x74e0f7ba0a953a2dull, 116736, 9728, 19456, 456},
    {"mri-gridding", 1, 0x9cf17e1132568609ull, 0xcc7f80296af47eebull, 115800, 12048, 102072, 70},
    {"mri-q", 1, 0x1df639e69b7fb7caull, 0xdf99b90edfad5c5dull, 175104, 37248, 43008, 97},
    {"quad-tree", 1, 0xc4bf0a2db8f181ddull, 0x64d593c4c4e92a2full, 21120, 3840, 48480, 793},
    {"sad", 1, 0xa5d4de9f46a2e0f0ull, 0x8e90486cccf87813ull, 55296, 16896, 40960, 1280},
    {"sgemm", 1, 0x1331b240b2a8248cull, 0x4f6909a4eab3f146ull, 287232, 8704, 81920, 320},
    {"spmv", 1, 0x0e2c07b2539799acull, 0xbe85d08df178bd76ull, 135892, 28626, 559781, 1007},
    {"stencil", 1, 0x000202718e0a9a6aull, 0xdab6ba47f5f93c6aull, 176640, 65536, 194560, 2560},
    {"tpacf", 1, 0x581aaad4f3dd745bull, 0x53a8ecd403d31428ull, 260608, 20736, 288512, 657},
    {"lbm", 2, 0x2080133025b0899aull, 0xdb97cd6fbaf2d56full, 233472, 19456, 38912, 760},
    {"histo", 2, 0x4df89dfaa777f239ull, 0xbb774de8e22abe81ull, 96768, 30720, 434169, 1538},
    // clang-format on
};

std::string
row(const char *name, int scale, const check::ArchFingerprint &fp,
    const trace::KernelTrace &kt, std::size_t pages)
{
    return strprintf("{\"%s\", %d, 0x%016llxull, 0x%016llxull, %llu, "
                     "%llu, %llu, %zu},",
                     name, scale,
                     static_cast<unsigned long long>(fp.memDigest),
                     static_cast<unsigned long long>(fp.traceDigest),
                     static_cast<unsigned long long>(fp.dynamicInsts),
                     static_cast<unsigned long long>(kt.memInsts),
                     static_cast<unsigned long long>(kt.memRequests),
                     pages);
}

TEST(FunctionalGolden, EveryWorkloadFingerprintPinned)
{
    // Every registered workload has a scale-1 pin.
    for (const std::string &name : workloads::allNames()) {
        bool pinned = false;
        for (const GoldenFingerprint &g : kGolden)
            pinned |= g.scale == 1 && name == g.workload;
        EXPECT_TRUE(pinned) << name << " has no scale-1 golden row";
    }

    for (const GoldenFingerprint &g : kGolden) {
        SCOPED_TRACE(strprintf("%s scale %d", g.workload, g.scale));
        func::GlobalMemory mem;
        workloads::Workload wl = workloads::make(g.workload, mem, g.scale);
        func::FunctionalSim sim(mem);
        trace::KernelTrace kt = sim.run(wl.kernel);
        const check::ArchFingerprint fp = check::fingerprint(mem, kt);
        const std::string seen =
            row(g.workload, g.scale, fp, kt, mem.touchedPages());
        EXPECT_EQ(fp.memDigest, g.memDigest) << seen;
        EXPECT_EQ(fp.traceDigest, g.traceDigest) << seen;
        EXPECT_EQ(fp.dynamicInsts, g.dynamicInsts) << seen;
        EXPECT_EQ(kt.memInsts, g.memInsts) << seen;
        EXPECT_EQ(kt.memRequests, g.memRequests) << seen;
        EXPECT_EQ(mem.touchedPages(), g.touchedPages) << seen;
        // The func.* statistics report the same counts.
        EXPECT_EQ(kt.stats.get("func.dynamic_warp_insts"),
                  static_cast<double>(g.dynamicInsts));
        EXPECT_EQ(kt.stats.get("func.mem_insts"),
                  static_cast<double>(g.memInsts));
        EXPECT_EQ(kt.stats.get("func.mem_requests"),
                  static_cast<double>(g.memRequests));
        EXPECT_EQ(kt.stats.get("func.touched_pages"),
                  static_cast<double>(g.touchedPages));
    }
}

} // namespace
} // namespace gex
