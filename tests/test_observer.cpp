/**
 * @file
 * Integration tests: the pipeline observer layer (src/obs) — event
 * sequences emitted by the stage modules under the schemes whose
 * semantics they make visible, the Chrome-trace writer's JSON, the
 * pipeline view's ring, the guarantee that attaching an observer
 * never changes simulation behaviour, and pinned digests of five full
 * event streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/json.hpp"
#include "func/functional_sim.hpp"
#include "gpu/gpu.hpp"
#include "harness/sweep.hpp"
#include "kasm/builder.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/observer.hpp"
#include "obs/pipeline_view.hpp"
#include "vm/memory_manager.hpp"

namespace gex {
namespace {

using obs::PipeEvent;
using obs::PipeEventKind;

struct Built {
    func::GlobalMemory mem;
    func::Kernel kernel;
    trace::KernelTrace trace;
};

/**
 * The paper's Figure 3 running example (one warp): two global loads at
 * trace indices 4 and 6, with independent ALU work between them.
 */
void
buildFig3(Built &bt)
{
    kasm::KernelBuilder b("fig3");
    b.setNumParams(1);
    b.ldparam(2, 0);
    b.iaddi(4, 2, 4096);
    b.movi(9, 100);
    b.movi(7, 8);
    b.ldGlobal(3, 2); // #4: A
    b.isubi(9, 9, 4); // #5: B
    b.ldGlobal(8, 4); // #6: C
    b.iaddi(4, 7, 8); // #7: D (WAR on R4 with C)
    b.exit();
    bt.kernel.program = b.build();
    bt.kernel.grid = {1, 1, 1};
    bt.kernel.block = {32, 1, 1};
    bt.kernel.params = {1 << 20};
    // Register the input buffer so demand-paging runs start it on the
    // CPU (the loads then page-fault).
    bt.kernel.buffers = {
        {"in", 1 << 20, 2 * 4096 + 8, func::BufferKind::Input}};
    func::FunctionalSim fsim(bt.mem);
    bt.trace = fsim.run(bt.kernel);
}

gpu::SimResult
runWith(const Built &bt, gpu::Scheme s, obs::PipelineObserver *o,
        bool demand_paging = false)
{
    gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
    cfg.scheme = s;
    gpu::Gpu g(cfg);
    if (o)
        g.setObserver(o);
    if (demand_paging)
        return g.run(bt.kernel, bt.trace, vm::VmPolicy::demandPaging());
    return g.run(bt.kernel, bt.trace);
}

std::size_t
countKind(const std::vector<PipeEvent> &ev, PipeEventKind k)
{
    return static_cast<std::size_t>(
        std::count_if(ev.begin(), ev.end(),
                      [k](const PipeEvent &e) { return e.kind == k; }));
}

TEST(Observer, AttachingIsPurelyAdditive)
{
    Built bt;
    buildFig3(bt);
    for (gpu::Scheme s : gpu::allSchemes()) {
        gpu::SimResult plain = runWith(bt, s, nullptr);
        obs::RecordingObserver rec;
        gpu::SimResult watched = runWith(bt, s, &rec);
        EXPECT_EQ(plain.cycles, watched.cycles) << gpu::schemeName(s);
        EXPECT_EQ(plain.instructions, watched.instructions)
            << gpu::schemeName(s);
        EXPECT_FALSE(rec.events.empty()) << gpu::schemeName(s);
    }
}

TEST(Observer, FaultFreeStreamIsWellFormed)
{
    Built bt;
    buildFig3(bt);
    obs::RecordingObserver rec;
    runWith(bt, gpu::Scheme::StallOnFault, &rec);

    // Every dynamic instruction is fetched, issued, and committed
    // exactly once; nothing faults or squashes on a resident run.
    const std::size_t n = bt.trace.dynamicInsts();
    EXPECT_EQ(countKind(rec.events, PipeEventKind::Fetched), n);
    EXPECT_EQ(countKind(rec.events, PipeEventKind::Issued), n);
    EXPECT_EQ(countKind(rec.events, PipeEventKind::Committed), n);
    EXPECT_EQ(countKind(rec.events, PipeEventKind::Faulted), 0u);
    EXPECT_EQ(countKind(rec.events, PipeEventKind::Squashed), 0u);
    // One last TLB check per global-memory instruction.
    EXPECT_EQ(countKind(rec.events, PipeEventKind::TlbChecked),
              bt.trace.memInsts);

    // Single SM: the stream is in simulated-time order.
    for (std::size_t i = 1; i < rec.events.size(); ++i)
        ASSERT_GE(rec.events[i].cycle, rec.events[i - 1].cycle);

    // Per instruction, the lifecycle order holds.
    for (std::uint32_t idx = 0; idx < n; ++idx) {
        Cycle fetched = 0, issued = 0, committed = 0;
        for (const PipeEvent &e : rec.events) {
            if (e.traceIdx != idx)
                continue;
            if (e.kind == PipeEventKind::Fetched)
                fetched = e.cycle;
            else if (e.kind == PipeEventKind::Issued)
                issued = e.cycle;
            else if (e.kind == PipeEventKind::Committed)
                committed = e.cycle;
        }
        EXPECT_LT(fetched, issued) << "trace idx " << idx;
        EXPECT_LT(issued, committed) << "trace idx " << idx;
    }
}

TEST(Observer, WdLastCheckFetchBarrierSequence)
{
    Built bt;
    buildFig3(bt);
    obs::RecordingObserver rec;
    runWith(bt, gpu::Scheme::WarpDisableLastCheck, &rec);
    const auto &ev = rec.events;

    // The first load (#4) is a fetch barrier: disable at its fetch,
    // last TLB check while fetch is down, re-enable in the same cycle
    // as the check (wd-lastcheck's defining property).
    auto is_kind_at = [&](PipeEventKind k, std::uint32_t idx) {
        return [k, idx](const PipeEvent &e) {
            return e.kind == k && e.traceIdx == idx;
        };
    };
    auto dis = std::find_if(ev.begin(), ev.end(),
                            is_kind_at(PipeEventKind::FetchDisabled, 4));
    ASSERT_NE(dis, ev.end());
    auto chk = std::find_if(dis, ev.end(),
                            is_kind_at(PipeEventKind::TlbChecked, 4));
    ASSERT_NE(chk, ev.end());
    auto ren = std::find_if(dis, ev.end(), [](const PipeEvent &e) {
        return e.kind == PipeEventKind::FetchReenabled;
    });
    ASSERT_NE(ren, ev.end());
    EXPECT_LE(chk - ev.begin(), ren - ev.begin());
    EXPECT_EQ(chk->cycle, ren->cycle);

    // While the barrier is down, nothing younger than the load is
    // fetched: the only Fetched event between disable and re-enable is
    // the load itself.
    for (auto it = dis; it != ren; ++it) {
        if (it->kind == PipeEventKind::Fetched) {
            EXPECT_EQ(it->traceIdx, 4u);
        }
    }
    // After re-enable, fetch restarts no earlier than the penalty
    // allows and the younger instructions flow again.
    auto next_fetch = std::find_if(ren, ev.end(), [](const PipeEvent &e) {
        return e.kind == PipeEventKind::Fetched;
    });
    ASSERT_NE(next_fetch, ev.end());
    EXPECT_EQ(next_fetch->traceIdx, 5u);
    EXPECT_GT(next_fetch->cycle, ren->cycle);
}

TEST(Observer, OperandLogAllocateReleasePairs)
{
    Built bt;
    buildFig3(bt);
    obs::RecordingObserver rec;
    runWith(bt, gpu::Scheme::OperandLog, &rec);
    const auto &ev = rec.events;

    // One allocation per global-memory instruction, each matched by a
    // release of the same partition space.
    ASSERT_EQ(countKind(ev, PipeEventKind::LogAllocated),
              bt.trace.memInsts);
    ASSERT_EQ(countKind(ev, PipeEventKind::LogReleased),
              bt.trace.memInsts);

    for (const std::uint32_t idx : {4u, 6u}) {
        Cycle issued = 0, alloc = 0, released = 0, committed = 0;
        std::uint64_t alloc_bytes = 0, release_bytes = 0;
        for (const PipeEvent &e : ev) {
            if (e.traceIdx != idx)
                continue;
            switch (e.kind) {
            case PipeEventKind::Issued: issued = e.cycle; break;
            case PipeEventKind::LogAllocated:
                alloc = e.cycle;
                alloc_bytes = e.arg;
                break;
            case PipeEventKind::LogReleased:
                released = e.cycle;
                release_bytes = e.arg;
                break;
            case PipeEventKind::Committed: committed = e.cycle; break;
            default: break;
            }
        }
        // Space is reserved in the issue cycle (admission gate) and
        // freed at the last TLB check, before commit.
        EXPECT_EQ(alloc, issued) << "trace idx " << idx;
        EXPECT_GT(released, alloc) << "trace idx " << idx;
        EXPECT_LE(released, committed) << "trace idx " << idx;
        // A 32-lane load logs one 256 B address entry (section 3.3).
        EXPECT_EQ(alloc_bytes, sm::OperandLog::entryBytes(false));
        EXPECT_EQ(release_bytes, alloc_bytes);
    }
}

TEST(Observer, ReplayQueueFaultSquashReplaySequence)
{
    Built bt;
    buildFig3(bt);
    obs::RecordingObserver rec;
    runWith(bt, gpu::Scheme::ReplayQueue, &rec, /*demand_paging=*/true);
    const auto &ev = rec.events;

    // The inputs start on the CPU, so the loads page-fault. The fault
    // reaction is fault -> squash -> queue for replay, atomically at
    // one cycle, then the instruction is re-fetched, re-issued, and
    // commits exactly once.
    auto flt = std::find_if(ev.begin(), ev.end(), [](const PipeEvent &e) {
        return e.kind == PipeEventKind::Faulted;
    });
    ASSERT_NE(flt, ev.end());
    const std::uint32_t idx = flt->traceIdx;

    auto sq = std::next(flt);
    ASSERT_NE(sq, ev.end());
    // The squash may release held state first; find it, same cycle.
    while (sq != ev.end() && sq->kind != PipeEventKind::Squashed)
        ++sq;
    ASSERT_NE(sq, ev.end());
    EXPECT_EQ(sq->traceIdx, idx);
    EXPECT_EQ(sq->cycle, flt->cycle);
    auto rep = std::find_if(sq, ev.end(), [](const PipeEvent &e) {
        return e.kind == PipeEventKind::Replayed;
    });
    ASSERT_NE(rep, ev.end());
    EXPECT_EQ(rep->traceIdx, idx);
    EXPECT_EQ(rep->cycle, flt->cycle);

    // Replayed fetches carry arg=1 (from the replay queue).
    auto refetch = std::find_if(rep, ev.end(), [idx](const PipeEvent &e) {
        return e.kind == PipeEventKind::Fetched && e.traceIdx == idx;
    });
    ASSERT_NE(refetch, ev.end());
    EXPECT_EQ(refetch->arg, 1u);

    std::size_t issues = 0, commits = 0;
    for (const PipeEvent &e : ev) {
        if (e.traceIdx != idx)
            continue;
        if (e.kind == PipeEventKind::Issued)
            ++issues;
        if (e.kind == PipeEventKind::Committed)
            ++commits;
    }
    EXPECT_GE(issues, 2u); // original + at least one replay
    EXPECT_EQ(commits, 1u);
}

TEST(Observer, ChromeTraceJsonIsWellFormed)
{
    Built bt;
    buildFig3(bt);
    obs::ChromeTraceWriter writer;
    writer.setProgram(&bt.kernel.program);
    runWith(bt, gpu::Scheme::ReplayQueue, &writer, /*demand_paging=*/true);
    ASSERT_GT(writer.eventCount(), 0u);

    std::ostringstream os;
    writer.write(os);
    std::string err;
    auto root = json::parse(os.str(), &err);
    ASSERT_NE(root, nullptr) << err;
    ASSERT_TRUE(root->isObject());
    const json::Value *events = root->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->items.empty());

    bool saw_slice = false, saw_fault = false, saw_meta = false;
    for (const json::Value &e : events->items) {
        ASSERT_TRUE(e.isObject());
        const json::Value *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_NE(e.find("pid"), nullptr);
        if (ph->asString() == "M")
            saw_meta = true;
        if (ph->asString() == "X") {
            saw_slice = true;
            EXPECT_NE(e.find("dur"), nullptr);
            EXPECT_NE(e.find("ts"), nullptr);
        }
        if (ph->asString() == "i" && e.find("name") &&
            e.find("name")->asString() == "faulted")
            saw_fault = true;
    }
    EXPECT_TRUE(saw_meta);
    EXPECT_TRUE(saw_slice);
    EXPECT_TRUE(saw_fault); // demand paging: the loads page-fault
}

TEST(Observer, PipelineViewRingKeepsMostRecent)
{
    obs::PipelineView view(4);
    for (std::uint32_t i = 0; i < 10; ++i) {
        PipeEvent e;
        e.cycle = i;
        e.sm = 0;
        e.warp = 0;
        e.kind = PipeEventKind::Fetched;
        e.traceIdx = i;
        e.staticIdx = i;
        view.event(e);
    }
    EXPECT_EQ(view.size(), 4u);
    EXPECT_EQ(view.totalEvents(), 10u);

    std::ostringstream os;
    view.render(os);
    const std::string text = os.str();
    // Oldest retained first (#6), newest last (#9), drop note present.
    EXPECT_NE(text.find("#6"), std::string::npos);
    EXPECT_NE(text.find("#9"), std::string::npos);
    EXPECT_EQ(text.find("#5"), std::string::npos);
    EXPECT_NE(text.find("6 earlier events dropped"), std::string::npos);
    EXPECT_LT(text.find("#6"), text.find("#9"));

    view.clear();
    EXPECT_EQ(view.size(), 0u);
    EXPECT_EQ(view.totalEvents(), 0u);
}

TEST(Observer, PipelineViewWarpFilter)
{
    obs::PipelineView view(16);
    view.filterWarp(2);
    PipeEvent e;
    e.kind = PipeEventKind::Issued;
    e.warp = 1;
    view.event(e);
    e.warp = 2;
    view.event(e);
    EXPECT_EQ(view.totalEvents(), 1u);
}

TEST(Observer, PipelineViewForwardsEveryEventToNext)
{
    // The ring tees: the downstream observer sees every event, the
    // warp filter only narrows what the ring keeps.
    obs::RecordingObserver next;
    obs::PipelineView view(2, &next);
    view.filterWarp(1);
    PipeEvent e;
    e.kind = PipeEventKind::Issued;
    for (int w : {0, 1, 1, 1, 2}) {
        e.warp = w;
        view.event(e);
    }
    EXPECT_EQ(next.events.size(), 5u);
    EXPECT_EQ(view.totalEvents(), 3u);
    EXPECT_EQ(view.size(), 2u);
}

TEST(Observer, EventNamesAreKebabCaseAndDistinct)
{
    std::vector<std::string> names;
    for (int k = 0; k < obs::kNumPipeEventKinds; ++k) {
        const char *n =
            obs::pipeEventName(static_cast<PipeEventKind>(k));
        ASSERT_NE(n, nullptr);
        for (const char *c = n; *c; ++c)
            EXPECT_TRUE((*c >= 'a' && *c <= 'z') || *c == '-')
                << "event name '" << n << "'";
        names.emplace_back(n);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end());
}

/** FNV-1a over every field of every event, in emission order. */
class DigestObserver : public obs::PipelineObserver
{
  public:
    void
    event(const PipeEvent &e) override
    {
        f.u64(e.cycle);
        f.u64(static_cast<std::uint64_t>(e.sm));
        f.u64(static_cast<std::uint64_t>(e.slot));
        f.u64(static_cast<std::uint64_t>(e.warp));
        f.u64(static_cast<std::uint64_t>(e.kind));
        f.u64(e.traceIdx);
        f.u64(e.staticIdx);
        f.u64(e.arg);
        ++count;
    }

    Fnv1a f;
    std::uint64_t count = 0;
};

struct StreamPoint {
    const char *workload;
    const char *scheme;
    bool demandPaging;
    bool blockSwitching;
    bool gto;
    double injectRate; ///< Bernoulli; 0 = off
    /** A stat the point exists to exercise; must be non-zero. */
    const char *exercised;
    std::uint64_t events;
    std::uint64_t digest;
};

// Pinned on the three-phase tick engine (serial events, per-SM compute
// staged for a serial drain, observer events buffered per SM and
// flushed in ascending SM order), before it became one fused serial
// tick per SM. UC1 block switching under demand paging, Bernoulli
// injection under the operand log, the wd-commit fetch barrier, GTO,
// and histo, whose SMs sleep through most cycles.
const StreamPoint kStream[] = {
    {"lbm", "replay-queue", true, true, false, 0.0, "sm.switch_outs",
     621378ull, 0x8685d208f3977b5bull},
    {"spmv", "operand-log", false, false, false, 0.01,
     "mmu.injected_faults", 770275ull, 0x242a8f4679b0284full},
    {"bfs", "wd-commit", true, false, false, 0.0, "mmu.faults",
     293400ull, 0x6fa0ef5f4a60da3aull},
    {"bfs", "replay-queue", true, false, true, 0.0, "mmu.faults",
     277762ull, 0x292d011b02ff21d3ull},
    {"histo", "replay-queue", true, false, false, 0.0,
     "sm.stall_scoreboard", 338399ull, 0x615d2aba5b9503c6ull},
};

TEST(Observer, EventStreamBitIdenticalToCapturedBaseline)
{
    harness::TraceCache cache;
    for (const StreamPoint &pt : kStream) {
        SCOPED_TRACE(std::string(pt.workload) + "/" + pt.scheme);
        const harness::TracedWorkload &tw = cache.get(pt.workload);
        gpu::GpuConfig cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::schemeFromName(pt.scheme);
        cfg.blockSwitching = pt.blockSwitching;
        if (pt.gto)
            cfg.sm.schedPolicy = gpu::SchedPolicy::GreedyThenOldest;
        vm::VmPolicy policy = pt.demandPaging
                                  ? vm::VmPolicy::demandPaging()
                                  : vm::VmPolicy::allResident();
        if (pt.injectRate > 0) {
            policy.inject.model = inject::ModelKind::Bernoulli;
            policy.inject.rate = pt.injectRate;
            policy.inject.seed = 7;
        }
        // Under --check the sanitizer heads the observer chain and
        // forwards the same stream.
        for (bool check : {false, true}) {
            SCOPED_TRACE(check ? "check" : "plain");
            cfg.checkInvariants = check;
            DigestObserver d;
            gpu::Gpu g(cfg);
            g.setObserver(&d);
            gpu::SimResult r = g.run(tw.kernel, tw.trace, policy);
            EXPECT_GT(r.stats.get(pt.exercised), 0.0) << pt.exercised;
            EXPECT_EQ(d.count, pt.events);
            EXPECT_EQ(d.f.h, pt.digest);
        }
    }
}

} // namespace
} // namespace gex
