/**
 * @file
 * SimSanitizer's shadow state driven directly: synthetic PipeEvent and
 * event-heap hook sequences against a hand-made trace, each checked for
 * the exact InvariantError message the sanitizer raises (or for no
 * error on a healthy sequence). The end-to-end seeded violations live
 * in test_check.cpp; these reach the checks no seeded hook can trip.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "check/sanitizer.hpp"
#include "common/error.hpp"
#include "gpu/config.hpp"
#include "isa/program.hpp"
#include "kasm/builder.hpp"
#include "obs/observer.hpp"
#include "sm/pipeline.hpp"
#include "trace/trace.hpp"

namespace gex::check {
namespace {

using obs::PipeEventKind;

/** ld.global, iadd, exit: one global-memory instruction first. */
isa::Program
program()
{
    kasm::KernelBuilder b("shadow");
    b.ldGlobal(1, 0);
    b.iadd(2, 1, 1);
    b.exit();
    return b.build();
}

/** @p blocks blocks of one warp running the whole program once. */
trace::KernelTrace
traceOf(int blocks)
{
    trace::KernelTrace kt;
    for (int b = 0; b < blocks; ++b) {
        trace::BlockTrace bt;
        bt.blockId = static_cast<std::uint32_t>(b);
        trace::WarpTrace wt;
        for (std::uint32_t pc = 0; pc < 3; ++pc)
            wt.insts.push_back({pc, kFullMask, 0, 0, kWarpSize, false});
        bt.warps.push_back(std::move(wt));
        kt.blocks.push_back(std::move(bt));
    }
    return kt;
}

/**
 * A replay-queue sanitizer over two SMs with one block slot of one
 * warp each, block 0 installed on SM 0.
 */
struct Shadow {
    gpu::GpuConfig cfg;
    isa::Program prog = program();
    trace::KernelTrace trace;
    std::unique_ptr<SimSanitizer> san;

    explicit Shadow(int blocks = 1) : trace(traceOf(blocks))
    {
        cfg = gpu::GpuConfig::baseline();
        cfg.scheme = gpu::Scheme::ReplayQueue;
        cfg.numSms = 2;
        san = std::make_unique<SimSanitizer>(cfg, nullptr, nullptr);
        san->beginRun(prog, trace, 1, 1, 0, nullptr);
        san->onBlockInstalled(0, 0, 0, 0, 1);
    }

    void
    ev(PipeEventKind k, std::uint32_t traceIdx, int sm = 0)
    {
        obs::PipeEvent e;
        e.cycle = 10;
        e.sm = static_cast<std::int16_t>(sm);
        e.slot = 0;
        e.warp = 0;
        e.kind = k;
        e.traceIdx = traceIdx;
        e.staticIdx = traceIdx < 3 ? traceIdx : obs::PipeEvent::kNoIndex;
        san->event(e);
    }

    /** Issue, TLB check (global memory only), release and commit. */
    void
    retire(std::uint32_t idx, int sm = 0)
    {
        ev(PipeEventKind::Issued, idx, sm);
        if (idx == 0)
            ev(PipeEventKind::TlbChecked, idx, sm);
        ev(PipeEventKind::SourcesReleased, idx, sm);
        ev(PipeEventKind::Committed, idx, sm);
    }
};

/** The message of the InvariantError @p f throws, or "" if none. */
std::string
violation(const std::function<void()> &f)
{
    try {
        f();
    } catch (const InvariantError &e) {
        return e.what();
    }
    return "";
}

TEST(SanitizerShadow, HealthySequencePasses)
{
    Shadow s;
    EXPECT_EQ(violation([&] {
                  // A squash clears the in-flight bits: the squashed
                  // instruction's late release is exempt, and it
                  // re-issues cleanly.
                  s.ev(PipeEventKind::Issued, 0);
                  s.ev(PipeEventKind::Squashed, 0);
                  s.ev(PipeEventKind::SourcesReleased, 0);
                  for (std::uint32_t i = 0; i < 3; ++i)
                      s.retire(i);
                  s.san->onEventScheduled(0, 5, 1, sm::EvKind::Commit);
                  s.san->onEventPopped(0, 5, 1);
                  s.san->finishRun(20);
              }),
              "");
}

TEST(SanitizerShadow, IssuedTwice)
{
    Shadow s;
    s.ev(PipeEventKind::Issued, 1);
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::Issued, 1); }),
              "instruction issued twice without an intervening commit "
              "or squash (trace idx 1)");
}

TEST(SanitizerShadow, ReleaseBeforeTheLastTlbCheck)
{
    Shadow s;
    s.ev(PipeEventKind::Issued, 0);
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::SourcesReleased, 0); }),
              "replay-queue hold violation: sources of global-memory "
              "instruction (trace idx 0) released before its last TLB "
              "check");
}

TEST(SanitizerShadow, TlbCheckNotInFlight)
{
    Shadow s;
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::TlbChecked, 0); }),
              "last TLB check for an instruction that is not in flight "
              "(trace idx 0)");
    // Retirement ends the flight too.
    Shadow t;
    t.retire(0);
    EXPECT_EQ(violation([&] { t.ev(PipeEventKind::TlbChecked, 0); }),
              "last TLB check for an instruction that is not in flight "
              "(trace idx 0)");
}

TEST(SanitizerShadow, SquashNotInFlight)
{
    Shadow s;
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::Squashed, 1); }),
              "squash of an instruction that is not in flight (trace "
              "idx 1)");
}

TEST(SanitizerShadow, CommitThatNeverIssued)
{
    Shadow s;
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::Committed, 2); }),
              "commit of an instruction that never issued (trace idx 2)");
}

TEST(SanitizerShadow, CommittedTwice)
{
    Shadow s;
    s.retire(1);
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::Committed, 1); }),
              "exactly-once retirement violation: instruction committed "
              "twice (block 0, warp 0, trace idx 1)");
}

TEST(SanitizerShadow, CommitBeyondTheTrace)
{
    Shadow s;
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::Committed, 5); }),
              "commit beyond the warp's trace (idx 5 of 3 traced "
              "instructions)");
}

TEST(SanitizerShadow, ContextSavedWithInFlightInstructions)
{
    Shadow s;
    s.ev(PipeEventKind::Issued, 0);
    s.ev(PipeEventKind::Issued, 1);
    EXPECT_EQ(violation([&] { s.ev(PipeEventKind::ContextSaved, 0); }),
              "context saved with 2 in-flight instructions");
}

TEST(SanitizerShadow, DuplicateSeq)
{
    Shadow s;
    s.san->onEventScheduled(0, 12, 7, sm::EvKind::Commit);
    EXPECT_EQ(violation([&] {
                  s.san->onEventScheduled(0, 14, 7, sm::EvKind::LastCheck);
              }),
              "event-heap violation: duplicate event sequence number 7");
    // The same seq is fine on another SM, and again once popped.
    EXPECT_EQ(violation([&] {
                  s.san->onEventScheduled(1, 12, 7, sm::EvKind::Commit);
                  s.san->onEventPopped(0, 12, 7);
                  s.san->onEventScheduled(0, 13, 7, sm::EvKind::Commit);
              }),
              "");
}

TEST(SanitizerShadow, PopNeverScheduled)
{
    Shadow s;
    s.san->onEventScheduled(0, 5, 2, sm::EvKind::Commit);
    EXPECT_EQ(violation([&] { s.san->onEventPopped(0, 5, 3); }),
              "event-heap violation: popped an event that was never "
              "scheduled (seq 3)");
}

TEST(SanitizerShadow, EveryEventKindHasItsName)
{
    Shadow s;
    s.san->onCycleStart(0, 100);
    EXPECT_EQ(violation([&] {
                  s.san->onEventScheduled(0, 50, 1, sm::EvKind::TrapEnter);
              }),
              "event-heap violation: TrapEnter event scheduled into the "
              "past (target cycle 50 < current cycle 100)");
    EXPECT_EQ(violation([&] {
                  s.san->onEventScheduled(0, 50, 2,
                                          sm::EvKind::SourceRelease);
              }),
              "event-heap violation: SourceRelease event scheduled into "
              "the past (target cycle 50 < current cycle 100)");
}

TEST(SanitizerShadow, EndOfRunShadowLeak)
{
    // Block 0 mapped onto both SMs' warp 0: issued through SM 0 and
    // retired through SM 1, so coverage completes while SM 0's warp
    // still counts the instruction in flight.
    Shadow s;
    s.san->onBlockInstalled(1, 0, 0, 0, 1);
    s.ev(PipeEventKind::Issued, 0, 0);
    s.ev(PipeEventKind::TlbChecked, 0, 1);
    s.ev(PipeEventKind::Committed, 0, 1);
    s.retire(1);
    s.retire(2);
    EXPECT_EQ(violation([&] { s.san->finishRun(30); }),
              "shadow leak at drain: 1 instructions issued but never "
              "retired or squashed");
}

TEST(SanitizerShadow, EndOfRunCoverage)
{
    Shadow s(2);
    s.retire(0);
    s.retire(1);
    s.retire(2);
    EXPECT_EQ(violation([&] { s.san->finishRun(30); }),
              "architectural coverage violation: block 1 warp 0 retired "
              "0 of 3 traced instructions");
}

} // namespace
} // namespace gex::check
