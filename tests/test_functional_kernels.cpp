/**
 * @file
 * The functional simulator's lane kernels against known answers: every
 * opcode family under a full, a partial, an empty and a negated guard
 * mask, with RZ as a source and as the destination and with the
 * immediate form; predicate kernels (SETP, PSETP, SEL); global loads,
 * stores and atomics whose lanes straddle two pages or touch a page
 * never written. Expected values come from host arithmetic on the same
 * inputs, computed independently of the simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "func/functional_sim.hpp"
#include "kasm/builder.hpp"
#include "sm/coalescer.hpp"

namespace gex::func {
namespace {

using isa::Opcode;
using kasm::KernelBuilder;
using kasm::SpecialReg;

constexpr std::uint32_t kThreads = 80; // warps of 32, 32 and 16 lanes
constexpr Addr kA = 0x100000;          // a; b and c follow at kStride
constexpr Addr kStride = 0x10000;
constexpr Addr kGuard = 0x200000;
constexpr Addr kOut = 0x300000;
constexpr std::uint64_t kSentinel = 0x5e57'1e5e'57'1e5eull;
constexpr std::int64_t kImm = 0x1234;

double
f64(std::uint64_t v)
{
    return std::bit_cast<double>(v);
}

std::uint64_t
bits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

std::int64_t
i64(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

enum class Guard { Full, Partial, Empty, Negated };

/** Guard word of thread @p t (the predicate P1 is "word != 0"). */
bool
guardWord(Guard g, std::uint32_t t)
{
    switch (g) {
      case Guard::Full: return true;
      case Guard::Empty: return false;
      default: return (t * 5) % 3 != 0;
    }
}

/** Whether thread @p t executes the guarded instruction. */
bool
executes(Guard g, std::uint32_t t)
{
    return g == Guard::Negated ? !guardWord(g, t) : guardWord(g, t);
}

struct Inputs {
    std::vector<std::uint64_t> a, b, c;
};

/** Integer or floating-point operands, with zeros and negatives. */
Inputs
makeInputs(bool fp)
{
    std::mt19937_64 rng(fp ? 11 : 7);
    std::uniform_real_distribution<double> real(-50.0, 50.0);
    Inputs in;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        if (fp) {
            const double special[] = {0.0, -2.5, 4.0};
            in.a.push_back(bits(t % 8 < 3 ? special[t % 8] : real(rng)));
            in.b.push_back(bits(t % 8 == 3 ? 0.0 : real(rng)));
            in.c.push_back(bits(real(rng)));
        } else {
            const std::uint64_t small[] = {0, 3, static_cast<std::uint64_t>(-5)};
            in.a.push_back(t % 4 < 3 ? small[t % 4] + t : rng());
            in.b.push_back(t % 5 == 0 ? 64 + t : rng());
            in.c.push_back(rng());
        }
    }
    return in;
}

/** What the kernel under test stores, and its traced instruction. */
struct Ran {
    std::vector<std::uint64_t> dst;   ///< R14 per thread
    std::vector<std::uint64_t> pred;  ///< P2 per thread, as 0/1
    std::vector<trace::TraceInst> op; ///< the op's record, per warp
    std::size_t touchedPages = 0;
};

/**
 * Run @p op once per thread of one block, guarded by P1, with
 * R10/R11/R12 = a/b/c, R14 = kSentinel, P2 = (c != 0),
 * P3 = (a & 1) and P4 = (b & 1) beforehand.
 */
Ran
runOp(isa::Instruction op, Guard g, const Inputs &in)
{
    GlobalMemory mem;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        mem.write64(kA + 8 * t, in.a[t]);
        mem.write64(kA + kStride + 8 * t, in.b[t]);
        mem.write64(kA + 2 * kStride + 8 * t, in.c[t]);
        mem.write64(kGuard + 8 * t, guardWord(g, t));
    }
    KernelBuilder b("lane-kernel");
    b.setNumParams(3);
    b.s2r(0, SpecialReg::GlobalTid);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.ldparam(3, 2);
    b.shli(4, 0, 3);
    b.iadd(5, 4, 1);
    b.ldGlobal(10, 5, 0);
    b.ldGlobal(11, 5, kStride);
    b.ldGlobal(12, 5, 2 * kStride);
    b.iadd(6, 4, 3);
    b.ldGlobal(13, 6, 0);
    b.setpi(1, kasm::Cmp::NE, 13, 0);
    b.setpi(2, kasm::Cmp::NE, 12, 0);
    b.andi(8, 10, 1);
    b.setpi(3, kasm::Cmp::NE, 8, 0);
    b.andi(9, 11, 1);
    b.setpi(4, kasm::Cmp::NE, 9, 0);
    b.movi(14, static_cast<std::int64_t>(kSentinel));
    b.movi(16, 1);
    op.pred = 1;
    op.predNeg = g == Guard::Negated;
    const auto opPc = static_cast<std::uint32_t>(b.size());
    b.emit(op);
    b.sel(15, 16, isa::kRegZero, 2);
    b.iadd(7, 4, 2);
    b.stGlobal(7, 0, 14);
    b.stGlobal(7, kStride, 15);
    b.exit();

    Kernel k;
    k.program = b.build();
    k.block = {kThreads, 1, 1};
    k.params = {kA, kOut, kGuard};
    FunctionalSim sim(mem);
    const trace::KernelTrace kt = sim.run(k);

    Ran r;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        r.dst.push_back(mem.read64(kOut + 8 * t));
        r.pred.push_back(mem.read64(kOut + kStride + 8 * t));
    }
    for (const trace::WarpTrace &w : kt.blocks[0].warps)
        for (const trace::TraceInst &ti : w.insts)
            if (ti.staticIdx == opPc)
                r.op.push_back(ti);
    r.touchedPages = mem.touchedPages();
    return r;
}

/** The lanes of warp @p w that execute under @p g. */
WarpMask
expectedMask(Guard g, std::uint32_t w)
{
    WarpMask m = 0;
    for (std::uint32_t l = 0; l < kWarpSize; ++l) {
        const std::uint32_t t = w * kWarpSize + l;
        if (t < kThreads && executes(g, t))
            m |= 1u << l;
    }
    return m;
}

using Ref = std::function<std::uint64_t(std::uint64_t a, std::uint64_t b,
                                        std::uint64_t c, std::uint32_t t)>;
using Faults = std::function<bool(std::uint64_t a, std::uint64_t b)>;

struct OpCase {
    const char *name;
    Opcode op;
    int srcs;      ///< register sources read (0..3)
    bool fp;       ///< operands are doubles
    bool immForm;  ///< the second operand may be the immediate
    Ref ref;
    Faults faults; ///< arithmetic-exception rule; empty when none
    std::int64_t imm = 0; ///< fixed imm (MOVI, LDPARAM, S2R)
};

Ref
int2(std::uint64_t (*f)(std::uint64_t, std::uint64_t))
{
    return [f](std::uint64_t a, std::uint64_t b, std::uint64_t,
               std::uint32_t) { return f(a, b); };
}

Ref
fp2(double (*f)(double, double))
{
    return [f](std::uint64_t a, std::uint64_t b, std::uint64_t,
               std::uint32_t) { return bits(f(f64(a), f64(b))); };
}

Ref
fp1(double (*f)(double))
{
    return [f](std::uint64_t a, std::uint64_t, std::uint64_t,
               std::uint32_t) { return bits(f(f64(a))); };
}

Ref
lane(std::uint64_t (*f)(std::uint32_t))
{
    return [f](std::uint64_t, std::uint64_t, std::uint64_t,
               std::uint32_t t) { return f(t); };
}

std::vector<OpCase>
opCases()
{
    auto u = [](auto f) { return +f; };
    return {
        {"iadd", Opcode::IADD, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) { return a + b; })), {}},
        {"isub", Opcode::ISUB, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) { return a - b; })), {}},
        {"imul", Opcode::IMUL, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) { return a * b; })), {}},
        {"imin", Opcode::IMIN, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) {
             return i64(a) < i64(b) ? a : b;
         })),
         {}},
        {"imax", Opcode::IMAX, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) {
             return i64(a) > i64(b) ? a : b;
         })),
         {}},
        {"and", Opcode::AND, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) { return a & b; })), {}},
        {"or", Opcode::OR, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) { return a | b; })), {}},
        {"xor", Opcode::XOR, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) { return a ^ b; })), {}},
        {"shl", Opcode::SHL, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) {
             return a << (b % 64);
         })),
         {}},
        {"shr", Opcode::SHR, 2, false, true,
         int2(u([](std::uint64_t a, std::uint64_t b) {
             return a >> (b % 64);
         })),
         {}},
        {"not", Opcode::NOT, 1, false, false,
         [](std::uint64_t a, std::uint64_t, std::uint64_t, std::uint32_t) {
             return ~a;
         },
         {}},
        {"mov", Opcode::MOV, 1, false, false,
         [](std::uint64_t a, std::uint64_t, std::uint64_t, std::uint32_t) {
             return a;
         },
         {}},
        // The three-source forms read srcs[1] even with useImm set.
        {"imad", Opcode::IMAD, 3, false, false,
         [](std::uint64_t a, std::uint64_t b, std::uint64_t c,
            std::uint32_t) { return a * b + c; },
         {}},
        {"i2f", Opcode::I2F, 1, false, false,
         [](std::uint64_t a, std::uint64_t, std::uint64_t, std::uint32_t) {
             return bits(static_cast<double>(i64(a)));
         },
         {}},
        {"f2i", Opcode::F2I, 1, true, false,
         [](std::uint64_t a, std::uint64_t, std::uint64_t, std::uint32_t) {
             return static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(f64(a)));
         },
         {}},
        {"fadd", Opcode::FADD, 2, true, true,
         fp2(u([](double a, double b) { return a + b; })), {}},
        {"fsub", Opcode::FSUB, 2, true, true,
         fp2(u([](double a, double b) { return a - b; })), {}},
        {"fmul", Opcode::FMUL, 2, true, true,
         fp2(u([](double a, double b) { return a * b; })), {}},
        {"fmin", Opcode::FMIN, 2, true, true,
         fp2(u([](double a, double b) { return std::fmin(a, b); })), {}},
        {"fmax", Opcode::FMAX, 2, true, true,
         fp2(u([](double a, double b) { return std::fmax(a, b); })), {}},
        {"ffma", Opcode::FFMA, 3, true, false,
         [](std::uint64_t a, std::uint64_t b, std::uint64_t c,
            std::uint32_t) {
             return bits(std::fma(f64(a), f64(b), f64(c)));
         },
         {}},
        {"fdiv", Opcode::FDIV, 2, true, true,
         fp2(u([](double a, double b) { return a / b; })),
         [](std::uint64_t, std::uint64_t b) { return f64(b) == 0.0; }},
        {"frcp", Opcode::FRCP, 1, true, false,
         fp1(u([](double a) { return 1.0 / a; })),
         [](std::uint64_t a, std::uint64_t) { return f64(a) == 0.0; }},
        {"frsq", Opcode::FRSQ, 1, true, false,
         fp1(u([](double a) { return 1.0 / std::sqrt(a); })),
         [](std::uint64_t a, std::uint64_t) { return f64(a) <= 0.0; }},
        {"fsqrt", Opcode::FSQRT, 1, true, false,
         fp1(u([](double a) { return std::sqrt(a); })),
         [](std::uint64_t a, std::uint64_t) { return f64(a) < 0.0; }},
        {"flog2", Opcode::FLOG2, 1, true, false,
         fp1(u([](double a) { return std::log2(a); })),
         [](std::uint64_t a, std::uint64_t) { return f64(a) <= 0.0; }},
        {"fsin", Opcode::FSIN, 1, true, false,
         fp1(u([](double a) { return std::sin(a); })), {}},
        {"fcos", Opcode::FCOS, 1, true, false,
         fp1(u([](double a) { return std::cos(a); })), {}},
        {"fexp2", Opcode::FEXP2, 1, true, false,
         fp1(u([](double a) { return std::exp2(a); })), {}},
        {"sel", Opcode::SEL, 2, false, false,
         [](std::uint64_t a, std::uint64_t b, std::uint64_t,
            std::uint32_t) { return a & 1 ? a : b; },
         {}},
        {"movi", Opcode::MOVI, 0, false, false,
         [](std::uint64_t, std::uint64_t, std::uint64_t, std::uint32_t) {
             return static_cast<std::uint64_t>(-77);
         },
         {}, -77},
        {"ldparam", Opcode::LDPARAM, 0, false, false,
         [](std::uint64_t, std::uint64_t, std::uint64_t, std::uint32_t) {
             return kOut;
         },
         {}, 1},
        {"s2r.tid.x", Opcode::S2R, 0, false, false,
         lane(u([](std::uint32_t t) -> std::uint64_t { return t; })), {},
         static_cast<std::int64_t>(SpecialReg::TidX)},
        {"s2r.laneid", Opcode::S2R, 0, false, false,
         lane(u([](std::uint32_t t) -> std::uint64_t { return t % 32; })),
         {}, static_cast<std::int64_t>(SpecialReg::LaneId)},
        {"s2r.warpid", Opcode::S2R, 0, false, false,
         lane(u([](std::uint32_t t) -> std::uint64_t { return t / 32; })),
         {}, static_cast<std::int64_t>(SpecialReg::WarpId)},
        {"s2r.ntid.x", Opcode::S2R, 0, false, false,
         lane(u([](std::uint32_t) -> std::uint64_t { return kThreads; })),
         {}, static_cast<std::int64_t>(SpecialReg::NTidX)},
    };
}

/** One operand form of an op case. */
enum class Form { Reg, Imm, RzSrc, RzDst };

const char *
formName(Form f)
{
    switch (f) {
      case Form::Reg: return "reg";
      case Form::Imm: return "imm";
      case Form::RzSrc: return "rz-src";
      default: return "rz-dst";
    }
}

const char *
guardName(Guard g)
{
    switch (g) {
      case Guard::Full: return "full";
      case Guard::Partial: return "partial";
      case Guard::Empty: return "empty";
      default: return "negated";
    }
}

TEST(FunctionalKernels, KnownAnswersPerOpcodeFamily)
{
    for (const OpCase &c : opCases()) {
        const Inputs in = makeInputs(c.fp);
        std::vector<Form> forms = {Form::Reg, Form::RzDst};
        if (c.immForm)
            forms.push_back(Form::Imm);
        if (c.srcs > 0)
            forms.push_back(Form::RzSrc);
        if (c.op == Opcode::IMAD || c.op == Opcode::FFMA)
            forms.push_back(Form::Imm); // ignored: reads srcs[1]
        for (Form f : forms) {
            for (Guard g : {Guard::Full, Guard::Partial, Guard::Empty,
                            Guard::Negated}) {
                SCOPED_TRACE(strprintf("%s %s guard %s", c.name,
                                       formName(f), guardName(g)));
                isa::Instruction op;
                op.op = c.op;
                op.dst = f == Form::RzDst ? isa::kRegZero : 14;
                op.srcs[0] = f == Form::RzSrc ? isa::kRegZero : 10;
                op.srcs[1] = 11;
                op.srcs[2] = 12;
                op.predA = 3; // SEL's selector
                op.imm = c.imm;
                const bool imm = f == Form::Imm;
                if (imm) {
                    op.useImm = true;
                    op.imm = c.fp ? i64(bits(0.75)) : kImm;
                }
                // Only the two-source forms take the immediate.
                const bool immB = imm && c.immForm;
                const Ran r = runOp(op, g, in);

                for (std::uint32_t t = 0; t < kThreads; ++t) {
                    const std::uint64_t a = f == Form::RzSrc ? 0 : in.a[t];
                    const std::uint64_t b =
                        immB ? static_cast<std::uint64_t>(op.imm) : in.b[t];
                    std::uint64_t want = kSentinel;
                    if (executes(g, t) && f != Form::RzDst)
                        want = c.op == Opcode::SEL
                                   ? (in.a[t] & 1 ? a : b)
                                   : c.ref(a, b, in.c[t], t);
                    ASSERT_EQ(r.dst[t], want) << "thread " << t;
                }
                ASSERT_EQ(r.op.size(), 3u);
                for (std::uint32_t w = 0; w < 3; ++w) {
                    const WarpMask m = expectedMask(g, w);
                    EXPECT_EQ(r.op[w].active, m) << "warp " << w;
                    EXPECT_EQ(r.op[w].numActive, std::popcount(m));
                    bool fault = false;
                    for (std::uint32_t l = 0; l < kWarpSize && c.faults;
                         ++l) {
                        const std::uint32_t t = w * kWarpSize + l;
                        if (m >> l & 1)
                            fault |= c.faults(
                                f == Form::RzSrc ? 0 : in.a[t],
                                immB ? static_cast<std::uint64_t>(op.imm)
                                     : in.b[t]);
                    }
                    EXPECT_EQ(r.op[w].arithFault, fault) << "warp " << w;
                }
            }
        }
    }
}

TEST(FunctionalKernels, PredicateKernels)
{
    struct PredCase {
        std::string name;
        isa::Instruction op;
        std::function<bool(std::uint64_t a, std::uint64_t b)> ref;
    };
    std::vector<PredCase> cases;
    const kasm::Cmp cmps[] = {kasm::Cmp::EQ, kasm::Cmp::NE, kasm::Cmp::LT,
                              kasm::Cmp::LE, kasm::Cmp::GT, kasm::Cmp::GE};
    auto cmpRef = [](kasm::Cmp c, auto x, auto y) {
        switch (c) {
          case kasm::Cmp::EQ: return x == y;
          case kasm::Cmp::NE: return x != y;
          case kasm::Cmp::LT: return x < y;
          case kasm::Cmp::LE: return x <= y;
          case kasm::Cmp::GT: return x > y;
          default: return x >= y;
        }
    };
    for (bool fp : {false, true}) {
        for (kasm::Cmp c : cmps) {
            for (bool imm : {false, true}) {
                isa::Instruction op;
                op.op = Opcode::SETP;
                op.predDst = 2;
                op.cmp = c;
                op.fcmp = fp;
                op.srcs[0] = 10;
                op.srcs[1] = 11;
                const std::uint64_t k =
                    fp ? bits(1.5) : static_cast<std::uint64_t>(kImm);
                if (imm) {
                    op.useImm = true;
                    op.imm = i64(k);
                }
                cases.push_back(
                    {strprintf("setp %d fp %d imm %d", static_cast<int>(c),
                               fp, imm),
                     op, [=](std::uint64_t a, std::uint64_t b) {
                         const std::uint64_t y = imm ? k : b;
                         return fp ? cmpRef(c, f64(a), f64(y))
                                   : cmpRef(c, i64(a), i64(y));
                     }});
            }
        }
    }
    const isa::PLogic logics[] = {isa::PLogic::And, isa::PLogic::Or,
                                  isa::PLogic::Xor, isa::PLogic::Not};
    for (isa::PLogic pl : logics) {
        isa::Instruction op;
        op.op = Opcode::PSETP;
        op.predDst = 2;
        op.predA = 3;
        op.predB = 4;
        op.plogic = pl;
        cases.push_back(
            {strprintf("psetp %d", static_cast<int>(pl)), op,
             [pl](std::uint64_t a, std::uint64_t b) {
                 const bool pa = a & 1, pb = b & 1;
                 switch (pl) {
                   case isa::PLogic::And: return pa && pb;
                   case isa::PLogic::Or: return pa || pb;
                   case isa::PLogic::Xor: return pa != pb;
                   default: return !pa;
                 }
             }});
    }
    // PT as a source reads all-true; PT as the destination is dropped.
    {
        isa::Instruction op;
        op.op = Opcode::PSETP;
        op.predDst = 2;
        op.predA = isa::kPredTrue;
        op.predB = 4;
        op.plogic = isa::PLogic::And;
        cases.push_back({"psetp PT & P4", op,
                         [](std::uint64_t, std::uint64_t b) {
                             return (b & 1) != 0;
                         }});
    }

    for (bool fp : {false, true}) {
        const Inputs in = makeInputs(fp);
        for (const PredCase &pc : cases) {
            for (Guard g : {Guard::Full, Guard::Partial, Guard::Empty,
                            Guard::Negated}) {
                for (bool ptDst : {false, true}) {
                    SCOPED_TRACE(strprintf("%s guard %s pt-dst %d",
                                           pc.name.c_str(), guardName(g),
                                           ptDst));
                    isa::Instruction op = pc.op;
                    if (ptDst)
                        op.predDst = isa::kPredTrue;
                    const Ran r = runOp(op, g, in);
                    for (std::uint32_t t = 0; t < kThreads; ++t) {
                        const bool keep = !executes(g, t) || ptDst;
                        const bool want = keep ? in.c[t] != 0
                                               : pc.ref(in.a[t], in.b[t]);
                        ASSERT_EQ(r.pred[t], want ? 1u : 0u)
                            << "thread " << t;
                        ASSERT_EQ(r.dst[t], kSentinel);
                    }
                }
            }
        }
    }
}

// --- Global memory by the page ---------------------------------------

/**
 * One load (or store of 100 + tid) per thread of a 32-thread warp at
 * base + (tid & 1) * @p oddOff + (tid >> 1) * 8 when @p alternate,
 * else base + tid * 8; loads land at kOut + tid * 8.
 */
trace::KernelTrace
runAccess(GlobalMemory &mem, Addr base, bool store, bool alternate,
          Addr oddOff = kPageSize)
{
    KernelBuilder b("access");
    b.setNumParams(3);
    b.s2r(0, SpecialReg::GlobalTid);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.ldparam(3, 2);
    if (alternate) {
        b.andi(4, 0, 1);
        b.imul(4, 4, 3);
        b.shri(5, 0, 1);
        b.shli(5, 5, 3);
        b.iadd(4, 4, 5);
    } else {
        b.shli(4, 0, 3);
    }
    b.iadd(4, 4, 1);
    if (store) {
        b.iaddi(6, 0, 100);
        b.stGlobal(4, 0, 6);
    } else {
        b.ldGlobal(6, 4);
        b.shli(7, 0, 3);
        b.iadd(7, 7, 2);
        b.stGlobal(7, 0, 6);
    }
    b.exit();
    Kernel k;
    k.program = b.build();
    k.block = {kWarpSize, 1, 1};
    k.params = {base, kOut, oddOff};
    FunctionalSim sim(mem);
    return sim.run(k);
}

Addr
laneAddr(Addr base, bool alternate, std::uint32_t t, Addr oddOff = kPageSize)
{
    return alternate ? base + (t & 1) * oddOff + (t >> 1) * 8
                     : base + t * 8;
}

/** Lines of the warp's first global-memory instruction. */
std::vector<Addr>
firstMemLines(const trace::KernelTrace &kt)
{
    const trace::WarpTrace &w = kt.blocks[0].warps[0];
    for (const trace::TraceInst &ti : w.insts)
        if (ti.numLines > 0)
            return {w.lines(ti), w.lines(ti) + ti.numLines};
    return {};
}

TEST(FunctionalKernels, LoadsStraddlingTwoPages)
{
    const Addr pageA = 0x40000;
    const Addr pageB = pageA + kPageSize;
    for (bool alternate : {false, true}) {
        SCOPED_TRACE(alternate ? "alternating pages" : "split at a page");
        GlobalMemory mem;
        for (Addr w = 0; w < kPageSize; w += 8) {
            mem.write64(pageA + w, 0xa000 + w);
            mem.write64(pageB + w, 0xb000 + w);
        }
        for (std::uint32_t t = 0; t < kWarpSize; ++t)
            mem.write64(kOut + 8 * t, kSentinel);
        // Split: lanes 0..15 end page A, lanes 16..31 start page B.
        const Addr base = alternate ? pageA + 0x100 : pageB - 16 * 8;
        const std::size_t pages = mem.touchedPages();
        const trace::KernelTrace kt = runAccess(mem, base, false, alternate);
        std::vector<Addr> addrs;
        for (std::uint32_t t = 0; t < kWarpSize; ++t) {
            const Addr a = laneAddr(base, alternate, t);
            addrs.push_back(a);
            const Addr want = a < pageB ? 0xa000 + (a - pageA)
                                        : 0xb000 + (a - pageB);
            EXPECT_EQ(mem.read64(kOut + 8 * t), want) << "lane " << t;
        }
        EXPECT_EQ(mem.touchedPages(), pages);
        EXPECT_EQ(firstMemLines(kt), sm::coalesce(addrs));
    }
}

TEST(FunctionalKernels, StoresStraddlingTwoPages)
{
    const Addr pageA = 0x40000;
    const Addr pageB = pageA + kPageSize;
    for (bool alternate : {false, true}) {
        SCOPED_TRACE(alternate ? "alternating pages" : "split at a page");
        GlobalMemory mem;
        mem.write64(pageA, 1); // page A exists, page B does not
        const Addr base = alternate ? pageA + 0x100 : pageB - 16 * 8;
        const trace::KernelTrace kt = runAccess(mem, base, true, alternate);
        for (std::uint32_t t = 0; t < kWarpSize; ++t)
            EXPECT_EQ(mem.read64(laneAddr(base, alternate, t)), 100u + t)
                << "lane " << t;
        EXPECT_EQ(mem.read64(pageA), 1u);
        EXPECT_EQ(mem.touchedPages(), 2u);
        EXPECT_EQ(kt.stats.get("func.touched_pages"), 2.0);
    }
}

TEST(FunctionalKernels, ReadOfANeverWrittenPageIsZeroAndCreatesNone)
{
    GlobalMemory mem;
    for (std::uint32_t t = 0; t < kWarpSize; ++t)
        mem.write64(kOut + 8 * t, kSentinel);
    const std::size_t pages = mem.touchedPages();
    // Both pages the lanes read, 0x70000 and 0x71000, were never written.
    const trace::KernelTrace kt = runAccess(mem, 0x70000 + 0x40, false, true);
    for (std::uint32_t t = 0; t < kWarpSize; ++t)
        EXPECT_EQ(mem.read64(kOut + 8 * t), 0u) << "lane " << t;
    EXPECT_EQ(mem.touchedPages(), pages);
    EXPECT_EQ(kt.stats.get("func.touched_pages"),
              static_cast<double>(pages));
}

/** 32 lanes: R5 = atom(op) at [param0], data tid + 1, swap param1. */
trace::KernelTrace
runAtomic(GlobalMemory &mem, Opcode op, Addr addr, std::uint64_t cmp)
{
    KernelBuilder b("atom");
    b.setNumParams(2);
    b.s2r(0, SpecialReg::GlobalTid);
    b.ldparam(1, 0);
    b.ldparam(2, 1);
    b.iaddi(3, 0, 1);
    switch (op) {
      case Opcode::ATOM_ADD: b.atomAdd(5, 1, 3); break;
      case Opcode::ATOM_MAX: b.atomMax(5, 1, 3); break;
      default: b.atomCas(5, 1, 2, 3); break;
    }
    b.shli(6, 0, 3);
    b.movi(7, static_cast<std::int64_t>(kOut));
    b.iadd(6, 6, 7);
    b.stGlobal(6, 0, 5);
    b.exit();
    Kernel k;
    k.program = b.build();
    k.block = {kWarpSize, 1, 1};
    k.params = {addr, cmp};
    FunctionalSim sim(mem);
    return sim.run(k);
}

TEST(FunctionalKernels, AtomicsApplyLaneAfterLane)
{
    const Addr word = 0x50008;
    {
        GlobalMemory mem;
        runAtomic(mem, Opcode::ATOM_ADD, word, 0);
        std::uint64_t sum = 0;
        for (std::uint32_t t = 0; t < kWarpSize; ++t) {
            EXPECT_EQ(mem.read64(kOut + 8 * t), sum) << "lane " << t;
            sum += t + 1;
        }
        EXPECT_EQ(mem.read64(word), sum);
    }
    {
        GlobalMemory mem;
        mem.write64(word, 7);
        runAtomic(mem, Opcode::ATOM_MAX, word, 0);
        for (std::uint32_t t = 0; t < kWarpSize; ++t)
            EXPECT_EQ(mem.read64(kOut + 8 * t), std::max<std::uint64_t>(7, t))
                << "lane " << t;
        EXPECT_EQ(mem.read64(word), 32u);
    }
    {
        // CAS that never matches on a never-written page: every lane
        // reads 0 and no page appears.
        GlobalMemory mem;
        runAtomic(mem, Opcode::ATOM_CAS, word, 5);
        const std::size_t pages = mem.touchedPages(); // the output page
        EXPECT_EQ(pages, 1u);
        for (std::uint32_t t = 0; t < kWarpSize; ++t)
            EXPECT_EQ(mem.read64(kOut + 8 * t), 0u);
        EXPECT_EQ(mem.read64(word), 0u);
    }
    {
        // CAS matching 0: lane 0 swaps in 1 and creates the page; the
        // later lanes see 1 and keep it.
        GlobalMemory mem;
        runAtomic(mem, Opcode::ATOM_CAS, word, 0);
        EXPECT_EQ(mem.touchedPages(), 2u);
        EXPECT_EQ(mem.read64(word), 1u);
        EXPECT_EQ(mem.read64(kOut), 0u);
        for (std::uint32_t t = 1; t < kWarpSize; ++t)
            EXPECT_EQ(mem.read64(kOut + 8 * t), 1u);
    }
}

} // namespace
} // namespace gex::func
