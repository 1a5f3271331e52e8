#include "func/functional_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "sm/coalescer.hpp"

namespace gex::func {

using isa::Instruction;
using isa::kPredTrue;
using isa::kRegZero;
using isa::Opcode;
using isa::SpecialReg;

namespace {

double
asF64(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
asBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

/** The register row RZ reads. */
constexpr std::uint64_t kZeroRow[kWarpSize] = {};

/**
 * The lane loop every kernel runs: @p f(lane) for each lane of @p g,
 * in ascending order. A full warp walks lanes 0..31 densely; any
 * other mask walks its set bits. Either way it is the same body.
 */
template <typename F>
inline void
forLanes(WarpMask g, F &&f)
{
    if (g == kFullMask) {
        for (int l = 0; l < kWarpSize; ++l)
            f(l);
    } else {
        for (WarpMask m = g; m != 0; m &= m - 1)
            f(std::countr_zero(m));
    }
}

/** The lanes of @p g for which @p f(lane) holds. */
template <typename F>
inline WarpMask
laneMask(WarpMask g, F &&f)
{
    WarpMask r = 0;
    forLanes(g, [&](int l) { r |= static_cast<WarpMask>(f(l)) << l; });
    return r;
}

/** SETP's comparison over the lanes of @p g, operands read by @p ld. */
template <typename Load>
WarpMask
compareLanes(WarpMask g, isa::Cmp c, const std::uint64_t *a,
             const std::uint64_t *b, Load ld)
{
    switch (c) {
      case isa::Cmp::EQ:
        return laneMask(g, [&](int l) { return ld(a[l]) == ld(b[l]); });
      case isa::Cmp::NE:
        return laneMask(g, [&](int l) { return ld(a[l]) != ld(b[l]); });
      case isa::Cmp::LT:
        return laneMask(g, [&](int l) { return ld(a[l]) < ld(b[l]); });
      case isa::Cmp::LE:
        return laneMask(g, [&](int l) { return ld(a[l]) <= ld(b[l]); });
      case isa::Cmp::GT:
        return laneMask(g, [&](int l) { return ld(a[l]) > ld(b[l]); });
      default:
        return laneMask(g, [&](int l) { return ld(a[l]) >= ld(b[l]); });
    }
}

std::int64_t
asInt(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

} // namespace

/** Per-warp execution state. */
struct FunctionalSim::WarpExec {
    std::uint32_t warpId = 0;
    std::uint32_t laneBase = 0;   ///< first thread index of this warp
    WarpMask launchMask = 0;      ///< lanes that exist (last warp may be partial)
    SimtStack stack;
    WarpMask exited = 0;
    bool atBarrier = false;
    bool done = false;
    std::uint64_t instCount = 0;
    /** Registers as rows of kWarpSize lanes: regs[r * kWarpSize + lane]. */
    std::uint64_t *regs = nullptr;
    /** One lane mask per predicate register; preds[PT] is all lanes. */
    WarpMask preds[isa::kNumPreds + 1] = {};
};

/** Per-block execution state. */
struct FunctionalSim::BlockExec {
    std::uint32_t blockId = 0;
    std::uint32_t numThreads = 0;
    std::vector<std::uint64_t> regs;   // [warp][reg][lane]
    std::vector<std::uint8_t> shared;  // shared memory bytes
    std::vector<WarpExec> warps;

    std::uint64_t
    readShared64(std::uint64_t off) const
    {
        GEX_ASSERT(off + 8 <= shared.size(),
                   "shared access out of bounds: %llu",
                   static_cast<unsigned long long>(off));
        std::uint64_t v;
        std::memcpy(&v, shared.data() + off, sizeof(v));
        return v;
    }

    void
    writeShared64(std::uint64_t off, std::uint64_t v)
    {
        GEX_ASSERT(off + 8 <= shared.size(),
                   "shared access out of bounds: %llu",
                   static_cast<unsigned long long>(off));
        std::memcpy(shared.data() + off, &v, sizeof(v));
    }
};

trace::KernelTrace
FunctionalSim::run(const Kernel &kernel)
{
    kernel.program.validate();
    trace::KernelTrace kt;
    std::uint32_t nblocks = kernel.numBlocks();
    kt.blocks.resize(nblocks);
    memInsts_ = 0;
    memRequests_ = 0;
    for (std::uint32_t b = 0; b < nblocks; ++b) {
        kt.blocks[b].blockId = b;
        runBlock(kernel, b, kt.blocks[b]);
    }
    kt.memInsts = memInsts_;
    kt.memRequests = memRequests_;
    kt.stats.set("func.dynamic_warp_insts",
                 static_cast<double>(kt.dynamicInsts()));
    kt.stats.set("func.mem_insts", static_cast<double>(kt.memInsts));
    kt.stats.set("func.mem_requests", static_cast<double>(kt.memRequests));
    kt.stats.set("func.touched_pages",
                 static_cast<double>(mem_.touchedPages()));
    return kt;
}

void
FunctionalSim::runBlock(const Kernel &kernel, std::uint32_t block_id,
                        trace::BlockTrace &out)
{
    const isa::Program &prog = kernel.program;
    BlockExec blk;
    blk.blockId = block_id;
    blk.numThreads = kernel.threadsPerBlock();
    blk.shared.assign(prog.sharedBytes(), 0);

    std::uint32_t nwarps = kernel.warpsPerBlock();
    const std::size_t warpRegs = static_cast<std::size_t>(
                                     prog.regsPerThread()) *
                                 kWarpSize;
    blk.regs.assign(nwarps * warpRegs, 0);
    blk.warps.resize(nwarps);
    out.blockId = block_id;
    out.warps.resize(nwarps);
    for (std::uint32_t w = 0; w < nwarps; ++w) {
        WarpExec &we = blk.warps[w];
        we.warpId = w;
        we.laneBase = w * kWarpSize;
        we.regs = blk.regs.data() + w * warpRegs;
        we.preds[kPredTrue] = kFullMask;
        std::uint32_t lanes =
            std::min<std::uint32_t>(kWarpSize, blk.numThreads - we.laneBase);
        we.launchMask = lanes == kWarpSize
                            ? kFullMask
                            : ((1u << lanes) - 1);
        we.stack.reset(we.launchMask);
    }

    // Warp-at-a-time execution with barrier-driven round robin.
    bool all_done = false;
    while (!all_done) {
        bool progressed = false;
        for (std::uint32_t w = 0; w < nwarps; ++w) {
            WarpExec &we = blk.warps[w];
            while (!we.done && !we.atBarrier) {
                if (!stepWarp(kernel, blk, we, out.warps[w]))
                    break;
                progressed = true;
            }
        }
        all_done = true;
        bool any_waiting = false;
        for (auto &we : blk.warps) {
            if (!we.done)
                all_done = false;
            if (we.atBarrier)
                any_waiting = true;
        }
        if (all_done)
            break;
        if (any_waiting) {
            // Release the barrier when every live warp arrived.
            bool all_arrived = true;
            for (auto &we : blk.warps)
                if (!we.done && !we.atBarrier)
                    all_arrived = false;
            if (all_arrived) {
                for (auto &we : blk.warps)
                    we.atBarrier = false;
                progressed = true;
            }
        }
        if (!progressed)
            throw TraceError(strprintf(
                "functional deadlock in kernel '%s' block %u",
                prog.name().c_str(), block_id));
    }
}

void
FunctionalSim::recordLines(const Addr *addrs, std::size_t n,
                           trace::TraceInst &ti, trace::WarpTrace &out)
{
    // Coalesce: one request per unique cache line (paper Fig 5).
    Addr lines[kWarpSize];
    const std::size_t k = sm::coalesceLines(addrs, n, lines);
    // One push_back per line, not a range insert: the range insert's
    // other growth steps left glibc's heap fragmenting through later
    // timing runs (perfbench resident peak RSS 44.6 -> 52 MB over 16 s
    // on a 4-CPU x86-64 VM).
    for (std::size_t i = 0; i < k; ++i)
        out.linePool.push_back(lines[i]);
    ti.numLines = static_cast<std::uint16_t>(k);
    ++memInsts_;
    memRequests_ += k;
}

bool
FunctionalSim::stepWarp(const Kernel &kernel, BlockExec &blk, WarpExec &we,
                        trace::WarpTrace &out)
{
    if (we.done || we.atBarrier)
        return false;
    if (we.stack.empty()) {
        we.done = true;
        return false;
    }
    if (++we.instCount > maxWarpInsts_)
        throw TraceError(strprintf(
            "kernel '%s': warp exceeded %llu dynamic instructions",
            kernel.program.name().c_str(),
            static_cast<unsigned long long>(maxWarpInsts_)));

    const isa::Program &prog = kernel.program;
    SimtStack::Entry &e = we.stack.top();
    std::uint32_t pc = e.pc;
    WarpMask mask = e.mask;
    GEX_ASSERT(pc < prog.size(), "pc out of range");
    const Instruction &in = prog.at(pc);

    // Guard predicate: which of the active lanes actually execute.
    const WarpMask guard = we.preds[in.pred];
    const WarpMask g = mask & (in.predNeg ? ~guard : guard);

    // Trace record (line addresses filled below for global-memory ops).
    trace::TraceInst ti;
    ti.staticIdx = pc;
    ti.active = g;
    ti.numActive = static_cast<std::uint16_t>(std::popcount(g));
    ti.lineOff = static_cast<std::uint32_t>(out.linePool.size());
    ti.numLines = 0;

    // Operand rows. RZ reads the zero row and writes the sink row; the
    // immediate form reads a row holding the immediate in every lane.
    auto src = [&](isa::Reg r) -> const std::uint64_t * {
        return r == kRegZero ? kZeroRow
                             : we.regs + static_cast<std::size_t>(r) *
                                             kWarpSize;
    };
    std::uint64_t *d =
        in.dst == kRegZero
            ? sinkRow_
            : we.regs + static_cast<std::size_t>(in.dst) * kWarpSize;
    const std::uint64_t *a = src(in.srcs[0]);
    const std::uint64_t *b = src(in.srcs[1]);
    if (in.useImm) {
        std::fill_n(immRow_, kWarpSize, static_cast<std::uint64_t>(in.imm));
        b = immRow_;
    }

    // The lane kernels: d = op(a, b[, c]) over the lanes of g.
    auto map1 = [&](auto op) {
        forLanes(g, [&](int l) { d[l] = op(a[l]); });
    };
    auto map2 = [&](auto op) {
        forLanes(g, [&](int l) { d[l] = op(a[l], b[l]); });
    };
    // The three-source forms read srcs[1] even in the immediate form.
    auto map3 = [&](auto op) {
        const std::uint64_t *s1 = src(in.srcs[1]);
        const std::uint64_t *c = src(in.srcs[2]);
        forLanes(g, [&](int l) { d[l] = op(a[l], s1[l], c[l]); });
    };
    auto fp2 = [&](auto op) {
        map2([&](std::uint64_t x, std::uint64_t y) {
            return asBits(op(asF64(x), asF64(y)));
        });
    };
    // Special-function unit: @p faults(x) flags an arithmetic exception.
    auto sfu = [&](auto faults, auto op) {
        bool fault = false;
        forLanes(g, [&](int l) {
            const double x = asF64(a[l]);
            fault |= faults(x);
            d[l] = asBits(op(x));
        });
        ti.arithFault = fault;
    };
    auto setPred = [&](isa::PredReg p, WarpMask r) {
        if (p != kPredTrue)
            we.preds[p] = (we.preds[p] & ~g) | (r & g);
    };
    // Active lanes' effective addresses (a + imm), in lane order.
    Addr addrs[kWarpSize];
    std::uint64_t vals[kWarpSize];
    auto laneAddrs = [&]() {
        std::size_t n = 0;
        forLanes(g, [&](int l) {
            addrs[n++] = a[l] + static_cast<std::uint64_t>(in.imm);
        });
        return n;
    };
    auto gather = [&](const std::uint64_t *row) {
        std::size_t i = 0;
        forLanes(g, [&](int l) { vals[i++] = row[l]; });
    };
    auto scatter = [&](const std::uint64_t *compact) {
        std::size_t i = 0;
        forLanes(g, [&](int l) { d[l] = compact[i++]; });
    };
    // Global atomics: d = old word, word = next(old, i) with the
    // lane's data in vals[i], lane after lane.
    using NewWord = std::optional<std::uint64_t>;
    auto atomic = [&](auto next) {
        const std::size_t n = laneAddrs();
        gather(src(in.srcs[1]));
        std::uint64_t olds[kWarpSize];
        mem_.update64s(addrs, n, olds, next);
        scatter(olds);
        recordLines(addrs, n, ti, out);
    };

    std::uint32_t next_pc = pc + 1;
    bool stack_handled = false;

    switch (in.op) {
      case Opcode::BRA: {
        WarpMask taken = g;
        WarpMask not_taken = mask & ~g;
        GEX_ASSERT(in.target >= 0);
        auto target = static_cast<std::uint32_t>(in.target);
        if (not_taken == 0) {
            next_pc = target;
        } else if (taken == 0) {
            next_pc = pc + 1;
        } else {
            we.stack.diverge(target, pc + 1, we.stack.scopeTarget(), taken,
                             not_taken);
            stack_handled = true;
        }
        break;
      }
      case Opcode::SSY:
        GEX_ASSERT(in.target >= 0);
        we.stack.pushScope(static_cast<std::uint32_t>(in.target));
        break;
      case Opcode::JOIN:
      case Opcode::MEMBAR:
      case Opcode::NOP:
        break;
      case Opcode::BAR:
        if (mask != (we.launchMask & ~we.exited))
            throw TraceError(strprintf(
                "kernel '%s': divergent barrier at pc %u",
                prog.name().c_str(), pc));
        we.atBarrier = true;
        break;
      case Opcode::EXIT: {
        we.exited |= g;
        we.stack.removeLanes(g);
        if (we.stack.empty()) {
            we.done = true;
            out.insts.push_back(ti);
            return true;
        }
        if (g == mask)
            stack_handled = true; // TOS changed; pc already correct
        break;
      }
      case Opcode::MOVI: {
        const auto v = static_cast<std::uint64_t>(in.imm);
        forLanes(g, [&](int l) { d[l] = v; });
        break;
      }
      case Opcode::MOV:
        map1([](std::uint64_t x) { return x; });
        break;
      case Opcode::S2R: {
        const std::uint32_t bx = kernel.block.x, by = kernel.block.y;
        const std::uint32_t gx = kernel.grid.x, gy = kernel.grid.y;
        const std::uint32_t base = we.laneBase;
        auto put = [&](auto f) {
            forLanes(g, [&](int l) {
                d[l] = f(base + static_cast<std::uint32_t>(l),
                         static_cast<std::uint64_t>(l));
            });
        };
        auto uniform = [&](std::uint64_t v) {
            forLanes(g, [&](int l) { d[l] = v; });
        };
        switch (static_cast<SpecialReg>(in.imm)) {
          case SpecialReg::TidX:
            put([&](std::uint32_t t, std::uint64_t) { return t % bx; });
            break;
          case SpecialReg::TidY:
            put([&](std::uint32_t t, std::uint64_t) {
                return (t / bx) % by;
            });
            break;
          case SpecialReg::TidZ:
            put([&](std::uint32_t t, std::uint64_t) {
                return t / (bx * by);
            });
            break;
          case SpecialReg::NTidX: uniform(kernel.block.x); break;
          case SpecialReg::NTidY: uniform(kernel.block.y); break;
          case SpecialReg::NTidZ: uniform(kernel.block.z); break;
          case SpecialReg::CtaIdX: uniform(blk.blockId % gx); break;
          case SpecialReg::CtaIdY: uniform((blk.blockId / gx) % gy); break;
          case SpecialReg::CtaIdZ: uniform(blk.blockId / (gx * gy)); break;
          case SpecialReg::NCtaIdX: uniform(kernel.grid.x); break;
          case SpecialReg::NCtaIdY: uniform(kernel.grid.y); break;
          case SpecialReg::NCtaIdZ: uniform(kernel.grid.z); break;
          case SpecialReg::LaneId:
            put([](std::uint32_t, std::uint64_t lane) { return lane; });
            break;
          case SpecialReg::WarpId: uniform(we.warpId); break;
          case SpecialReg::GlobalTid: {
            const std::uint64_t first =
                static_cast<std::uint64_t>(blk.blockId) *
                kernel.threadsPerBlock();
            put([&](std::uint32_t t, std::uint64_t) { return first + t; });
            break;
          }
          default:
            panic("bad special register %d", static_cast<int>(in.imm));
        }
        break;
      }
      case Opcode::LDPARAM: {
        GEX_ASSERT(in.imm >= 0 &&
                   static_cast<size_t>(in.imm) < kernel.params.size(),
                   "LDPARAM index out of range");
        const std::uint64_t v = kernel.params[static_cast<size_t>(in.imm)];
        forLanes(g, [&](int l) { d[l] = v; });
        break;
      }
      // Integer add/sub/mul/mad wrap (two's complement), as on the
      // hardware; they compute unsigned to keep the wrap defined.
      case Opcode::IADD:
        map2([](std::uint64_t x, std::uint64_t y) { return x + y; });
        break;
      case Opcode::ISUB:
        map2([](std::uint64_t x, std::uint64_t y) { return x - y; });
        break;
      case Opcode::IMUL:
        map2([](std::uint64_t x, std::uint64_t y) { return x * y; });
        break;
      case Opcode::IMAD:
        map3([](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
            return x * y + z;
        });
        break;
      case Opcode::IMIN:
        map2([](std::uint64_t x, std::uint64_t y) {
            return asInt(x) < asInt(y) ? x : y;
        });
        break;
      case Opcode::IMAX:
        map2([](std::uint64_t x, std::uint64_t y) {
            return asInt(x) < asInt(y) ? y : x;
        });
        break;
      case Opcode::AND:
        map2([](std::uint64_t x, std::uint64_t y) { return x & y; });
        break;
      case Opcode::OR:
        map2([](std::uint64_t x, std::uint64_t y) { return x | y; });
        break;
      case Opcode::XOR:
        map2([](std::uint64_t x, std::uint64_t y) { return x ^ y; });
        break;
      case Opcode::SHL:
        map2([](std::uint64_t x, std::uint64_t y) { return x << (y & 63); });
        break;
      case Opcode::SHR:
        map2([](std::uint64_t x, std::uint64_t y) { return x >> (y & 63); });
        break;
      case Opcode::NOT:
        map1([](std::uint64_t x) { return ~x; });
        break;
      case Opcode::FADD:
        fp2([](double x, double y) { return x + y; });
        break;
      case Opcode::FSUB:
        fp2([](double x, double y) { return x - y; });
        break;
      case Opcode::FMUL:
        fp2([](double x, double y) { return x * y; });
        break;
      case Opcode::FMIN:
        fp2([](double x, double y) { return std::fmin(x, y); });
        break;
      case Opcode::FMAX:
        fp2([](double x, double y) { return std::fmax(x, y); });
        break;
      case Opcode::FFMA:
        map3([](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
            return asBits(std::fma(asF64(x), asF64(y), asF64(z)));
        });
        break;
      case Opcode::FRCP:
        sfu([](double x) { return x == 0.0; },
            [](double x) { return 1.0 / x; });
        break;
      case Opcode::FRSQ:
        sfu([](double x) { return x <= 0.0; },
            [](double x) { return 1.0 / std::sqrt(x); });
        break;
      case Opcode::FSQRT:
        sfu([](double x) { return x < 0.0; },
            [](double x) { return std::sqrt(x); });
        break;
      case Opcode::FSIN:
        sfu([](double) { return false; },
            [](double x) { return std::sin(x); });
        break;
      case Opcode::FCOS:
        sfu([](double) { return false; },
            [](double x) { return std::cos(x); });
        break;
      case Opcode::FEXP2:
        sfu([](double) { return false; },
            [](double x) { return std::exp2(x); });
        break;
      case Opcode::FLOG2:
        sfu([](double x) { return x <= 0.0; },
            [](double x) { return std::log2(x); });
        break;
      case Opcode::FDIV: {
        bool fault = false;
        forLanes(g, [&](int l) {
            const double y = asF64(b[l]);
            fault |= y == 0.0;
            d[l] = asBits(asF64(a[l]) / y);
        });
        ti.arithFault = fault;
        break;
      }
      case Opcode::I2F:
        map1([](std::uint64_t x) {
            return asBits(static_cast<double>(asInt(x)));
        });
        break;
      case Opcode::F2I:
        map1([](std::uint64_t x) {
            return static_cast<std::uint64_t>(
                static_cast<std::int64_t>(asF64(x)));
        });
        break;
      case Opcode::SETP:
        setPred(in.predDst,
                in.fcmp ? compareLanes(g, in.cmp, a, b,
                                       [](std::uint64_t x) {
                                           return asF64(x);
                                       })
                        : compareLanes(g, in.cmp, a, b,
                                       [](std::uint64_t x) {
                                           return asInt(x);
                                       }));
        break;
      case Opcode::PSETP: {
        const WarpMask pa = we.preds[in.predA];
        const WarpMask pb = we.preds[in.predB];
        WarpMask r;
        switch (in.plogic) {
          case isa::PLogic::And: r = pa & pb; break;
          case isa::PLogic::Or: r = pa | pb; break;
          case isa::PLogic::Xor: r = pa ^ pb; break;
          default: r = ~pa; break;
        }
        setPred(in.predDst, r);
        break;
      }
      case Opcode::SEL: {
        const WarpMask p = we.preds[in.predA];
        const std::uint64_t *c = src(in.srcs[1]);
        forLanes(g, [&](int l) { d[l] = (p >> l) & 1 ? a[l] : c[l]; });
        break;
      }
      case Opcode::LD_GLOBAL: {
        const std::size_t n = laneAddrs();
        mem_.read64s(addrs, n, vals);
        scatter(vals);
        recordLines(addrs, n, ti, out);
        break;
      }
      case Opcode::ST_GLOBAL: {
        const std::size_t n = laneAddrs();
        gather(src(in.srcs[1]));
        mem_.write64s(addrs, n, vals);
        recordLines(addrs, n, ti, out);
        break;
      }
      case Opcode::LD_SHARED:
        forLanes(g, [&](int l) {
            d[l] = blk.readShared64(a[l] +
                                    static_cast<std::uint64_t>(in.imm));
        });
        break;
      case Opcode::ST_SHARED: {
        const std::uint64_t *v = src(in.srcs[1]);
        forLanes(g, [&](int l) {
            blk.writeShared64(a[l] + static_cast<std::uint64_t>(in.imm),
                              v[l]);
        });
        break;
      }
      case Opcode::ATOM_ADD:
        atomic([&](std::uint64_t old, std::size_t i) -> NewWord {
            return old + vals[i];
        });
        break;
      case Opcode::ATOM_MIN:
        atomic([&](std::uint64_t old, std::size_t i) -> NewWord {
            return asInt(old) < asInt(vals[i]) ? old : vals[i];
        });
        break;
      case Opcode::ATOM_MAX:
        atomic([&](std::uint64_t old, std::size_t i) -> NewWord {
            return asInt(old) < asInt(vals[i]) ? vals[i] : old;
        });
        break;
      case Opcode::ATOM_EXCH:
        atomic([&](std::uint64_t, std::size_t i) -> NewWord {
            return vals[i];
        });
        break;
      case Opcode::ATOM_CAS: {
        std::uint64_t swap[kWarpSize];
        const std::uint64_t *c = src(in.srcs[2]);
        std::size_t k = 0;
        forLanes(g, [&](int l) { swap[k++] = c[l]; });
        atomic([&](std::uint64_t old, std::size_t i) -> NewWord {
            if (old == vals[i])
                return swap[i];
            return std::nullopt;
        });
        break;
      }
      case Opcode::ALLOC: {
        forLanes(g, [&](int l) { d[l] = mem_.allocFromHeap(a[l]); });
        // Timing-wise the bump is an atomic on the heap cursor word.
        std::size_t n = 0;
        if (g)
            addrs[n++] = mem_.heapCursorAddr();
        recordLines(addrs, n, ti, out);
        break;
      }
      default:
        panic("unimplemented opcode %d", static_cast<int>(in.op));
    }

    out.insts.push_back(ti);

    if (!stack_handled) {
        if (!we.stack.advance(next_pc))
            we.done = true;
    } else if (we.stack.empty()) {
        we.done = true;
    }
    return true;
}

} // namespace gex::func
