#include "func/functional_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <stop_token>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "func/simt_stack.hpp"
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

using NewWord = std::optional<std::uint64_t>;

/**
 * Call @p f with global atomic @p op's word function: next(old, i) is
 * the word lane i leaves, given the lanes' data @p v (and ATOM_CAS's
 * swap values @p s), or nullopt to leave the word and its page alone.
 */
template <typename F>
void
withAtomic(Opcode op, const std::uint64_t *v, const std::uint64_t *s,
           F &&f)
{
    switch (op) {
      case Opcode::ATOM_ADD:
        f([v](std::uint64_t old, std::size_t i) -> NewWord {
            return old + v[i];
        });
        break;
      case Opcode::ATOM_MIN:
        f([v](std::uint64_t old, std::size_t i) -> NewWord {
            return asInt(old) < asInt(v[i]) ? old : v[i];
        });
        break;
      case Opcode::ATOM_MAX:
        f([v](std::uint64_t old, std::size_t i) -> NewWord {
            return asInt(old) < asInt(v[i]) ? v[i] : old;
        });
        break;
      case Opcode::ATOM_EXCH:
        f([v](std::uint64_t, std::size_t i) -> NewWord { return v[i]; });
        break;
      default:
        GEX_ASSERT(op == Opcode::ATOM_CAS, "not an atomic: %d",
                   static_cast<int>(op));
        f([v, s](std::uint64_t old, std::size_t i) -> NewWord {
            if (old == v[i])
                return s[i];
            return std::nullopt;
        });
    }
}

/** Per-warp execution state. */
struct WarpExec {
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
struct BlockExec {
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

/** The serial loop's memory: the committed GlobalMemory itself. */
class DirectMemory
{
  public:
    explicit DirectMemory(GlobalMemory &mem) : mem_(mem) {}

    void
    read64s(const Addr *a, std::size_t n, std::uint64_t *out)
    {
        mem_.read64s(a, n, out);
    }
    void
    write64s(const Addr *a, std::size_t n, const std::uint64_t *v)
    {
        mem_.write64s(a, n, v);
    }
    /** Global atomic @p op per lane (withAtomic); out[i] = old word. */
    void
    atomic(Opcode op, bool, const Addr *a, std::size_t n,
           const std::uint64_t *v, const std::uint64_t *s,
           std::uint64_t *out)
    {
        withAtomic(op, v, s,
                   [&](auto next) { mem_.update64s(a, n, out, next); });
    }
    Addr allocFromHeap(std::uint64_t bytes)
    {
        return mem_.allocFromHeap(bytes);
    }
    Addr heapCursorAddr() const { return mem_.heapCursorAddr(); }

  private:
    GlobalMemory &mem_;
};

/**
 * One block's global writes in program order (stores and atomics, with
 * their lane addresses and data), replayed onto the committed memory
 * through write64s and update64s, so page creation and atomics behave
 * as if the block had run there.
 */
struct WriteLog {
    struct Op {
        Opcode op;
        std::uint32_t n; ///< lanes
    };
    std::vector<Op> ops;
    std::vector<Addr> addrs;        ///< n per op
    std::vector<std::uint64_t> data; ///< n per op; ATOM_CAS adds n swaps

    void
    clear()
    {
        ops.clear();
        addrs.clear();
        data.clear();
    }

    /** Replay every lane whose page is not in @p skip (ascending). */
    void
    replay(GlobalMemory &mem, const std::vector<Addr> &skip) const
    {
        const Addr *a = addrs.data();
        const std::uint64_t *d = data.data();
        Addr ka[kWarpSize];
        std::uint64_t kd[kWarpSize], ks[kWarpSize], olds[kWarpSize];
        Addr lastPage = ~Addr{0};
        bool lastSkipped = false;
        for (const Op &o : ops) {
            const bool cas = o.op == Opcode::ATOM_CAS;
            const Addr *oa = a;
            const std::uint64_t *od = d, *os = d + o.n;
            std::size_t n = o.n;
            if (!skip.empty()) {
                n = 0;
                for (std::uint32_t i = 0; i < o.n; ++i) {
                    if (pageOf(a[i]) != lastPage) {
                        lastPage = pageOf(a[i]);
                        lastSkipped = std::binary_search(
                            skip.begin(), skip.end(), lastPage);
                    }
                    if (lastSkipped)
                        continue;
                    ka[n] = a[i];
                    kd[n] = d[i];
                    if (cas)
                        ks[n] = os[i];
                    ++n;
                }
                oa = ka;
                od = kd;
                os = ks;
            }
            if (o.op == Opcode::ST_GLOBAL) {
                mem.write64s(oa, n, od);
            } else {
                withAtomic(o.op, od, os, [&](auto next) {
                    mem.update64s(oa, n, olds, next);
                });
            }
            a += o.n;
            d += cas ? 2 * o.n : o.n;
        }
    }
};

/** A page's words, as GlobalMemory keeps them. */
using PageWords = std::vector<std::uint64_t>;

/** A speculative block's outcome, kept until its commit. */
struct Speculated {
    trace::BlockTrace trace;
    bool failed = false;   ///< it threw (or would have panicked)
    std::uint64_t memInsts = 0;
    std::uint64_t memRequests = 0;
    std::vector<Addr> reads; ///< pages read, ascending
    /** The block's copies of the pages it wrote, by page number. */
    std::unordered_map<Addr, PageWords> pages;
    WriteLog log;

    /**
     * Commit into @p mem and @p out as if the block ran there. A
     * written page that @p mem lacks is adopted whole: no earlier
     * block wrote it, so the block's copy, which started zeroed, holds
     * what the serial loop would leave there. The log replays onto
     * every other page. @p adopted is scratch space.
     */
    void
    commit(GlobalMemory &mem, trace::BlockTrace &out,
           std::vector<Addr> &adopted)
    {
        adopted.clear();
        for (auto &[num, words] : pages)
            if (!mem.peekPage(num)) {
                mem.adoptPage(num, std::move(words));
                adopted.push_back(num);
            }
        std::sort(adopted.begin(), adopted.end());
        log.replay(mem, adopted);
        pages.clear();
        out = std::exchange(trace, {});
    }
};

/**
 * A speculative block's global memory. Reads see the block's own
 * writes, else the committed GlobalMemory through peekPage, which
 * creates no page and moves no memo, so any number of views read it
 * at once. Writes go to private copies of their pages and to the
 * block's WriteLog. Every page a load, a CAS or an atomic with a live
 * destination touches counts as read; stores and blind atomics (RZ
 * destination) only write.
 */
class SpecMemory
{
  public:
    explicit SpecMemory(const GlobalMemory &base) : base_(base) {}

    /** Forget the previous block's pages and writes. */
    void
    begin()
    {
        own_.clear();
        reads_.clear();
        log_.clear();
        readMemo_ = {};
        writeMemo_ = {};
    }

    /** Hand the block's page sets and write log to @p s. */
    void
    finish(Speculated &s)
    {
        std::sort(reads_.begin(), reads_.end());
        reads_.erase(std::unique(reads_.begin(), reads_.end()),
                     reads_.end());
        s.reads.swap(reads_);
        s.pages = std::move(own_);
        own_.clear();
        std::swap(s.log, log_);
    }

    void
    read64s(const Addr *a, std::size_t n, std::uint64_t *out)
    {
        std::size_t i = 0;
        while (i < n) {
            const Addr num = pageOf(a[i]);
            const std::uint64_t *words = readPage(num);
            do {
                GlobalMemory::checkAligned(a[i]);
                out[i] = words ? words[GlobalMemory::wordIndex(a[i])] : 0;
                ++i;
            } while (i < n && pageOf(a[i]) == num);
        }
    }

    void
    write64s(const Addr *a, std::size_t n, const std::uint64_t *v)
    {
        logOp(Opcode::ST_GLOBAL, a, n, v);
        std::size_t i = 0;
        while (i < n) {
            const Addr num = pageOf(a[i]);
            std::uint64_t *words = ownPage(num);
            do {
                GlobalMemory::checkAligned(a[i]);
                words[GlobalMemory::wordIndex(a[i])] = v[i];
                ++i;
            } while (i < n && pageOf(a[i]) == num);
        }
    }

    /** DirectMemory::atomic; @p blind: the old words are discarded. */
    void
    atomic(Opcode op, bool blind, const Addr *a, std::size_t n,
           const std::uint64_t *v, const std::uint64_t *s,
           std::uint64_t *out)
    {
        // A CAS's write depends on the old word even when it is
        // discarded.
        blind = blind && op != Opcode::ATOM_CAS;
        logOp(op, a, n, v);
        if (op == Opcode::ATOM_CAS)
            log_.data.insert(log_.data.end(), s, s + n);
        withAtomic(op, v, s, [&](auto next) {
            std::size_t i = 0;
            while (i < n) {
                const Addr num = pageOf(a[i]);
                const std::uint64_t *words =
                    blind ? findPage(num) : readPage(num);
                std::uint64_t *own = nullptr;
                do {
                    GlobalMemory::checkAligned(a[i]);
                    const std::size_t w = GlobalMemory::wordIndex(a[i]);
                    const std::uint64_t old = words ? words[w] : 0;
                    out[i] = old;
                    if (NewWord nv = next(old, i)) {
                        if (!own) {
                            own = ownPage(num);
                            words = own;
                        }
                        own[w] = *nv;
                    }
                    ++i;
                } while (i < n && pageOf(a[i]) == num);
            }
        });
    }

  private:
    /** The page of the last access, as GlobalMemory's memo. */
    template <typename Word>
    struct Memo {
        Addr num = ~Addr{0};
        Word *words = nullptr;
    };

    // Inlined so GCC sees that only the n active lanes' entries of the
    // caller's lane arrays are read (else -Wmaybe-uninitialized).
    [[gnu::always_inline]] void
    logOp(Opcode op, const Addr *a, std::size_t n, const std::uint64_t *v)
    {
        log_.ops.push_back({op, static_cast<std::uint32_t>(n)});
        log_.addrs.insert(log_.addrs.end(), a, a + n);
        log_.data.insert(log_.data.end(), v, v + n);
    }

    /** The block's view of page @p num; nullptr if absent. */
    const std::uint64_t *
    findPage(Addr num) const
    {
        auto it = own_.find(num);
        return it != own_.end() ? it->second.data() : base_.peekPage(num);
    }

    /** findPage, recording @p num as read. */
    const std::uint64_t *
    readPage(Addr num)
    {
        if (readMemo_.num != num) {
            reads_.push_back(num);
            readMemo_ = {num, findPage(num)};
        }
        return readMemo_.words;
    }

    /** The block's private copy of page @p num, made on first write. */
    std::uint64_t *
    ownPage(Addr num)
    {
        if (writeMemo_.num != num) {
            auto [it, fresh] = own_.try_emplace(num);
            if (fresh) {
                const std::uint64_t *src = base_.peekPage(num);
                if (src)
                    it->second.assign(src, src + kPageSize / 8);
                else
                    it->second.assign(kPageSize / 8, 0);
            }
            writeMemo_ = {num, it->second.data()};
            if (readMemo_.num == num)
                readMemo_.words = writeMemo_.words;
        }
        return writeMemo_.words;
    }

    const GlobalMemory &base_;
    std::unordered_map<Addr, PageWords> own_;
    std::vector<Addr> reads_;
    WriteLog log_;
    Memo<const std::uint64_t> readMemo_;
    Memo<std::uint64_t> writeMemo_;
};

/**
 * Runs thread blocks of one kernel against memory Mem (DirectMemory or
 * SpecMemory), one block at a time. Each thread that traces owns one,
 * with its sink and immediate rows and its memory-instruction counts.
 */
template <typename Mem>
class BlockRunner
{
  public:
    BlockRunner(const Kernel &kernel, Mem &mem, std::uint64_t maxWarpInsts)
        : kernel_(kernel), mem_(mem), maxWarpInsts_(maxWarpInsts)
    {}

    /** Execute block @p block_id into @p out (which must be empty). */
    void run(std::uint32_t block_id, trace::BlockTrace &out);

    std::uint64_t memInsts = 0;
    std::uint64_t memRequests = 0;

  private:
    /** Execute one instruction of warp @p w; returns false if stalled
     *  at a barrier or finished. */
    bool stepWarp(BlockExec &blk, WarpExec &w, trace::WarpTrace &out);

    /** Coalesce one global-memory instruction's lane addresses into
     *  @p out's line pool and count it toward memInsts/memRequests. */
    void recordLines(const Addr *addrs, std::size_t n,
                     trace::TraceInst &ti, trace::WarpTrace &out);

    const Kernel &kernel_;
    Mem &mem_;
    std::uint64_t maxWarpInsts_;
    /** Register rows standing in for RZ as a destination (writes are
     *  discarded) and for an immediate second operand. */
    std::uint64_t sinkRow_[kWarpSize] = {};
    std::uint64_t immRow_[kWarpSize] = {};
};

template <typename Mem>
void
BlockRunner<Mem>::run(std::uint32_t block_id, trace::BlockTrace &out)
{
    const Kernel &kernel = kernel_;
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
                if (!stepWarp(blk, we, out.warps[w]))
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

template <typename Mem>
void
BlockRunner<Mem>::recordLines(const Addr *addrs, std::size_t n,
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
    ++memInsts;
    memRequests += k;
}

template <typename Mem>
bool
BlockRunner<Mem>::stepWarp(BlockExec &blk, WarpExec &we,
                           trace::WarpTrace &out)
{
    const Kernel &kernel = kernel_;
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
      case Opcode::ATOM_MIN:
      case Opcode::ATOM_MAX:
      case Opcode::ATOM_EXCH:
      case Opcode::ATOM_CAS: {
        // d = old word; the word becomes withAtomic's next(old, i)
        // with the lane's data in vals[i], lane after lane.
        const std::size_t n = laneAddrs();
        gather(src(in.srcs[1]));
        std::uint64_t swap[kWarpSize];
        if (in.op == Opcode::ATOM_CAS) {
            const std::uint64_t *c = src(in.srcs[2]);
            std::size_t k = 0;
            forLanes(g, [&](int l) { swap[k++] = c[l]; });
        }
        std::uint64_t olds[kWarpSize];
        mem_.atomic(in.op, in.dst == kRegZero, addrs, n, vals, swap, olds);
        scatter(olds);
        recordLines(addrs, n, ti, out);
        break;
      }
      case Opcode::ALLOC:
        if constexpr (std::is_same_v<Mem, DirectMemory>) {
            forLanes(g, [&](int l) { d[l] = mem_.allocFromHeap(a[l]); });
            // Timing-wise the bump is an atomic on the heap cursor word.
            std::size_t n = 0;
            if (g)
                addrs[n++] = mem_.heapCursorAddr();
            recordLines(addrs, n, ti, out);
        } else {
            panic("ALLOC in a speculative block (kernels with ALLOC run "
                  "serially)");
        }
        break;
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

/** Whether @p prog can bump the device heap (ALLOC). */
bool
callsAlloc(const isa::Program &prog)
{
    for (std::size_t pc = 0; pc < prog.size(); ++pc)
        if (prog.at(pc).op == Opcode::ALLOC)
            return true;
    return false;
}

/**
 * The threads of one speculative trace: the calling thread and
 * workers - 1 helpers, which run a job on every block of a window and
 * return together. Worker w takes the window's blocks w, w + workers,
 * w + 2 * workers, ...: a fixed share, so each thread, the calling one
 * included, allocates the same things in the same order every run.
 * The calling thread's heap, which every later timing run reuses,
 * then does not depend on thread timing. The helpers are jthreads, so
 * they stop and are joined when the crew is destroyed, also by an
 * exception.
 */
class Crew
{
  public:
    /** @p job(worker, block) must not throw. */
    using Job = std::function<void(unsigned, std::uint32_t)>;

    Crew(unsigned workers, Job job) : job_(std::move(job)), stride_(workers)
    {
        for (unsigned w = 1; w < workers; ++w)
            helpers_.emplace_back(
                [this, w](std::stop_token st) { serve(st, w); });
    }
    Crew(const Crew &) = delete;
    Crew &operator=(const Crew &) = delete;

    /** Run the job on blocks [lo, hi); returns when all are done. */
    void
    run(std::uint32_t lo, std::uint32_t hi)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            lo_ = lo;
            end_ = hi;
            busy_ = helpers_.size();
            ++window_;
        }
        wake_.notify_all();
        work(0);
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [&] { return busy_ == 0; });
    }

  private:
    void
    work(unsigned w)
    {
        for (std::uint64_t b = std::uint64_t{lo_} + w; b < end_; b += stride_)
            job_(w, static_cast<std::uint32_t>(b));
    }

    void
    serve(std::stop_token st, unsigned w)
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                if (!wake_.wait(lock, st, [&] { return window_ != seen; }))
                    return;
                seen = window_;
            }
            work(w);
            std::lock_guard<std::mutex> lock(mu_);
            if (--busy_ == 0)
                done_.notify_one();
        }
    }

    Job job_;
    unsigned stride_;
    std::mutex mu_;
    std::condition_variable_any wake_;
    std::condition_variable done_;
    std::uint32_t lo_ = 0; ///< the window, set under mu_
    std::uint32_t end_ = 0;
    std::size_t busy_ = 0;
    std::uint64_t window_ = 0;
    /** Last member: stopped and joined before the rest is destroyed. */
    std::vector<std::jthread> helpers_;
};

/**
 * Windows start at one block per worker and double while every block
 * commits, up to this many per worker: few barriers on a conflict-free
 * kernel, little waste on one that conflicts early, and bounded memory
 * for the logs and page copies a window holds until its commit.
 */
constexpr std::uint32_t kMaxBlocksPerWorker = 8;

/** One worker's speculative memory and block runner. */
struct SpecWorker {
    SpecMemory view;
    BlockRunner<SpecMemory> runner;

    SpecWorker(const Kernel &kernel, const GlobalMemory &mem,
               std::uint64_t maxWarpInsts)
        : view(mem), runner(kernel, view, maxWarpInsts)
    {}
    SpecWorker(const SpecWorker &) = delete; // runner holds &view
    SpecWorker &operator=(const SpecWorker &) = delete;
};

/**
 * Trace @p kernel's blocks speculatively on @p workers threads and
 * commit them in launch order into @p mem and @p kt, window by window.
 * A block commits when it finished and read no page that an earlier
 * block of its window wrote: it then read exactly what it would have
 * read after those blocks, so its trace and writes are the serial
 * loop's, and committing its writes (Speculated::commit) gives the
 * serial memory. Returns
 * the first block that did not commit; it and every later block are
 * left to the serial loop, with empty traces.
 */
std::uint32_t
speculate(const Kernel &kernel, GlobalMemory &mem, unsigned workers,
          std::uint64_t maxWarpInsts, trace::KernelTrace &kt)
{
    const std::uint32_t nblocks = kernel.numBlocks();
    std::uint32_t lo = 0, hi = 0;     // the window
    std::vector<Speculated> slots;    // its blocks, from lo
    std::deque<SpecWorker> crewState;
    for (unsigned w = 0; w < workers; ++w)
        crewState.emplace_back(kernel, mem, maxWarpInsts);

    Crew crew(workers, [&](unsigned w, std::uint32_t b) {
        Speculated &s = slots[b - lo];
        SpecWorker &sw = crewState[w];
        s.failed = true;
        try {
            // Stale reads may send a block anywhere; a panic then
            // only marks it for the serial re-run.
            PanicsThrow recoverable;
            sw.view.begin();
            sw.runner.memInsts = sw.runner.memRequests = 0;
            sw.runner.run(b, s.trace);
            // The trace outlives the window on this worker's heap:
            // give back the growth slack the calling thread's heap
            // would have reused.
            for (trace::WarpTrace &wt : s.trace.warps) {
                wt.insts.shrink_to_fit();
                wt.linePool.shrink_to_fit();
            }
            s.memInsts = sw.runner.memInsts;
            s.memRequests = sw.runner.memRequests;
            sw.view.finish(s);
            s.failed = false;
        } catch (...) {
        }
    });

    std::unordered_set<Addr> written; // by this window's committed blocks
    std::vector<Addr> adopted;
    for (std::uint32_t size = workers; lo < nblocks;
         lo = hi, size = std::min(2 * size, kMaxBlocksPerWorker * workers)) {
        hi = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(nblocks, std::uint64_t{lo} + size));
        if (slots.size() < hi - lo)
            slots.resize(hi - lo);
        crew.run(lo, hi);
        written.clear();
        for (std::uint32_t b = lo; b < hi; ++b) {
            Speculated &s = slots[b - lo];
            const bool stale =
                std::any_of(s.reads.begin(), s.reads.end(),
                            [&](Addr p) { return written.count(p) != 0; });
            if (s.failed || stale)
                return b;
            for (const auto &kv : s.pages)
                written.insert(kv.first);
            s.commit(mem, kt.blocks[b], adopted);
            kt.memInsts += s.memInsts;
            kt.memRequests += s.memRequests;
        }
    }
    return nblocks;
}

} // namespace

FunctionalSim::FunctionalSim(GlobalMemory &mem, unsigned workers)
    : mem_(mem), workers_(workers)
{
    if (workers_ == 0)
        workers_ = std::max(1u, std::thread::hardware_concurrency());
}

trace::KernelTrace
FunctionalSim::run(const Kernel &kernel)
{
    kernel.program.validate();
    trace::KernelTrace kt;
    const std::uint32_t nblocks = kernel.numBlocks();
    kt.blocks.resize(nblocks);
    speculated_ = 0;
    const unsigned workers = std::min(workers_, nblocks);
    if (workers > 1 && !callsAlloc(kernel.program))
        speculated_ = speculate(kernel, mem_, workers, maxWarpInsts_, kt);
    std::uint32_t b = speculated_;
    DirectMemory direct(mem_);
    BlockRunner<DirectMemory> serial(kernel, direct, maxWarpInsts_);
    for (; b < nblocks; ++b)
        serial.run(b, kt.blocks[b]);
    kt.memInsts += serial.memInsts;
    kt.memRequests += serial.memRequests;
    kt.stats.set("func.dynamic_warp_insts",
                 static_cast<double>(kt.dynamicInsts()));
    kt.stats.set("func.mem_insts", static_cast<double>(kt.memInsts));
    kt.stats.set("func.mem_requests", static_cast<double>(kt.memRequests));
    kt.stats.set("func.touched_pages",
                 static_cast<double>(mem_.touchedPages()));
    return kt;
}

} // namespace gex::func
