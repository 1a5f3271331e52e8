/**
 * @file
 * Bitmask: a fixed-size bit set over [0, size) in 64-bit words, and
 * MaskWalk, the warp schedulers' visit order over such masks. The SM
 * fetch and issue stages keep one Bitmask per readiness predicate
 * (fetch-blocked, issue-stalled, mem-ready, unschedulable) and walk
 * only the positions clear in the masks that gate them, finding each
 * one with a count-trailing-zeros per word instead of testing warp by
 * warp — the priority-encoder pick of a hardware warp scheduler.
 */

#ifndef GEX_COMMON_BITMASK_HPP
#define GEX_COMMON_BITMASK_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace gex {

class Bitmask
{
  public:
    Bitmask() = default;
    explicit Bitmask(int n) { resize(n); }

    /** Resize to @p n bits, all clear. */
    void
    resize(int n)
    {
        n_ = n;
        w_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
    }

    int size() const { return n_; }

    /** Clear every bit. */
    void
    clear()
    {
        std::fill(w_.begin(), w_.end(), 0);
    }

    bool
    test(int i) const
    {
        return (w_[word(i)] >> (i & 63)) & 1;
    }

    void set(int i) { w_[word(i)] |= bit(i); }
    void reset(int i) { w_[word(i)] &= ~bit(i); }

    /**
     * First position in [from, to) clear here and in @p b and @p c
     * (masks of the same size), or @p to if there is none. Pass *this
     * as a mask that should not gate.
     */
    int
    nextClear(int from, int to, const Bitmask &b, const Bitmask &c) const
    {
        if (from >= to)
            return to;
        std::size_t k = word(from);
        const std::size_t last = word(to - 1);
        std::uint64_t free =
            ~(w_[k] | b.w_[k] | c.w_[k]) & (~0ull << (from & 63));
        while (true) {
            if (k == last)
                free &= upTo(to);
            if (free)
                return static_cast<int>(k * 64) + std::countr_zero(free);
            if (k == last)
                return to;
            ++k;
            free = ~(w_[k] | b.w_[k] | c.w_[k]);
        }
    }

    /** First position in [from, to) clear here and in @p other. */
    int
    nextClear(int from, int to, const Bitmask &other) const
    {
        return nextClear(from, to, other, other);
    }

    /** Number of set bits in [from, to). */
    int
    count(int from, int to) const
    {
        if (from >= to)
            return 0;
        std::size_t k = word(from);
        const std::size_t last = word(to - 1);
        std::uint64_t bits = w_[k] & (~0ull << (from & 63));
        int n = 0;
        for (; k < last; bits = w_[++k])
            n += std::popcount(bits);
        return n + std::popcount(bits & upTo(to));
    }

  private:
    static std::size_t
    word(int i)
    {
        return static_cast<std::size_t>(i) >> 6;
    }

    static std::uint64_t bit(int i) { return 1ull << (i & 63); }
    /** Bits of the last word that lie below position @p to. */
    static std::uint64_t
    upTo(int to)
    {
        return ~0ull >> (63 - ((to - 1) & 63));
    }

    std::vector<std::uint64_t> w_;
    int n_ = 0;
};

/**
 * The warp schedulers' visit order over positions [0, n): @p head
 * first (when >= 0; it may lie past n, not past the masks), then the
 * rotation start, start+1, ..., n-1, 0, ..., start-1 with @p head
 * skipped. LRR is (no head, start = successor of the last pick); GTO
 * is (head = the sticky warp, start 0).
 *
 * next() yields, in that order, the positions clear in every gating
 * mask. The positions it passes over are exactly the ones a warp-by-
 * warp scan would have visited and rejected before reaching the one
 * returned; the optional tallies each count those set in one more
 * mask, reading each of them before the caller acts on the returned
 * position (so the caller's own updates to visited positions never
 * reach a tally).
 */
class MaskWalk
{
  public:
    MaskWalk(int head, int start, int n)
    {
        if (head >= 0)
            push(head, head + 1);
        const bool split = head >= 0 && head < n;
        for (auto [lo, hi] : {Range{start, n}, Range{0, start}}) {
            if (split && lo <= head && head < hi) {
                push(lo, head);
                push(head + 1, hi);
            } else {
                push(lo, hi);
            }
        }
        pos_ = nseg_ > 0 ? seg_[0].lo : 0;
    }

    /**
     * Next position clear in @p a, @p b and @p c, or -1 when exhausted.
     * The passed-over positions set in @p tally0 / @p tally1 (each if
     * given) are added to tallied(0) / tallied(1).
     */
    int
    next(const Bitmask &a, const Bitmask &b, const Bitmask &c,
         const Bitmask *tally0, const Bitmask *tally1)
    {
        for (; k_ < nseg_; ++k_) {
            const int hi = seg_[k_].hi;
            const int p = a.nextClear(pos_, hi, b, c);
            if (tally0)
                tallied_[0] +=
                    static_cast<std::uint64_t>(tally0->count(pos_, p));
            if (tally1)
                tallied_[1] +=
                    static_cast<std::uint64_t>(tally1->count(pos_, p));
            if (p < hi) {
                pos_ = p + 1;
                return p;
            }
            if (k_ + 1 < nseg_)
                pos_ = seg_[k_ + 1].lo;
        }
        return -1;
    }

    /** Next position clear in @p a and @p b, tallying into tallied(0). */
    int
    next(const Bitmask &a, const Bitmask &b,
         const Bitmask *tally = nullptr)
    {
        return next(a, b, b, tally, nullptr);
    }

    std::uint64_t tallied(int i = 0) const { return tallied_[i]; }

  private:
    struct Range {
        int lo, hi;
    };

    void
    push(int lo, int hi)
    {
        if (lo < hi)
            seg_[nseg_++] = Range{lo, hi};
    }

    // head, then the two rotation halves, one of them split at head.
    Range seg_[4] = {};
    int nseg_ = 0;
    int k_ = 0;
    int pos_ = 0;
    std::uint64_t tallied_[2] = {};
};

} // namespace gex

#endif // GEX_COMMON_BITMASK_HPP
