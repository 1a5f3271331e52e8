/**
 * @file
 * Sparse functional global memory: a page-granular word store backing
 * kernel data. Also tracks the device heap cursor used by ALLOC.
 */

#ifndef GEX_FUNC_MEMORY_HPP
#define GEX_FUNC_MEMORY_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace gex::func {

/**
 * Sparse memory of aligned 64-bit words at byte addresses. Pages are
 * materialized (zero-filled) on first touch, which conveniently
 * matches the lazy-allocation semantics the paper's use case 2
 * exposes to software.
 */
class GlobalMemory
{
  public:
    /**
     * Read through the last-page memo: consecutive lanes of one warp
     * nearly always hit the page the previous access touched, so the
     * functional simulator's per-lane loads skip the hash lookup.
     */
    std::uint64_t read64(Addr a);
    /** The same value without the memo, for const (shared) readers. */
    std::uint64_t read64(Addr a) const;
    void write64(Addr a, std::uint64_t v);

    /**
     * One warp instruction's lanes, in lane order: @p n accesses at
     * @p a, each with read64/write64's result and alignment check. A
     * run of consecutive addresses on one page resolves that page
     * once; reads of a never-written page return 0 and create none.
     */
    void read64s(const Addr *a, std::size_t n, std::uint64_t *out);
    void write64s(const Addr *a, std::size_t n, const std::uint64_t *v);

    /**
     * Read-modify-write per address in order (global atomics):
     * out[i] receives the word's old value, then @p next(old, i)
     * returns the value to store, or nullopt to leave the word (and
     * an absent page) untouched. Lanes hitting one word see each
     * other's updates, as the sequential per-lane order requires.
     */
    template <typename Next>
    void
    update64s(const Addr *a, std::size_t n, std::uint64_t *out,
              Next &&next)
    {
        std::size_t i = 0;
        while (i < n) {
            const Addr num = pageOf(a[i]);
            std::uint64_t *words = findPage(num);
            do {
                checkAligned(a[i]);
                const std::size_t w = wordIndex(a[i]);
                const std::uint64_t old = words ? words[w] : 0;
                out[i] = old;
                if (std::optional<std::uint64_t> nv = next(old, i)) {
                    if (!words)
                        words = touchPage(num);
                    words[w] = *nv;
                }
                ++i;
            } while (i < n && pageOf(a[i]) == num);
        }
    }

    double
    readF64(Addr a) const
    {
        std::uint64_t bits = read64(a);
        double d;
        static_assert(sizeof(d) == sizeof(bits));
        __builtin_memcpy(&d, &bits, sizeof(d));
        return d;
    }

    void
    writeF64(Addr a, double v)
    {
        std::uint64_t bits;
        __builtin_memcpy(&bits, &v, sizeof(bits));
        write64(a, bits);
    }

    /** Bulk helpers for test/bench setup. */
    void fill64(Addr base, std::uint64_t count, std::uint64_t value);
    void fillF64(Addr base, std::uint64_t count, double value);

    /**
     * Configure the device heap region used by ALLOC. Allocations bump
     * @c heapCursor; running past @p bytes is a fatal error.
     */
    void setHeap(Addr base, std::uint64_t bytes);
    Addr heapBase() const { return heapBase_; }
    Addr heapCursorAddr() const { return heapBase_; }

    /**
     * Device-side allocation: returns the old cursor, 16-byte aligned.
     * The first 16 bytes of the heap hold the cursor itself, so the
     * bump is also a real memory access (the timing side models it as
     * an atomic on that address).
     */
    Addr allocFromHeap(std::uint64_t bytes);

    /**
     * Words of page @p pageNum, or nullptr if it was never written. It
     * neither moves the last-page memo nor creates a page, so threads
     * may call it concurrently while none writes.
     */
    const std::uint64_t *peekPage(Addr pageNum) const;

    /**
     * Install @p words (kPageSize / 8 of them) as page @p pageNum,
     * which must be absent: a page filled elsewhere, taken as is.
     */
    void adoptPage(Addr pageNum, std::vector<std::uint64_t> &&words);

    /** Index of @p a's word within its page. */
    static std::size_t
    wordIndex(Addr a)
    {
        return static_cast<std::size_t>(a % kPageSize) / 8;
    }
    /** Accesses are 8-byte aligned (fatal otherwise). */
    static void checkAligned(Addr a);

    /** Pages ever written; reading an absent page returns 0 and adds none. */
    std::size_t touchedPages() const { return pages_.size(); }

    /**
     * WordHash digest of the full memory image: every touched page's
     * number and its 512 words, visited in ascending page order so the
     * hash is independent of touch order, then the heap cursor. The
     * architectural-oracle fingerprint of a final memory state
     * (src/check, docs/VALIDATION.md); never persisted.
     */
    std::uint64_t digest() const;

  private:
    /** One page as its kPageSize / 8 words (accesses are 8-aligned). */
    using Page = std::vector<std::uint64_t>;

    /**
     * The page of the last memoized access. Pages live in map nodes
     * and are never erased, so the pointer stays valid for the life
     * of the map; a copy or move starts empty because the pointer
     * would name the source's page.
     */
    struct PageMemo {
        Addr num = ~Addr{0};
        Page *page = nullptr;

        PageMemo() = default;
        PageMemo(const PageMemo &) {}
        PageMemo &
        operator=(const PageMemo &)
        {
            num = ~Addr{0};
            page = nullptr;
            return *this;
        }
    };

    /** Words of page @p pageNum through the memo; nullptr if absent. */
    std::uint64_t *findPage(Addr pageNum);
    /** Words of page @p pageNum through the memo, zero-filled on
     *  first touch. */
    std::uint64_t *touchPage(Addr pageNum);

    std::unordered_map<Addr, Page> pages_;
    PageMemo memo_;
    Addr heapBase_ = 0;
    std::uint64_t heapBytes_ = 0;
    std::uint64_t heapUsed_ = 0;
};

} // namespace gex::func

#endif // GEX_FUNC_MEMORY_HPP
