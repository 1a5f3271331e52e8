/**
 * @file
 * Sparse functional global memory: a page-granular word store backing
 * kernel data. Also tracks the device heap cursor used by ALLOC.
 */

#ifndef GEX_FUNC_MEMORY_HPP
#define GEX_FUNC_MEMORY_HPP

#include <cstdint>
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

    Page &page(Addr pageNum);
    const Page *pageIfPresent(Addr pageNum) const;

    std::unordered_map<Addr, Page> pages_;
    PageMemo memo_;
    Addr heapBase_ = 0;
    std::uint64_t heapBytes_ = 0;
    std::uint64_t heapUsed_ = 0;
};

} // namespace gex::func

#endif // GEX_FUNC_MEMORY_HPP
