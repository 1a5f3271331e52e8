/**
 * @file
 * FlatMap: a small open-addressing hash map keyed by Addr, built for
 * the timing simulator's hot pending-request bookkeeping (cache MSHRs,
 * TLB miss merging, page-directory regions). Compared with
 * std::unordered_map it stores key/value pairs in one contiguous
 * power-of-two array (no per-node allocation, no bucket pointers),
 * probes linearly (one cache line covers several slots), and erases by
 * backward shifting instead of tombstones, so lookup cost never degrades
 * as entries churn.
 *
 * Design constraints (checked statically or asserted):
 *  - keys are Addr (64-bit); the value kBadAddr is reserved as the
 *    empty-slot sentinel and must never be inserted. Line addresses,
 *    page numbers and region indices never collide with it.
 *  - the mapped type is default-constructible; trivially copyable
 *    types are ideal (everything stays memmove-friendly).
 *
 * Iteration is exposed as forEach()/eraseIf() rather than iterators:
 * every in-tree use walks the whole map, and backshift erase moves
 * elements around in ways classic iterators cannot express safely.
 */

#ifndef GEX_COMMON_FLAT_MAP_HPP
#define GEX_COMMON_FLAT_MAP_HPP

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace gex {

template <typename T>
class FlatMap
{
  public:
    /** Reserved key marking an empty slot. */
    static constexpr Addr kEmptyKey = kBadAddr;

    explicit FlatMap(std::size_t min_capacity = 0)
    {
        rehash(capacityFor(min_capacity));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Current slot count (power of two). */
    std::size_t capacity() const { return slots_.size(); }

    /** Drop every entry; keeps the current capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s = Slot{};
        size_ = 0;
    }

    /** Grow so that @p n entries fit without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = capacityFor(n);
        if (cap > slots_.size())
            rehash(cap);
    }

    /** Pointer to the value stored under @p key, or nullptr. */
    T *
    find(Addr key)
    {
        std::size_t i = probe(key);
        return slots_[i].key == key ? &slots_[i].value : nullptr;
    }

    const T *
    find(Addr key) const
    {
        std::size_t i = probe(key);
        return slots_[i].key == key ? &slots_[i].value : nullptr;
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Value under @p key, default-constructed on first access. */
    T &
    operator[](Addr key)
    {
        bool fresh;
        return slotFor(key, fresh).value;
    }

    /**
     * Insert @p key with a default-constructed value unless it is
     * already present; returns whether it was inserted. One probe,
     * where find() then operator[] would take two.
     */
    bool
    insert(Addr key)
    {
        bool fresh;
        slotFor(key, fresh);
        return fresh;
    }

    /**
     * Remove @p key if present; returns whether it was. Erasure shifts
     * the following probe cluster back one slot (no tombstones), so
     * the table stays as dense as if the key had never been inserted.
     */
    bool
    erase(Addr key)
    {
        std::size_t i = probe(key);
        if (slots_[i].key != key)
            return false;
        eraseSlot(i);
        return true;
    }

    /** Visit every (key, value) pair; @p f must not mutate the map. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Slot &s : slots_)
            if (s.key != kEmptyKey)
                f(s.key, s.value);
    }

    template <typename F>
    void
    forEach(F &&f)
    {
        for (Slot &s : slots_)
            if (s.key != kEmptyKey)
                f(s.key, s.value);
    }

    /**
     * Erase every entry for which @p pred(key, value) is true; returns
     * how many were removed. The predicate is evaluated exactly once
     * per entry (backshift during a raw slot walk could move entries
     * across the scan frontier, so doomed keys are collected first).
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        scratch_.clear();
        for (Slot &s : slots_)
            if (s.key != kEmptyKey && pred(s.key, s.value))
                scratch_.push_back(s.key);
        for (Addr k : scratch_)
            erase(k);
        return scratch_.size();
    }

  private:
    struct Slot {
        Addr key = kEmptyKey;
        T value{};
    };

    static constexpr std::size_t kMinCapacity = 16;

    /** Smallest power-of-two capacity keeping load factor under 0.7. */
    static std::size_t
    capacityFor(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (n + 1 > cap - cap / 4 - cap / 16) // limit = 0.6875 * cap
            cap *= 2;
        return cap;
    }

    /** Fibonacci multiplicative hash: home slot of @p key. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** The slot of @p key, filled with a default value if absent. */
    Slot &
    slotFor(Addr key, bool &fresh)
    {
        GEX_ASSERT(key != kEmptyKey, "FlatMap: reserved key");
        std::size_t i = probe(key);
        fresh = slots_[i].key != key;
        if (!fresh)
            return slots_[i];
        if (size_ + 1 > limit_) {
            rehash(slots_.size() * 2);
            i = probe(key);
        }
        slots_[i].key = key;
        slots_[i].value = T{};
        ++size_;
        return slots_[i];
    }

    /** First slot holding @p key, or the empty slot ending its cluster. */
    std::size_t
    probe(Addr key) const
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != kEmptyKey)
            i = (i + 1) & mask;
        return i;
    }

    void
    eraseSlot(std::size_t hole)
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t j = hole;
        while (true) {
            j = (j + 1) & mask;
            if (slots_[j].key == kEmptyKey)
                break;
            // An entry may backshift into the hole only if its home
            // slot is outside (hole, j] in cyclic probe order —
            // otherwise the shift would strand it before its home.
            std::size_t h = home(slots_[j].key);
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(new_cap, Slot{});
        shift_ = 64;
        for (std::size_t c = new_cap; c > 1; c /= 2)
            --shift_;
        limit_ = new_cap - new_cap / 4 - new_cap / 16;
        size_ = 0;
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = probe(s.key);
            slots_[i] = std::move(s);
            ++size_;
        }
    }

    std::vector<Slot> slots_;
    std::vector<Addr> scratch_;  ///< eraseIf staging (reused)
    std::size_t size_ = 0;
    std::size_t limit_ = 0;      ///< grow when size_ would exceed this
    int shift_ = 64;             ///< 64 - log2(capacity)
};

} // namespace gex

#endif // GEX_COMMON_FLAT_MAP_HPP
