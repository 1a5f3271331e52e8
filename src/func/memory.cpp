#include "func/memory.hpp"

#include <algorithm>
#include <cstring>

#include "common/digest.hpp"
#include "common/log.hpp"

namespace gex::func {

void
GlobalMemory::checkAligned(Addr a)
{
    GEX_ASSERT((a & 7) == 0, "unaligned access at 0x%llx",
               static_cast<unsigned long long>(a));
}

std::uint64_t *
GlobalMemory::findPage(Addr page_num)
{
    if (memo_.num != page_num) {
        auto it = pages_.find(page_num);
        if (it == pages_.end())
            return nullptr;
        memo_.num = page_num;
        memo_.page = &it->second;
    }
    return memo_.page->data();
}

std::uint64_t *
GlobalMemory::touchPage(Addr page_num)
{
    if (memo_.num != page_num) {
        auto it = pages_.find(page_num);
        if (it == pages_.end())
            it = pages_.emplace(page_num, Page(kPageSize / 8, 0)).first;
        memo_.num = page_num;
        memo_.page = &it->second;
    }
    return memo_.page->data();
}

const std::uint64_t *
GlobalMemory::peekPage(Addr page_num) const
{
    auto it = pages_.find(page_num);
    return it == pages_.end() ? nullptr : it->second.data();
}

void
GlobalMemory::adoptPage(Addr page_num, std::vector<std::uint64_t> &&words)
{
    GEX_ASSERT(words.size() == kPageSize / 8, "adopted page of %zu words",
               words.size());
    const bool fresh = pages_.emplace(page_num, std::move(words)).second;
    GEX_ASSERT(fresh, "adopted page 0x%llx exists",
               static_cast<unsigned long long>(page_num));
}

std::uint64_t
GlobalMemory::read64(Addr a)
{
    checkAligned(a);
    const std::uint64_t *words = findPage(pageOf(a));
    return words ? words[wordIndex(a)] : 0;
}

std::uint64_t
GlobalMemory::read64(Addr a) const
{
    checkAligned(a);
    const std::uint64_t *words = peekPage(pageOf(a));
    return words ? words[wordIndex(a)] : 0;
}

void
GlobalMemory::write64(Addr a, std::uint64_t v)
{
    checkAligned(a);
    touchPage(pageOf(a))[wordIndex(a)] = v;
}

void
GlobalMemory::read64s(const Addr *a, std::size_t n, std::uint64_t *out)
{
    std::size_t i = 0;
    while (i < n) {
        const Addr num = pageOf(a[i]);
        const std::uint64_t *words = findPage(num);
        do {
            checkAligned(a[i]);
            out[i] = words ? words[wordIndex(a[i])] : 0;
            ++i;
        } while (i < n && pageOf(a[i]) == num);
    }
}

void
GlobalMemory::write64s(const Addr *a, std::size_t n,
                       const std::uint64_t *v)
{
    std::size_t i = 0;
    while (i < n) {
        const Addr num = pageOf(a[i]);
        std::uint64_t *words = touchPage(num);
        do {
            checkAligned(a[i]);
            words[wordIndex(a[i])] = v[i];
            ++i;
        } while (i < n && pageOf(a[i]) == num);
    }
}

void
GlobalMemory::fill64(Addr base, std::uint64_t count, std::uint64_t value)
{
    for (std::uint64_t i = 0; i < count; ++i)
        write64(base + i * 8, value);
}

void
GlobalMemory::fillF64(Addr base, std::uint64_t count, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    fill64(base, count, bits);
}

void
GlobalMemory::setHeap(Addr base, std::uint64_t bytes)
{
    GEX_ASSERT((base & (kPageSize - 1)) == 0, "heap base not page aligned");
    heapBase_ = base;
    heapBytes_ = bytes;
    heapUsed_ = 16; // first 16 bytes hold the cursor itself
    write64(base, base + heapUsed_);
}

std::uint64_t
GlobalMemory::digest() const
{
    std::vector<Addr> nums;
    nums.reserve(pages_.size());
    for (const auto &kv : pages_)
        nums.push_back(kv.first);
    std::sort(nums.begin(), nums.end());
    WordHash h;
    for (Addr n : nums) {
        h.u64(n);
        const Page &p = pages_.at(n);
        h.u64s(p.data(), p.size());
    }
    h.u64(heapUsed_);
    return h.finish();
}

Addr
GlobalMemory::allocFromHeap(std::uint64_t bytes)
{
    GEX_ASSERT(heapBytes_ > 0, "ALLOC executed but no heap configured");
    std::uint64_t aligned = (bytes + 15) & ~15ull;
    if (heapUsed_ + aligned > heapBytes_)
        fatal("device heap exhausted (%llu + %llu > %llu bytes)",
              static_cast<unsigned long long>(heapUsed_),
              static_cast<unsigned long long>(aligned),
              static_cast<unsigned long long>(heapBytes_));
    Addr result = heapBase_ + heapUsed_;
    heapUsed_ += aligned;
    write64(heapBase_, heapBase_ + heapUsed_);
    return result;
}

} // namespace gex::func
