/**
 * @file
 * The one FNV-1a 64-bit accumulator behind every digest of the
 * simulator: the knob registry's result and schema digests, the
 * campaign journal's spec digest, the architectural oracle's trace
 * digest and the functional memory image digest.
 *
 * Multi-byte values are serialized little-endian byte by byte (never a
 * memcpy of the in-memory representation), so a digest is the same on
 * every host.
 */

#ifndef GEX_COMMON_DIGEST_HPP
#define GEX_COMMON_DIGEST_HPP

#include <cstdint>
#include <cstring>
#include <string>

namespace gex {

struct Fnv1a {
    static constexpr std::uint64_t kOffset = 14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    std::uint64_t h = kOffset;

    void
    bytes(const void *p, std::size_t n)
    {
        const unsigned char *c = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= kPrime;
        }
    }
    void
    u64(std::uint64_t v)
    {
        // Shifts rather than a byte buffer: the trace digest mixes
        // every traced instruction through here.
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= kPrime;
        }
    }
    void
    d(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    /** Length-prefixed, so concatenated strings cannot collide. */
    void
    s(const std::string &v)
    {
        u64(v.size());
        bytes(v.data(), v.size());
    }
};

} // namespace gex

#endif // GEX_COMMON_DIGEST_HPP
