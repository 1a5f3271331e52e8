/**
 * @file
 * The simulator's two digest accumulators.
 *
 *  - Fnv1a: the persisted and pinned digests — the knob registry's
 *    result and schema digests, the campaign journal's spec digest,
 *    and every golden-stat and observer-stream pin. Its output must
 *    never change: a faster rewrite that moves one bit breaks every
 *    stored journal and pin.
 *  - WordHash: the architectural oracle's fingerprints only (the
 *    trace digest and the functional memory image digest). Those are
 *    compared inside one process, reference against replay, and are
 *    never stored, so this hash is free to trade FNV-1a's byte-serial
 *    chain for speed. The one pin on them, FunctionalGolden, guards
 *    the functional simulator; a change here re-pins its rows (its
 *    failures print them) and moves nothing persisted.
 *
 * Both take explicit values, never a memcpy of a struct (whose padding
 * is unspecified); Fnv1a serializes them little-endian byte by byte.
 * So both digests are the same on every host.
 */

#ifndef GEX_COMMON_DIGEST_HPP
#define GEX_COMMON_DIGEST_HPP

#include <bit>
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

/**
 * A 64-bit word-stream hash in the style of xxHash64: four independent
 * lanes each absorb every fourth word with a multiply-rotate-multiply
 * round, and finish() folds them, the word count and any partial
 * stripe through an avalanche. The lanes' multiplies overlap, so a
 * word costs a cycle or two where Fnv1a::u64 runs eight dependent
 * multiplies.
 *
 * The input is a sequence of 64-bit values, never the bytes of a
 * struct, so the hash is the same on every host. Not for persisted
 * digests (see the file comment).
 */
class WordHash
{
  public:
    void u64(std::uint64_t v) { u64s(&v, 1); }

    /** The same as u64() on each of @p w[0, count), in bulk. */
    void
    u64s(const std::uint64_t *w, std::size_t count)
    {
        for (; n_ != 0 && count > 0; --count) {
            buf_[n_++] = *w++;
            if (n_ == 4) {
                absorb(buf_, 1);
                n_ = 0;
            }
        }
        absorb(w, count / 4);
        w += count / 4 * 4;
        for (count %= 4; count > 0; --count)
            buf_[n_++] = *w++;
    }

    std::uint64_t
    finish() const
    {
        std::uint64_t h;
        if (stripes_ == 0) {
            h = kP5;
        } else {
            h = std::rotl(v_[0], 1) + std::rotl(v_[1], 7) +
                std::rotl(v_[2], 12) + std::rotl(v_[3], 18);
            for (std::uint64_t v : v_)
                h = (h ^ round(0, v)) * kP1 + kP4;
        }
        h += 8 * (4 * stripes_ + n_);
        for (unsigned i = 0; i < n_; ++i)
            h = std::rotl(h ^ round(0, buf_[i]), 27) * kP1 + kP4;
        h ^= h >> 33;
        h *= kP2;
        h ^= h >> 29;
        h *= kP3;
        h ^= h >> 32;
        return h;
    }

  private:
    static constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
    static constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
    static constexpr std::uint64_t kP3 = 0x165667b19e3779f9ull;
    static constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ull;
    static constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ull;

    static std::uint64_t
    round(std::uint64_t acc, std::uint64_t w)
    {
        return std::rotl(acc + w * kP2, 31) * kP1;
    }

    /** Feed @p stripes runs of four words, one word to each lane. */
    void
    absorb(const std::uint64_t *w, std::size_t stripes)
    {
        // Lanes in locals: stores to v_ could alias w.
        std::uint64_t v0 = v_[0], v1 = v_[1], v2 = v_[2], v3 = v_[3];
        for (std::size_t i = 0; i < stripes; ++i, w += 4) {
            v0 = round(v0, w[0]);
            v1 = round(v1, w[1]);
            v2 = round(v2, w[2]);
            v3 = round(v3, w[3]);
        }
        v_[0] = v0;
        v_[1] = v1;
        v_[2] = v2;
        v_[3] = v3;
        stripes_ += stripes;
    }

    std::uint64_t v_[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    std::uint64_t buf_[4] = {};
    unsigned n_ = 0;
    std::uint64_t stripes_ = 0;
};

} // namespace gex

#endif // GEX_COMMON_DIGEST_HPP
