/**
 * @file
 * The content hashes in the tree. TaggedHasher is a tagged FNV-1a
 * 64 over a canonical byte stream, shared by the campaign spec hash
 * (driver) and the standalone SystemConfig hash and Program hash
 * that pin a snapshot to its machine (sim/isa). WordHasher takes
 * 8-byte words instead, for the snapshot bundle's per-entry state
 * digest, which covers the whole machine state.
 *
 * TaggedHasher takes every field as its tag (including the
 * terminating NUL, so "ab"+"c" cannot collide with "a"+"bc")
 * followed by the value as 8 little-endian bytes; doubles contribute
 * their IEEE-754 bit pattern. The encoding is therefore independent
 * of host endianness and struct layout. It started life as the
 * driver's SpecHasher; the byte stream is unchanged, so spec hashes
 * recorded by old campaign reports stay valid cache keys.
 */

#ifndef CHEX_BASE_FNV_HH
#define CHEX_BASE_FNV_HH

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace chex
{

class TaggedHasher
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            _hash ^= p[i];
            _hash *= 0x100000001b3ull; // FNV-1a 64 prime
        }
    }

    void
    tag(const char *name)
    {
        bytes(name, std::strlen(name) + 1);
    }

    void
    u64(const char *name, uint64_t v)
    {
        tag(name);
        unsigned char le[8];
        for (int i = 0; i < 8; ++i)
            le[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(le, sizeof(le));
    }

    void
    f64(const char *name, double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(name, bits);
    }

    void
    str(const char *name, const std::string &s)
    {
        tag(name);
        u64("len", s.size());
        bytes(s.data(), s.size());
    }

    /** Never 0 — every consumer reserves 0 as an "unset" sentinel. */
    uint64_t
    digest() const
    {
        return _hash ? _hash : 1;
    }

  private:
    uint64_t _hash = 0xcbf29ce484222325ull; // FNV-1a 64 offset basis
};

/**
 * A word-at-a-time digest. Each 64-bit word w updates the state as
 * h = mix(h ^ w), where mix (a multiply and an xor-shift) is a
 * bijection, so two streams of equal length that differ in one
 * word always digest differently. Bytes go in as 8-byte
 * little-endian words, the last one zero-padded, whatever the host
 * byte order; callers put a length in first when the byte count is
 * not implied, so padding cannot collide.
 */
class WordHasher
{
  public:
    void word(uint64_t w) { _hash = mix(_hash ^ w); }

    void
    bytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (; n >= 8; p += 8, n -= 8)
            word(loadLE(p, 8));
        if (n)
            word(loadLE(p, n));
    }

    /** Never 0 — 0 stays the "unset" sentinel, as for TaggedHasher. */
    uint64_t
    digest() const
    {
        // A last round so the final word reaches every output bit.
        uint64_t h = mix(mix(_hash));
        return h ? h : 1;
    }

  private:
    static uint64_t
    mix(uint64_t x)
    {
        x *= 0x9e3779b97f4a7c15ull; // odd: 2^64 / golden ratio
        return x ^ (x >> 32);
    }

    /** The @p n <= 8 bytes at @p p as a little-endian word. */
    static uint64_t
    loadLE(const unsigned char *p, size_t n)
    {
        uint64_t w = 0;
        std::memcpy(&w, p, n);
        if constexpr (std::endian::native == std::endian::big) {
            uint64_t le = 0;
            for (size_t i = 0; i < 8; ++i)
                le |= ((w >> (56 - 8 * i)) & 0xff) << (8 * i);
            w = le;
        }
        return w;
    }

    uint64_t _hash = 0xcbf29ce484222325ull;
};

/** A digest as 16 lower-case hex digits, the form documents carry. */
inline std::string
hashHex(uint64_t hash)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

/** Parse exactly what hashHex() writes; false on anything else. */
inline bool
parseHashHex(const std::string &hex, uint64_t *out)
{
    if (hex.size() != 16 ||
        hex.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    *out = std::strtoull(hex.c_str(), nullptr, 16);
    return true;
}

} // namespace chex

#endif // CHEX_BASE_FNV_HH
