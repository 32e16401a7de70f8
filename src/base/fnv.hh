/**
 * @file
 * Tagged FNV-1a 64 over a canonical byte stream, shared by every
 * content hash in the tree: the campaign spec hash (driver), the
 * standalone SystemConfig hash and the Program hash that pin a
 * snapshot to its machine (sim/isa), and the snapshot bundle's
 * per-entry state digest.
 *
 * Every field goes in as its tag (including the terminating NUL, so
 * "ab"+"c" cannot collide with "a"+"bc") followed by the value as 8
 * little-endian bytes; doubles contribute their IEEE-754 bit
 * pattern. The encoding is therefore independent of host endianness
 * and struct layout. This class started life as the driver's
 * SpecHasher; the byte stream is unchanged, so spec hashes recorded
 * by old campaign reports stay valid cache keys.
 */

#ifndef CHEX_BASE_FNV_HH
#define CHEX_BASE_FNV_HH

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
