#include "base64.hh"

#include <cstdint>

namespace chex
{

namespace
{

const char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    "0123456789+/";

/** 0-63 for alphabet characters, -1 for every other byte ('='). */
struct DecodeTable
{
    int8_t value[256] = {};
    constexpr DecodeTable()
    {
        for (int c = 0; c < 256; ++c)
            value[c] = -1;
        for (int i = 0; i < 64; ++i)
            value[static_cast<unsigned char>(kAlphabet[i])] =
                static_cast<int8_t>(i);
    }
};
constexpr DecodeTable kDecode;

} // namespace

std::string
base64Encode(const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    std::string text(((n + 2) / 3) * 4, '=');
    char *out = text.data();
    size_t i = 0;
    for (; i + 3 <= n; i += 3, out += 4) {
        uint32_t v = (uint32_t(p[i]) << 16) | (uint32_t(p[i + 1]) << 8) |
                     uint32_t(p[i + 2]);
        out[0] = kAlphabet[(v >> 18) & 63];
        out[1] = kAlphabet[(v >> 12) & 63];
        out[2] = kAlphabet[(v >> 6) & 63];
        out[3] = kAlphabet[v & 63];
    }
    // A one- or two-byte tail fills two or three characters of the
    // last group; the rest keep their '=' padding.
    size_t rem = n - i;
    if (rem) {
        uint32_t v = uint32_t(p[i]) << 16;
        if (rem == 2)
            v |= uint32_t(p[i + 1]) << 8;
        out[0] = kAlphabet[(v >> 18) & 63];
        out[1] = kAlphabet[(v >> 12) & 63];
        if (rem == 2)
            out[2] = kAlphabet[(v >> 6) & 63];
    }
    return text;
}

bool
base64Decode(const std::string &text, void *out, size_t size)
{
    size_t n = text.size();
    if (n % 4 != 0)
        return false;
    // Padding is only legal as the last group's final one or two
    // characters.
    size_t pad = 0;
    if (n && text[n - 1] == '=')
        pad = text[n - 2] == '=' ? 2 : 1;
    if (n / 4 * 3 - pad != size)
        return false;
    const unsigned char *in =
        reinterpret_cast<const unsigned char *>(text.data());
    uint8_t *dst = static_cast<uint8_t *>(out);
    size_t full = pad ? n - 4 : n; // groups without padding
    for (size_t i = 0; i < full; i += 4, dst += 3) {
        int a = kDecode.value[in[i]], b = kDecode.value[in[i + 1]];
        int c = kDecode.value[in[i + 2]], d = kDecode.value[in[i + 3]];
        if ((a | b | c | d) < 0)
            return false;
        uint32_t v = (uint32_t(a) << 18) | (uint32_t(b) << 12) |
                     (uint32_t(c) << 6) | uint32_t(d);
        dst[0] = uint8_t(v >> 16);
        dst[1] = uint8_t(v >> 8);
        dst[2] = uint8_t(v);
    }
    if (pad) {
        int a = kDecode.value[in[n - 4]], b = kDecode.value[in[n - 3]];
        int c = pad == 1 ? kDecode.value[in[n - 2]] : 0;
        if ((a | b | c) < 0)
            return false;
        uint32_t v = (uint32_t(a) << 18) | (uint32_t(b) << 12) |
                     (uint32_t(c) << 6);
        dst[0] = uint8_t(v >> 16);
        if (pad == 1)
            dst[1] = uint8_t(v >> 8);
    }
    return true;
}

bool
base64Decode(const std::string &text, std::vector<uint8_t> &out)
{
    size_t n = text.size();
    size_t pad = n >= 4 ? (text[n - 1] == '=') + (text[n - 2] == '=') : 0;
    out.assign(n / 4 * 3 - pad, 0);
    return base64Decode(text, out.data(), out.size());
}

} // namespace chex
