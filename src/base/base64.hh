/**
 * @file
 * Standard (RFC 4648) base64 with padding, used by the snapshot
 * subsystem to embed bulk binary state — sparse-memory pages, the
 * bimodal predictor table, resource-calendar occupancy — in the
 * JSON checkpoint without a 4-8x textual blow-up.
 */

#ifndef CHEX_BASE_BASE64_HH
#define CHEX_BASE_BASE64_HH

#include <cstdint>
#include <string>
#include <vector>

namespace chex
{

/** Encode @p n bytes at @p data as padded base64. */
std::string base64Encode(const void *data, size_t n);

inline std::string
base64Encode(const std::vector<uint8_t> &data)
{
    return base64Encode(data.data(), data.size());
}

/**
 * Decode padded base64 into @p out (replacing its contents).
 * Returns false — leaving @p out unspecified — on any malformed
 * input: bad characters, bad length, or misplaced padding.
 */
bool base64Decode(const std::string &text, std::vector<uint8_t> &out);

/**
 * Decode padded base64 into exactly @p size bytes at @p out: false
 * (leaving @p out unspecified) on malformed input or any other
 * decoded length.
 */
bool base64Decode(const std::string &text, void *out, size_t size);

} // namespace chex

#endif // CHEX_BASE_BASE64_HH
