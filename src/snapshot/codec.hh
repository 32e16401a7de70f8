/**
 * @file
 * Small codec helpers for the snapshot subsystem: a canonical
 * content hash over JSON state documents (what pins a restored
 * machine to the exact state that was saved) and whole-file
 * text I/O with caller-visible error strings.
 */

#ifndef CHEX_SNAPSHOT_CODEC_HH
#define CHEX_SNAPSHOT_CODEC_HH

#include <cstdint>
#include <string>

#include "base/json.hh"

namespace chex
{
namespace snapshot
{

/**
 * Canonical content hash of a JSON document, from one walk of the
 * tree that builds no text. Every node goes into a WordHasher
 * (base/fnv.hh) as a header word, its kind in the low byte and a
 * size above, then its payload:
 *   - null: size 0; bool: size 0 or 1;
 *   - number: the token write() prints, its length as the size,
 *     then its bytes; a NaN or infinity prints as null and so
 *     digests as null;
 *   - string: its length, then its bytes;
 *   - array: its item count, then each item;
 *   - object: its member count, then each key (as a string) and
 *     value, in order.
 * A document therefore digests the same after write() and parse()
 * (an integral double and the exact uint it parses back as print
 * the same token), objects keep their insertion order, and changing
 * any one leaf, key or order changes the digest. Never returns 0.
 */
uint64_t jsonStateHash(const json::Value &v);

/**
 * Read a whole file into @p out, in one read into a string of the
 * file's size (a pipe is read to its end). Returns false and fills
 * @p err (if non-null) when the file cannot be opened or read.
 */
bool readTextFile(const std::string &path, std::string *out,
                  std::string *err = nullptr);

/** Write @p text to @p path, replacing any existing content. */
bool writeTextFile(const std::string &path, const std::string &text,
                   std::string *err = nullptr);

} // namespace snapshot
} // namespace chex

#endif // CHEX_SNAPSHOT_CODEC_HH
