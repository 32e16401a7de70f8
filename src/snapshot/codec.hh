/**
 * @file
 * Small codec helpers for the snapshot subsystem: a canonical
 * content hash over JSON state documents (what pins a restored
 * machine to the exact bytes that were saved) and whole-file
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
 * Canonical content hash of a JSON document: the FNV-1a digest of
 * its compact (indent-0) serialization. Objects preserve insertion
 * order in this JSON layer, so save → hash → write → parse → hash
 * is stable, and any single-bit change to the serialized state
 * changes the digest. Never returns 0.
 */
uint64_t jsonStateHash(const json::Value &v);

/**
 * Read a whole file into @p out. Returns false and fills @p err
 * (if non-null) when the file cannot be opened or read.
 */
bool readTextFile(const std::string &path, std::string *out,
                  std::string *err = nullptr);

/** Write @p text to @p path, replacing any existing content. */
bool writeTextFile(const std::string &path, const std::string &text,
                   std::string *err = nullptr);

} // namespace snapshot
} // namespace chex

#endif // CHEX_SNAPSHOT_CODEC_HH
