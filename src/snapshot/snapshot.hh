/**
 * @file
 * The checkpoint/restore subsystem: warm a simulated System to a
 * chosen macro-op count, capture its complete machine state as a
 * `chex-snapshot-v1` document (System::saveSnapshot), and bundle one
 * such machine entry per campaign job point into a self-describing
 * snapshot-bundle file.
 *
 * A bundle holds one entry per (profile, variant, config, seed)
 * point — warm-up state is variant-dependent (different variants
 * inject different micro-ops and touch different shadow structures),
 * so a shared warm-up checkpoint could not be bit-identical for all
 * of them. Entries are keyed by a caller-provided `specKey` (the
 * campaign driver passes its canonical spec hash), which keeps this
 * library independent of the driver while letting the driver match
 * bundle entries to jobs exactly.
 *
 * Determinism contract: restoring an entry into a System built from
 * the same SystemConfig and loaded with the same regenerated program
 * (the snapshot pins both by content hash) and running to completion
 * yields bit-identical results to the uninterrupted run. The
 * per-entry `stateHash` (jsonStateHash, snapshot/codec.hh)
 * additionally pins the saved state, so a corrupted or hand-edited
 * bundle is rejected at load. A v2 bundle differs from a v1 bundle
 * only in that digest's definition; a v1 bundle is refused at its
 * `format` member.
 */

#ifndef CHEX_SNAPSHOT_SNAPSHOT_HH
#define CHEX_SNAPSHOT_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.hh"
#include "sim/system.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace snapshot
{

/** Bundle-file schema tag (the machine states inside carry their
 * own `chex-snapshot-v1` format tag). */
constexpr const char *BundleFormatTag = "chex-snapshot-bundle-v2";

/** One warmed machine state: a System paused mid-run. */
struct MachineEntry
{
    std::string profileName;  // workload profile the state came from
    std::string variant;      // variantName() token
    uint64_t seed = 0;        // workload seed the program was built with
    uint64_t specKey = 0;     // caller identity (driver spec hash)
    uint64_t warmupMacros = 0; // macro-ops executed before the pause
    uint64_t stateHash = 0;   // jsonStateHash(state)
    json::Value state;        // chex-snapshot-v1 machine document
};

/** A set of warmed machine states sharing one campaign identity. */
struct Bundle
{
    uint64_t campaignSeed = 0;  // seed the entry seeds derive from
    uint64_t warmupMacros = 0;  // requested warm-up length
    std::vector<MachineEntry> entries;

    /** Entry with the given spec key; nullptr when absent. */
    const MachineEntry *findBySpecKey(uint64_t key) const;
};

/**
 * Warm one machine: build a System from @p config, load the
 * deterministically regenerated workload (profile, seed), run
 * @p warmup_macros macro-ops, and capture the paused state.
 * Fails (returning false with @p err set) when the run terminates
 * before reaching the warm-up point — a checkpoint of a finished
 * run fans out nothing — or when the config is not snapshottable.
 */
bool buildEntry(const BenchmarkProfile &profile,
                const SystemConfig &config, uint64_t seed,
                uint64_t warmup_macros, uint64_t spec_key,
                MachineEntry *out, std::string *err = nullptr);

/**
 * Restore @p entry into @p sys, a fresh System: the workload program
 * is regenerated from (profile, seed) and the saved machine state
 * applied on top. Returns false with @p err set on any mismatch,
 * including a System built from a different config (see
 * System::restoreSnapshot).
 */
bool restoreEntry(const MachineEntry &entry,
                  const BenchmarkProfile &profile, System *sys,
                  std::string *err = nullptr);

/** @{ @name Bundle (de)serialization
 * fromJson verifies the bundle format tag and every entry's
 * stateHash against its parsed state, so a truncated or edited
 * bundle fails loudly instead of restoring subtly wrong state. */
json::Value toJson(const Bundle &bundle);
bool fromJson(const json::Value &v, Bundle *out,
              std::string *err = nullptr);
/** @} */

/** @{ @name Bundle files (pretty-printed JSON) */
bool writeBundleFile(const std::string &path, const Bundle &bundle,
                     std::string *err = nullptr);
bool loadBundleFile(const std::string &path, Bundle *out,
                    std::string *err = nullptr);
/** @} */

} // namespace snapshot
} // namespace chex

#endif // CHEX_SNAPSHOT_SNAPSHOT_HH
