/**
 * @file
 * A generic key-based set-associative cache model with LRU
 * replacement. The same structure models the L1 instruction/data
 * caches and L2 (key = line address), the in-processor capability
 * cache (key = PID), the alias cache (key = word address), and — with
 * one set — any fully associative structure including victim caches.
 *
 * These are *presence* models: they track which keys are resident to
 * produce hit/miss timing and traffic, not data contents (contents
 * live in SparseMemory / shadow tables).
 */

#ifndef CHEX_MEM_CACHE_HH
#define CHEX_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/stats.hh"

namespace chex
{

/** Set-associative LRU cache over opaque 64-bit keys. */
class SetAssocCache
{
  public:
    /**
     * @param name Stat-group name.
     * @param num_sets Number of sets (1 = fully associative).
     * @param ways Associativity.
     */
    SetAssocCache(const std::string &name, unsigned num_sets,
                  unsigned ways);

    /**
     * Look up @p key, updating recency and hit/miss statistics.
     * @return true on hit.
     */
    bool access(uint64_t key);

    /** Look up without recording statistics or recency. */
    bool probe(uint64_t key) const;

    /**
     * Insert @p key (no-op if already present).
     * @return the evicted key, if the insertion displaced one.
     */
    std::optional<uint64_t> insert(uint64_t key);

    /** Remove @p key if present. @return true if it was resident. */
    bool invalidate(uint64_t key);

    /** Drop all entries (keeps statistics). */
    void clear();

    /** Number of resident entries. */
    unsigned occupancy() const;

    unsigned numSets() const { return _numSets; }
    unsigned ways() const { return _ways; }
    unsigned capacity() const { return _numSets * _ways; }

    uint64_t hits() const { return _hits.count(); }
    uint64_t misses() const { return _misses.count(); }
    uint64_t accesses() const { return hits() + misses(); }
    double
    missRate() const
    {
        uint64_t a = accesses();
        return a ? static_cast<double>(misses()) / a : 0.0;
    }

    stats::StatGroup &statGroup() { return _stats; }

    /** @{ @name Snapshot serialization (chex-snapshot-v1)
     * Valid entries only, each with its flat array index — insert()
     * prefers the first invalid slot in way order, so which slots
     * are valid (not just which keys are resident) is timing state.
     * Restore rejects a geometry mismatch. */
    template <class Self, class F>
    static void fields(Self &self, F &f);
    /** @} */

  private:
    struct Entry
    {
        uint64_t key = 0;
        bool valid = false;
        uint64_t lastUse = 0;
    };

    unsigned setIndex(uint64_t key) const;

    unsigned _numSets;
    unsigned _ways;
    // Fast set-index path: when numSets is a power of two the modulo
    // in setIndex() reduces to this mask (bit-identical mapping);
    // zero means "not a power of two, use the divide".
    unsigned _setMask = 0;
    std::vector<Entry> entries; // numSets * ways
    uint64_t useCounter = 0;

    stats::StatGroup _stats;
    stats::Scalar &_hits;
    stats::Scalar &_misses;
    stats::Scalar &_evictions;
    stats::Scalar &_invalidations;
};

/**
 * A cache augmented with a small fully associative victim cache, as
 * used for the alias cache (256-entry 2-way + 32-entry victim,
 * Section V-C). Evictions from the main array fall into the victim;
 * a victim hit swaps the key back into the main array.
 */
class VictimAugmentedCache
{
  public:
    VictimAugmentedCache(const std::string &name, unsigned num_sets,
                         unsigned ways, unsigned victim_entries);

    /** Look up in main then victim; promotes victim hits. */
    bool access(uint64_t key);

    /** Insert into the main array; spill eviction into the victim. */
    void insert(uint64_t key);

    /** Invalidate from both arrays. */
    bool invalidate(uint64_t key);

    void clear();

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    uint64_t victimHits() const { return _victimHits; }
    uint64_t accesses() const { return _hits + _misses; }
    double
    missRate() const
    {
        uint64_t a = accesses();
        return a ? static_cast<double>(_misses) / a : 0.0;
    }

    SetAssocCache &main() { return _main; }
    SetAssocCache &victim() { return _victim; }

    /** @{ @name Snapshot serialization (chex-snapshot-v1) */
    template <class Self, class F>
    static void fields(Self &self, F &f);
    /** @} */

  private:
    SetAssocCache _main;
    SetAssocCache _victim;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    uint64_t _victimHits = 0;
};

} // namespace chex

#endif // CHEX_MEM_CACHE_HH
