/**
 * @file
 * A small hierarchical statistics package in the spirit of gem5's.
 *
 * Modules own a StatGroup and register named scalars, formulas, and
 * histograms in it. Groups nest, so the simulator can dump one tree
 * (`system.cpu.commit.committedUops = ...`) and tests/benches can read
 * any value back by dotted path.
 */

#ifndef CHEX_BASE_STATS_HH
#define CHEX_BASE_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/json.hh"

namespace chex
{
namespace stats
{

/**
 * A named scalar counter. Counts are held as a uint64_t — every
 * producer in the simulator increments by whole events — and only
 * widened to double at dump/read time (value()). A double-backed
 * counter silently stops incrementing past 2^53 (adding 1.0 to
 * 9007199254740992.0 is a no-op), exactly the regime long
 * snapshot-fanned campaigns reach; the integer backing also keeps
 * the per-event increment off the FP unit on the fetch→retire hot
 * path.
 */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(uint64_t n) { _count += n; return *this; }
    Scalar &operator++() { ++_count; return *this; }
    void operator++(int) { ++_count; }
    Scalar &operator=(uint64_t n) { _count = n; return *this; }

    /** Exact integer count. */
    uint64_t count() const { return _count; }
    /** @{ Snapshot form (a json.hh adapter): the exact count. */
    json::Value write() const { return _count; }
    bool
    read(const json::Value &v, json::Error &err)
    {
        return json::readUint(v, UINT64_MAX, _count, err);
    }
    /** @} */
    /** Widened for formulas and JSON (may round past 2^53). */
    double value() const { return static_cast<double>(_count); }
    void reset() { _count = 0; }

  private:
    uint64_t _count = 0;
};

/**
 * A histogram over a fixed linear bucket range with underflow and
 * overflow buckets; also tracks sum/count for mean computation.
 */
class Histogram
{
  public:
    /**
     * @param min Lowest in-range value.
     * @param max Highest in-range value (inclusive).
     * @param num_buckets Number of linear buckets between min and max.
     */
    Histogram(double min = 0.0, double max = 1.0,
              size_t num_buckets = 16);

    /** Record one sample. */
    void sample(double v, uint64_t count = 1);

    uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double minSample() const { return _minSample; }
    double maxSample() const { return _maxSample; }

    const std::vector<uint64_t> &buckets() const { return _buckets; }
    uint64_t underflow() const { return _underflow; }
    uint64_t overflow() const { return _overflow; }
    double bucketLow(size_t i) const;
    double bucketHigh(size_t i) const;

    void reset();

  private:
    double _min;
    double _max;
    std::vector<uint64_t> _buckets;
    uint64_t _underflow = 0;
    uint64_t _overflow = 0;
    uint64_t _count = 0;
    double _sum = 0.0;
    double _minSample = 0.0;
    double _maxSample = 0.0;
};

/** A derived statistic evaluated lazily at dump/read time. */
using Formula = std::function<double()>;

/**
 * A named collection of statistics, possibly with child groups.
 * Groups do not own their children; the owning module does. All
 * registration methods return references that remain valid for the
 * life of the group (storage is node-stable).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Register a named scalar; panics on duplicate names. */
    Scalar &addScalar(const std::string &name,
                      const std::string &desc);

    /** Register a named formula (lazy derived value). */
    void addFormula(const std::string &name, const std::string &desc,
                    Formula f);

    /** Register a named histogram. */
    Histogram &addHistogram(const std::string &name,
                            const std::string &desc, double min,
                            double max, size_t num_buckets);

    /** Attach a child group (not owned). */
    void addChild(StatGroup *child);

    /**
     * Read a value by dotted path relative to this group, e.g.
     * "commit.committedUops". Panics if the path does not resolve.
     */
    double get(const std::string &dotted_path) const;

    /** True if the dotted path resolves to a scalar or formula. */
    bool has(const std::string &dotted_path) const;

    /** Reset every scalar and histogram in this subtree. */
    void resetAll();

    /** Dump the whole subtree as `prefix.name = value # desc`. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Build the subtree as a JSON object: scalars and formulas
     * become numbers, histograms become {count, sum, mean, min, max}
     * objects, child groups nest under their names.
     */
    json::Value toJson() const;

    /** toJson() pretty-printed to @p os (no trailing newline). */
    void dumpJson(std::ostream &os) const;

  private:
    struct ScalarEntry
    {
        std::unique_ptr<Scalar> stat;
        std::string desc;
    };
    struct FormulaEntry
    {
        Formula formula;
        std::string desc;
    };
    struct HistEntry
    {
        std::unique_ptr<Histogram> stat;
        std::string desc;
    };

    const Scalar *findScalar(const std::string &name) const;
    const FormulaEntry *findFormula(const std::string &name) const;

    std::string _name;
    std::map<std::string, ScalarEntry> scalars;
    std::map<std::string, FormulaEntry> formulas;
    std::map<std::string, HistEntry> histograms;
    std::vector<StatGroup *> children;
};

} // namespace stats
} // namespace chex

#endif // CHEX_BASE_STATS_HH
