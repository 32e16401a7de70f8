/**
 * @file
 * The pointer-alias (spilled-pointer reload) predictor of Figure 4:
 * a PC-indexed stride predictor over PIDs with 2-bit saturating
 * confidence counters, plus a blacklist of loads known to fetch data
 * values rather than spilled pointers. Exploits the temporal pointer
 * access patterns of Table II — constant, strided, batch, and
 * repeating PID sequences keyed by the *instruction* address.
 */

#ifndef CHEX_TRACKER_ALIAS_PREDICTOR_HH
#define CHEX_TRACKER_ALIAS_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "base/json.hh"
#include "cap/capability.hh"

namespace chex
{

/** Geometry of the alias predictor. */
struct AliasPredictorConfig
{
    unsigned entries = 512;          // main stride table
    unsigned blacklistEntries = 512; // non-reload filter
    uint8_t confidenceMax = 3;       // 2-bit counters
    uint8_t predictThreshold = 2;    // confidence needed to predict
};

/** The prediction issued at decode for one load. */
struct AliasPrediction
{
    bool isReload = false; // predicted to reload a spilled pointer
    Pid pid = NoPid;       // predicted PID when isReload
};

/** Misprediction classes of Section V-C / Figure 5. */
enum class AliasOutcome : uint8_t
{
    CorrectNone,   // predicted no reload, was no reload
    CorrectReload, // predicted right PID
    PNA0,          // predicted PID(N), actually untracked -> zero-idiom
    P0AN,          // missed a reload -> pipeline flush + re-inject
    PMAN,          // wrong PID -> forward the right one
};

/** Printable outcome name. */
const char *aliasOutcomeName(AliasOutcome outcome);

/** PC-indexed stride-over-PID predictor with blacklist. */
class AliasPredictor
{
  public:
    explicit AliasPredictor(const AliasPredictorConfig &cfg = {});

    /** Predict at decode for the load at @p pc. */
    AliasPrediction predict(uint64_t pc) const;

    /**
     * Train with the architecturally correct PID for the load at
     * @p pc (NoPid when the load fetched a non-pointer), and
     * classify the earlier prediction.
     */
    AliasOutcome update(uint64_t pc, const AliasPrediction &predicted,
                        Pid actual);

    /** @{ @name Statistics */
    uint64_t predictions() const { return numPredictions; }
    uint64_t correct() const { return numCorrect; }
    uint64_t mispredictions() const
    {
        return numPredictions - numCorrect;
    }
    double
    accuracy() const
    {
        return numPredictions
                   ? static_cast<double>(numCorrect) / numPredictions
                   : 1.0;
    }
    /**
     * Misprediction rate over *reload events* (loads whose actual or
     * predicted PID was nonzero), the denominator Figure 8 uses.
     */
    double reloadMispredictionRate() const;
    uint64_t outcomeCount(AliasOutcome outcome) const
    {
        return outcomes[static_cast<unsigned>(outcome)];
    }
    /** @} */

    void clear();

    const AliasPredictorConfig &config() const { return cfg; }

    /** @{ @name Snapshot serialization (chex-snapshot-v1)
     * Valid entries only, indexed; strides are emitted as their
     * two's-complement bit pattern so negative strides round-trip
     * exactly. Restore rejects a geometry mismatch; a refused
     * document leaves the predictor cleared. */
    template <class Self, class F>
    static void fields(Self &self, F &f);
    json::Value saveState() const { return json::write(*this); }
    bool
    restoreState(const json::Value &v, std::string *err = nullptr)
    {
        return json::read(v, *this, err) || (clear(), false);
    }
    /** @} */

  private:
    struct Entry
    {
        uint64_t tag = 0;
        Pid lastPid = NoPid;
        int64_t stride = 0;
        uint8_t confidence = 0;
        bool valid = false;
    };
    struct BlacklistEntry
    {
        uint64_t tag = 0;
        uint8_t confidence = 0;
        bool valid = false;
    };

    unsigned indexOf(uint64_t pc, unsigned size) const;

    AliasPredictorConfig cfg;
    std::vector<Entry> table;
    std::vector<BlacklistEntry> blacklist;

    uint64_t numPredictions = 0;
    uint64_t numCorrect = 0;
    uint64_t outcomes[5] = {};
};

} // namespace chex

#endif // CHEX_TRACKER_ALIAS_PREDICTOR_HH
