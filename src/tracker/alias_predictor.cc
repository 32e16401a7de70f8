#include "alias_predictor.hh"

#include "base/logging.hh"
#include "isa/insts.hh"

namespace chex
{

const char *
aliasOutcomeName(AliasOutcome outcome)
{
    switch (outcome) {
      case AliasOutcome::CorrectNone: return "correct-none";
      case AliasOutcome::CorrectReload: return "correct-reload";
      case AliasOutcome::PNA0: return "PNA0";
      case AliasOutcome::P0AN: return "P0AN";
      case AliasOutcome::PMAN: return "PMAN";
      default: return "???";
    }
}

AliasPredictor::AliasPredictor(const AliasPredictorConfig &cfg_in)
    : cfg(cfg_in),
      table(cfg.entries),
      blacklist(cfg.blacklistEntries)
{
    chex_assert(cfg.entries > 0 && cfg.blacklistEntries > 0,
                "bad predictor geometry");
}

unsigned
AliasPredictor::indexOf(uint64_t pc, unsigned size) const
{
    uint64_t word = pc / InstSlotBytes;
    // Multiplicative hash spreads loop bodies across the table.
    return static_cast<unsigned>((word * 0x9e3779b97f4a7c15ull) >> 32) %
           size;
}

AliasPrediction
AliasPredictor::predict(uint64_t pc) const
{
    AliasPrediction pred;

    const BlacklistEntry &bl = blacklist[indexOf(pc, cfg.blacklistEntries)];
    if (bl.valid && bl.tag == pc && bl.confidence >= cfg.predictThreshold)
        return pred; // confidently a data load

    // A matching entry always predicts a reload: even when the
    // stride confidence is low, predicting *some* PID turns a
    // would-be P0AN pipeline flush into a cheap PMAN forward
    // (Figure 5e). Low confidence just falls back to the last PID.
    const Entry &e = table[indexOf(pc, cfg.entries)];
    if (e.valid && e.tag == pc) {
        pred.isReload = true;
        pred.pid = e.confidence >= cfg.predictThreshold
                       ? static_cast<Pid>(
                             static_cast<int64_t>(e.lastPid) + e.stride)
                       : e.lastPid;
    }
    return pred;
}

AliasOutcome
AliasPredictor::update(uint64_t pc, const AliasPrediction &predicted,
                       Pid actual)
{
    ++numPredictions;

    // Classify.
    AliasOutcome outcome;
    if (!predicted.isReload && actual == NoPid)
        outcome = AliasOutcome::CorrectNone;
    else if (predicted.isReload && predicted.pid == actual)
        outcome = AliasOutcome::CorrectReload;
    else if (predicted.isReload && actual == NoPid)
        outcome = AliasOutcome::PNA0;
    else if (!predicted.isReload)
        outcome = AliasOutcome::P0AN;
    else
        outcome = AliasOutcome::PMAN;

    if (outcome == AliasOutcome::CorrectNone ||
        outcome == AliasOutcome::CorrectReload)
        ++numCorrect;
    ++outcomes[static_cast<unsigned>(outcome)];

    // Train the blacklist.
    BlacklistEntry &bl = blacklist[indexOf(pc, cfg.blacklistEntries)];
    if (actual == NoPid) {
        if (bl.valid && bl.tag == pc) {
            if (bl.confidence < cfg.confidenceMax)
                ++bl.confidence;
        } else if (!bl.valid || bl.confidence == 0) {
            bl.valid = true;
            bl.tag = pc;
            bl.confidence = 1;
        } else {
            --bl.confidence; // aging of the resident entry
        }
    } else if (bl.valid && bl.tag == pc) {
        if (bl.confidence > 0)
            --bl.confidence;
        else
            bl.valid = false;
    }

    // Train the stride table.
    Entry &e = table[indexOf(pc, cfg.entries)];
    if (actual != NoPid) {
        if (!e.valid || e.tag != pc) {
            e.valid = true;
            e.tag = pc;
            e.lastPid = actual;
            e.stride = 0;
            e.confidence = 1;
        } else {
            int64_t observed = static_cast<int64_t>(actual) -
                               static_cast<int64_t>(e.lastPid);
            if (observed == e.stride) {
                if (e.confidence < cfg.confidenceMax)
                    ++e.confidence;
            } else if (e.confidence > 0) {
                --e.confidence;
            } else {
                e.stride = observed;
                e.confidence = 1;
            }
            e.lastPid = actual;
        }
    } else if (e.valid && e.tag == pc && e.confidence > 0) {
        --e.confidence;
    }

    return outcome;
}

double
AliasPredictor::reloadMispredictionRate() const
{
    uint64_t reload_events =
        outcomes[static_cast<unsigned>(AliasOutcome::CorrectReload)] +
        outcomes[static_cast<unsigned>(AliasOutcome::PNA0)] +
        outcomes[static_cast<unsigned>(AliasOutcome::P0AN)] +
        outcomes[static_cast<unsigned>(AliasOutcome::PMAN)];
    if (reload_events == 0)
        return 0.0;
    uint64_t wrong =
        outcomes[static_cast<unsigned>(AliasOutcome::PNA0)] +
        outcomes[static_cast<unsigned>(AliasOutcome::P0AN)] +
        outcomes[static_cast<unsigned>(AliasOutcome::PMAN)];
    return static_cast<double>(wrong) / reload_events;
}

void
AliasPredictor::clear()
{
    for (auto &e : table)
        e = Entry{};
    for (auto &bl : blacklist)
        bl = BlacklistEntry{};
    numPredictions = 0;
    numCorrect = 0;
    for (auto &o : outcomes)
        o = 0;
}

namespace
{

/** A stride as its two's-complement bit pattern. */
json::Value
saveStride(int64_t stride)
{
    return static_cast<uint64_t>(stride);
}

bool
restoreStride(int64_t &stride, const json::Value &v, json::Error &err)
{
    uint64_t bits = 0;
    bool ok = json::readUint(v, UINT64_MAX, bits, err);
    stride = static_cast<int64_t>(bits);
    return ok;
}

} // namespace

template <class Self, class F>
void
AliasPredictor::fields(Self &self, F &f)
{
    // A confidence past the saturating maximum or a repeated slot
    // cannot have come from a save; accepting either would bake
    // state the training logic can never reach into the machine.
    uint64_t over = uint64_t{self.cfg.confidenceMax} + 1;
    f("entries", json::Match{self.cfg.entries});
    f("blacklistEntries", json::Match{self.cfg.blacklistEntries});
    f("table", json::Slots{self.table, [over](auto &e, auto &g) {
          g("tag", e.tag);
          g("lastPid", e.lastPid);
          g("stride", json::Custom{e.stride, saveStride, restoreStride});
          g("confidence", json::Below{e.confidence, over});
      }});
    f("blacklist", json::Slots{self.blacklist, [over](auto &e, auto &g) {
          g("tag", e.tag);
          g("confidence", json::Below{e.confidence, over});
      }});
    f("numPredictions", self.numPredictions);
    f("numCorrect", self.numCorrect);
    f("outcomes", self.outcomes);
}

CHEX_JSON_FIELDS(AliasPredictor);

} // namespace chex
