#include "bpred.hh"

#include "base/logging.hh"

namespace chex
{

BranchPredictor::BranchPredictor(const BranchPredictorConfig &cfg_in)
    : cfg(cfg_in),
      bimodal(cfg.bimodalEntries, 1), // weakly not-taken
      tagged(cfg.taggedTables,
             std::vector<TaggedEntry>(cfg.taggedEntries)),
      btb(cfg.btbEntries),
      ras(cfg.rasEntries, 0),
      foldIdx(cfg.taggedTables, 0),
      foldTagA(cfg.taggedTables, 0),
      foldTagB(cfg.taggedTables, 0)
{
    while ((1u << taggedIdxBits) < cfg.taggedEntries)
        ++taggedIdxBits;
}

void
BranchPredictor::refreshFolds() const
{
    if (foldsValid)
        return;
    for (unsigned t = 0; t < cfg.taggedTables; ++t) {
        foldIdx[t] = foldedHistory(cfg.historyLengths[t], taggedIdxBits);
        foldTagA[t] = foldedHistory(cfg.historyLengths[t], cfg.tagBits);
        foldTagB[t] =
            foldedHistory(cfg.historyLengths[t], cfg.tagBits - 1);
    }
    foldsValid = true;
}

unsigned
BranchPredictor::bimodalIndex(uint64_t pc) const
{
    return static_cast<unsigned>((pc >> 2) % cfg.bimodalEntries);
}

uint64_t
BranchPredictor::foldedHistory(unsigned length, unsigned bits) const
{
    uint64_t h = history & ((length >= 64) ? ~0ull
                                           : ((1ull << length) - 1));
    uint64_t folded = 0;
    while (h) {
        folded ^= h & ((1ull << bits) - 1);
        h >>= bits;
    }
    return folded;
}

unsigned
BranchPredictor::taggedIndex(uint64_t pc, unsigned table) const
{
    refreshFolds();
    uint64_t idx = (pc >> 2) ^ (pc >> 11) ^ foldIdx[table];
    return static_cast<unsigned>(idx % cfg.taggedEntries);
}

uint16_t
BranchPredictor::taggedTag(uint64_t pc, unsigned table) const
{
    refreshFolds();
    uint64_t tag = (pc >> 2) ^ foldTagA[table] ^ (foldTagB[table] << 1);
    return static_cast<uint16_t>(tag & ((1u << cfg.tagBits) - 1));
}

bool
BranchPredictor::predictDirection(uint64_t pc, int *provider,
                                  unsigned *provider_index) const
{
    *provider = -1;
    for (int t = static_cast<int>(cfg.taggedTables) - 1; t >= 0; --t) {
        unsigned idx = taggedIndex(pc, t);
        const TaggedEntry &e = tagged[t][idx];
        if (e.valid && e.tag == taggedTag(pc, t)) {
            *provider = t;
            *provider_index = idx;
            return e.ctr >= 0;
        }
    }
    return bimodal[bimodalIndex(pc)] >= 2;
}

BranchPrediction
BranchPredictor::predict(uint64_t pc, bool is_call, bool is_return,
                         bool is_unconditional, uint64_t fallthrough)
{
    ++numLookups;
    BranchPrediction pred;

    if (is_return) {
        pred.taken = true;
        if (rasTop > 0) {
            pred.target = ras[(rasTop - 1) % cfg.rasEntries];
            pred.targetKnown = true;
            --rasTop;
        }
        return pred;
    }

    if (is_unconditional || is_call) {
        pred.taken = true;
    } else {
        int provider;
        unsigned provider_index;
        pred.taken = predictDirection(pc, &provider, &provider_index);
    }

    if (pred.taken) {
        const BtbEntry &e = btb[(pc >> 2) % cfg.btbEntries];
        if (e.valid && e.tag == pc) {
            pred.target = e.target;
            pred.targetKnown = true;
        }
    }

    if (is_call) {
        ras[rasTop % cfg.rasEntries] = fallthrough;
        ++rasTop;
    }
    return pred;
}

void
BranchPredictor::update(uint64_t pc, bool taken, uint64_t target,
                        bool is_conditional)
{
    if (is_conditional) {
        int provider;
        unsigned provider_index = 0;
        bool predicted = predictDirection(pc, &provider,
                                          &provider_index);
        bool wrong = predicted != taken;
        if (wrong)
            ++numDirWrong;

        // Update the provider (or the bimodal base).
        if (provider >= 0) {
            TaggedEntry &e = tagged[provider][provider_index];
            if (taken && e.ctr < 3)
                ++e.ctr;
            else if (!taken && e.ctr > -4)
                --e.ctr;
            if (!wrong && e.useful < 3)
                ++e.useful;
        } else {
            uint8_t &c = bimodal[bimodalIndex(pc)];
            if (taken && c < 3)
                ++c;
            else if (!taken && c > 0)
                --c;
        }

        // Allocate a longer-history entry on a misprediction.
        if (wrong) {
            unsigned start =
                provider >= 0 ? static_cast<unsigned>(provider) + 1 : 0;
            for (unsigned t = start; t < cfg.taggedTables; ++t) {
                unsigned idx = taggedIndex(pc, t);
                TaggedEntry &e = tagged[t][idx];
                if (!e.valid || e.useful == 0) {
                    e.valid = true;
                    e.tag = taggedTag(pc, t);
                    e.ctr = taken ? 0 : -1;
                    e.useful = 0;
                    break;
                }
                if (e.useful > 0)
                    --e.useful;
            }
        }

        history = (history << 1) | (taken ? 1 : 0);
        foldsValid = false;
    }

    if (taken) {
        BtbEntry &e = btb[(pc >> 2) % cfg.btbEntries];
        if (!e.valid || e.tag != pc || e.target != target) {
            if (e.valid && e.tag == pc && e.target != target)
                ++numTargetWrong;
            e.valid = true;
            e.tag = pc;
            e.target = target;
        }
    }
}

template <class Self, class F>
void
BranchPredictor::fields(Self &self, F &f)
{
    f("bimodalEntries", json::Match{self.cfg.bimodalEntries});
    f("taggedTables", json::Match{self.cfg.taggedTables});
    f("taggedEntries", json::Match{self.cfg.taggedEntries});
    f("btbEntries", json::Match{self.cfg.btbEntries});
    f("rasEntries", json::Match{self.cfg.rasEntries});
    f("bimodal", json::Base64{self.bimodal});
    f("tagged", json::Slots{self.tagged, [](auto &e, auto &g) {
          g("tag", e.tag);
          g("ctr", e.ctr);
          g("useful", e.useful);
      }});
    f("btb", json::Slots{self.btb, [](auto &e, auto &g) {
          g("tag", e.tag);
          g("target", e.target);
      }});
    f("ras", json::Sized{self.ras});
    f("rasTop", self.rasTop);
    f("history", self.history);
    f("numLookups", self.numLookups);
    f("numDirWrong", self.numDirWrong);
    f("numTargetWrong", self.numTargetWrong);
    if constexpr (F::reading)
        self.foldsValid = false;
}

CHEX_JSON_FIELDS(BranchPredictor);

} // namespace chex
