#include "core.hh"

#include <algorithm>

#include "base/logging.hh"

namespace chex
{

Core::Core(const CoreConfig &cfg_in, MemoryHierarchy &hierarchy)
    : cfg(cfg_in),
      hier(hierarchy),
      bpred(cfg.bpred),
      issueCal(cfg.issueWidth),
      commitCal(cfg.commitWidth),
      intAlu(cfg.intAluUnits),
      intMult(cfg.intMultUnits),
      fpAlu(cfg.fpAluUnits),
      simd(cfg.simdUnits),
      loadPort(cfg.loadPorts),
      storePort(cfg.storePorts),
      capUnit(cfg.capUnits),
      rob(cfg.robEntries),
      iq(cfg.iqEntries),
      lq(cfg.lqEntries),
      sq(cfg.sqEntries),
      intRegWindow(cfg.intRegs),
      fpRegWindow(cfg.fpRegs)
{
}

unsigned
Core::uopLatency(const StaticUop &uop) const
{
    switch (uop.type) {
      case UopType::Nop: return 1;
      case UopType::IntAlu: return 1;
      case UopType::IntMult: return 3;
      case UopType::IntDiv: return 20;
      case UopType::FpAlu: return 4;
      case UopType::FpMult: return 4;
      case UopType::FpDiv: return 13;
      case UopType::Lea: return 1;
      case UopType::LoadImm: return 1;
      case UopType::Load: return 1;   // + cache latency
      case UopType::Store: return 1;
      case UopType::Branch: return 1;
      case UopType::CapGenBegin: return 2;
      case UopType::CapGenEnd: return 2;
      case UopType::CapCheck: return 1; // + capability-cache latency
      case UopType::CapFreeBegin: return 2;
      case UopType::CapFreeEnd: return 2;
      default: return 1;
    }
}

ResourceCalendar &
Core::fuFor(const StaticUop &uop)
{
    switch (uop.type) {
      case UopType::IntMult:
      case UopType::IntDiv:
        return intMult;
      case UopType::FpAlu:
        return fpAlu;
      case UopType::FpMult:
      case UopType::FpDiv:
        return simd;
      case UopType::Load:
        return loadPort;
      case UopType::Store:
        return storePort;
      case UopType::CapGenBegin:
      case UopType::CapGenEnd:
      case UopType::CapCheck:
      case UopType::CapFreeBegin:
      case UopType::CapFreeEnd:
        return capUnit;
      default:
        return intAlu;
    }
}

void
Core::beginMacro(uint64_t pc, DecodePath path,
                 const MacroBranchInfo &branch)
{
    ++numMacros;
    curPc = pc;
    curBranch = branch;
    branchUopComplete = 0;

    // Fetch bandwidth: fetchWidth macro-ops per cycle.
    if (fetchCycle < fetchAvail) {
        fetchCycle = fetchAvail;
        macrosThisCycle = 0;
    }
    if (macrosThisCycle >= cfg.fetchWidth) {
        ++fetchCycle;
        macrosThisCycle = 0;
    }
    ++macrosThisCycle;

    // Instruction-cache effects on fetch-line transitions.
    uint64_t line = pc / hier.config().lineBytes;
    if (line != lastFetchLine) {
        lastFetchLine = line;
        unsigned lat = hier.fetchAccess(pc);
        if (lat > hier.config().l1Latency) {
            fetchCycle += lat - hier.config().l1Latency;
            macrosThisCycle = 1;
        }
    }

    // Engaging the microcode sequencer stalls the simple decoders.
    if (path == DecodePath::Msrom) {
        fetchCycle += cfg.msromSwitchPenalty;
        macrosThisCycle = 1;
    }

    // Branch prediction happens at fetch.
    if (branch.isBranch) {
        curPrediction =
            bpred.predict(pc, branch.isCall, branch.isReturn,
                          branch.isUncondDirect, branch.fallthrough);
    }
}

uint64_t
Core::addUop(const UopTimingIn &in)
{
    const StaticUop &uop = *in.uop;
    ++numUops;

    uint64_t dispatch = fetchCycle + cfg.frontendDepth;
    dispatch = std::max(dispatch, rob.allocBound());
    dispatch = std::max(dispatch, iq.allocBound());
    bool is_load = uop.isLoad();
    bool is_store = uop.isStore();
    if (is_load)
        dispatch = std::max(dispatch, lq.allocBound());
    if (is_store)
        dispatch = std::max(dispatch, sq.allocBound());
    bool writes_int = uop.dst != REG_NONE && !isFpReg(uop.dst);
    bool writes_fp = uop.dst != REG_NONE && isFpReg(uop.dst);
    if (writes_int)
        dispatch = std::max(dispatch, intRegWindow.allocBound());
    if (writes_fp)
        dispatch = std::max(dispatch, fpRegWindow.allocBound());
    // Backpressure: when dispatch stalls on a full ROB/IQ/LQ/SQ or
    // exhausted physical registers, the front end stalls with it —
    // fetch cannot run further ahead of the machine than the
    // in-flight window allows.
    if (dispatch > fetchCycle + cfg.frontendDepth)
        fetchCycle = dispatch - cfg.frontendDepth;

    uint64_t complete;
    uint64_t issue = dispatch;
    if (in.zeroIdiom) {
        // Squashed at the instruction queue before dispatch to a
        // functional unit (x86 zero-idiom treatment of PNA0 checks).
        ++_zeroIdioms;
        complete = dispatch + 1;
    } else {
        // Operand readiness.
        uint64_t ready = dispatch + 1;
        auto need = [&](RegId r) {
            if (r != REG_NONE && r < NumArchRegs)
                ready = std::max(ready, regReady[r]);
        };
        need(uop.src1);
        if (!uop.useImm)
            need(uop.src2);
        if (uop.hasMem) {
            if (uop.mem.hasBase())
                need(uop.mem.base);
            if (uop.mem.hasIndex())
                need(uop.mem.index);
        }

        issue = issueCal.reserve(ready);
        issue = fuFor(uop).reserve(issue);

        unsigned lat = uopLatency(uop) + in.extraLatency;
        complete = issue + lat;

        if (is_load) {
            const uint64_t *fwd = storeForward.lookup(in.effAddr >> 3);
            if (fwd && *fwd + 256 > issue) {
                // Store-to-load forwarding out of the store queue.
                complete = std::max(issue + 2, *fwd + 1);
            } else {
                complete = issue + lat +
                           hier.dataAccess(in.effAddr, false) - 1;
            }
        } else if (is_store) {
            // Data is forwardable once the store executes; the cache
            // write is post-commit and charged for traffic only.
            storeForward.insert(in.effAddr >> 3, complete);
            if (storeForward.size() > 8192)
                storeForward.clear();
            hier.dataAccess(in.effAddr, true);
        }
    }

    if (uop.dst != REG_NONE && uop.dst < NumArchRegs)
        regReady[uop.dst] = complete;

    // In-order commit.
    uint64_t commit = commitCal.reserve(
        std::max(complete + 1, lastCommitCycle));
    lastCommitCycle = commit;
    maxCommitCycle = std::max(maxCommitCycle, commit);

    // Structure release bookkeeping.
    rob.push(commit);
    iq.push(in.zeroIdiom ? dispatch + 1 : issue + 1);
    if (is_load)
        lq.push(commit);
    if (is_store)
        sq.push(commit);
    if (writes_int)
        intRegWindow.push(commit);
    if (writes_fp)
        fpRegWindow.push(commit);

    if (uop.isBranch())
        branchUopComplete = complete;

    return complete;
}

void
Core::redirect(uint64_t resolve_cycle, uint64_t *squash_bucket)
{
    uint64_t new_avail = resolve_cycle + cfg.redirectPenalty;
    uint64_t frontier = std::max(fetchCycle, fetchAvail);
    if (new_avail > frontier) {
        *squash_bucket += new_avail - frontier;
        fetchAvail = new_avail;
    }
}

void
Core::endMacro(bool taken, uint64_t target)
{
    if (!curBranch.isBranch)
        return;

    bool mispredicted =
        curPrediction.taken != taken ||
        (taken && (!curPrediction.targetKnown ||
                   curPrediction.target != target));

    bpred.update(curPc, taken, target, curBranch.isConditional);

    if (mispredicted) {
        ++_branchMispredicts;
        redirect(branchUopComplete, &_squashBranch);
    } else if (taken) {
        // A correctly predicted taken branch still ends the current
        // fetch group.
        macrosThisCycle = cfg.fetchWidth;
    }
}

void
Core::chargeAliasFlush(uint64_t at_cycle)
{
    redirect(at_cycle, &_squashAlias);
}

void
Core::stallFetch(uint64_t cycles)
{
    uint64_t frontier = std::max(fetchCycle, fetchAvail);
    fetchAvail = frontier + cycles;
}

namespace
{

/** The store-forwarding map as [word, ready] pairs sorted by word. */
json::Value
saveForwards(const StoreForwardTable &table)
{
    std::vector<std::pair<uint64_t, uint64_t>> fwd;
    fwd.reserve(table.size());
    table.forEach([&](uint64_t word, uint64_t ready) {
        fwd.emplace_back(word, ready);
    });
    std::sort(fwd.begin(), fwd.end());
    return json::write(fwd);
}

bool
restoreForwards(StoreForwardTable &table, const json::Value &v,
                json::Error &err)
{
    table.clear();
    return json::readPairs<uint64_t, uint64_t>(
        v, err, [&](uint64_t word, uint64_t ready) {
            table.insert(word, ready);
        });
}

} // namespace

template <class Self, class F>
void
Core::fields(Self &self, F &f)
{
    f("bpred", self.bpred);
    f("fetchCycle", self.fetchCycle);
    f("fetchAvail", self.fetchAvail);
    f("macrosThisCycle", self.macrosThisCycle);
    f("lastFetchLine", self.lastFetchLine);
    f("issueCal", self.issueCal);
    f("commitCal", self.commitCal);
    f("intAlu", self.intAlu);
    f("intMult", self.intMult);
    f("fpAlu", self.fpAlu);
    f("simd", self.simd);
    f("loadPort", self.loadPort);
    f("storePort", self.storePort);
    f("capUnit", self.capUnit);
    f("rob", self.rob);
    f("iq", self.iq);
    f("lq", self.lq);
    f("sq", self.sq);
    f("intRegWindow", self.intRegWindow);
    f("fpRegWindow", self.fpRegWindow);
    f("regReady", self.regReady);
    f("storeForward",
      json::Custom{self.storeForward, saveForwards, restoreForwards});
    f("curPc", self.curPc);
    f("curBranch", json::Group{self.curBranch, [](auto &b, auto &g) {
          g("isBranch", b.isBranch);
          g("isCall", b.isCall);
          g("isReturn", b.isReturn);
          g("isUncondDirect", b.isUncondDirect);
          g("isConditional", b.isConditional);
          g("isIndirect", b.isIndirect);
          g("fallthrough", b.fallthrough);
      }});
    f("curPrediction", json::Group{self.curPrediction, [](auto &p, auto &g) {
          g("taken", p.taken);
          g("target", p.target);
          g("targetKnown", p.targetKnown);
      }});
    f("branchUopComplete", self.branchUopComplete);
    f("lastCommitCycle", self.lastCommitCycle);
    f("maxCommitCycle", self.maxCommitCycle);
    f("numUops", self.numUops);
    f("numMacros", self.numMacros);
    f("squashBranch", self._squashBranch);
    f("squashAlias", self._squashAlias);
    f("branchMispredicts", self._branchMispredicts);
    f("zeroIdioms", self._zeroIdioms);
}

CHEX_JSON_FIELDS(Core);

} // namespace chex
