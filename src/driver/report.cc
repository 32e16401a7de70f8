#include "report.hh"

#include "base/logging.hh"
#include "cap/capability.hh"
#include "driver/spec_hash.hh"
#include "snapshot/codec.hh"

namespace chex
{
namespace driver
{

namespace
{

constexpr const char *ReportSchema = "chex-campaign-report-v6";

bool
parseViolation(const std::string &name, Violation &kind)
{
    for (unsigned k = 0; k <= unsigned(Violation::UninitializedRead); ++k) {
        if (name == violationName(static_cast<Violation>(k))) {
            kind = static_cast<Violation>(k);
            return true;
        }
    }
    return false;
}

/** specHashHex, read back only when it round-trips exactly. */
bool
parseSpecHash(const std::string &hex, uint64_t &hash)
{
    hash = specHashFromHex(hex);
    return specHashHex(hash) == hex;
}

/** The row status: skipped (placeholder), failed, or ok. */
const char *
statusName(const JobResult &jr)
{
    return jr.skipped ? "skipped" : (jr.failed ? "failed" : "ok");
}

bool
parseStatus(const std::string &status, JobResult &jr)
{
    jr.failed = status == "failed";
    jr.skipped = status == "skipped";
    return jr.failed || jr.skipped || status == "ok";
}

/** Unknown causes fall back to Exception, with failureCauseFromName's
 * warning. */
bool
parseCause(const std::string &name, FailureCause &cause)
{
    cause = failureCauseFromName(name);
    return true;
}

constexpr auto violationFields = [](auto &v, auto &f) {
    f("kind", json::Text{v.kind, violationName, parseViolation,
                         "a violation kind"});
    f("pc", v.pc);
    f("addr", v.addr);
    f("pid", v.pid);
};

} // namespace

template <class R, class F>
void
runFields(R &r, F &f)
{
    // Outcome
    f("exited", r.exited);
    f("violationDetected", r.violationDetected);
    f("hijackedControlFlow", r.hijackedControlFlow);
    f("hitMacroCap", r.hitMacroCap);
    f("violations", json::Each{r.violations, violationFields});
    // Timing
    f("cycles", r.cycles);
    f("macroOps", r.macroOps);
    f("uops", r.uops);
    f("ipc", r.ipc);
    f("seconds", r.seconds);
    f("squashCyclesBranch", r.squashCyclesBranch);
    f("squashCyclesAlias", r.squashCyclesAlias);
    f("squashFraction", r.squashFraction);
    f("branchMispredicts", r.branchMispredicts);
    // Capability machinery
    f("capChecksInjected", r.capChecksInjected);
    f("zeroIdiomChecks", r.zeroIdiomChecks);
    f("injectedUops", r.injectedUops);
    f("capCacheMissRate", r.capCacheMissRate);
    f("capCacheAccesses", r.capCacheAccesses);
    // Alias machinery
    f("aliasCacheMissRate", r.aliasCacheMissRate);
    f("aliasCacheAccesses", r.aliasCacheAccesses);
    f("aliasPredAccuracy", r.aliasPredAccuracy);
    f("reloadMispredictionRate", r.reloadMispredictionRate);
    f("p0anFlushes", r.p0anFlushes);
    f("pmanForwards", r.pmanForwards);
    f("pna0ZeroIdioms", r.pna0ZeroIdioms);
    f("pointerSpills", r.pointerSpills);
    f("pointerReloads", r.pointerReloads);
    f("loads", r.loads);
    // Memory
    f("dramBytes", r.dramBytes);
    f("bandwidthMBps", r.bandwidthMBps);
    f("residentBytes", r.residentBytes);
    f("shadowBytes", r.shadowBytes);
    f("footprintBytes", r.footprintBytes);
    // Heap behaviour
    f("totalAllocations", r.totalAllocations);
    f("maxLiveAllocations", r.maxLiveAllocations);
    f("avgAllocationsInUse", r.avgAllocationsInUse);
    // Attack-job indicator (always false outside attack jobs)
    f("indicatorChecked", r.indicatorChecked);
    f("indicatorFired", r.indicatorFired);
}

template void runFields(const RunResult &, json::Writer &);
template void runFields(RunResult &, json::Reader &);

namespace
{

constexpr auto runRecord = [](auto &r, auto &f) { runFields(r, f); };

constexpr auto jobFields = [](auto &jr, auto &f) {
    f("index", jr.index);
    f("label", jr.label);
    f("profile", jr.profileName);
    f("variant", jr.variant);
    f("seed", jr.seed);
    f("repetition", jr.repetition);
    f("specHash", json::Text{jr.specHash, specHashHex, parseSpecHash,
                             "16 lower-case hex digits"});
    f("cached", jr.cached);
    f("fromSnapshot", jr.fromSnapshot);
    f("status", json::Text{jr, statusName, parseStatus,
                           "ok, failed or skipped"});
    f("attempts", jr.attempts);
    f("wallSeconds", jr.wallSeconds);
    f("attemptSeconds", jr.attemptSeconds);
    // Attack jobs only: workload rows keep their shape.
    f.optional("attack", jr.attack, !jr.attack.empty());
    if (jr.skipped) {
        // Placeholder rows carry nothing further.
    } else if (jr.failed) {
        f("error", jr.error);
        f("cause", json::Text{jr.cause, failureCauseName, parseCause, ""});
        f("exitCode", jr.exitCode);
        f("signal", jr.termSignal);
    } else {
        f("result", json::Group{jr.run, runRecord});
    }
};

constexpr auto reportFields = [](auto &rep, auto &f) {
    f("schema", json::Match{std::string(ReportSchema)});
    f("seed", rep.seed);
    f("workers", rep.workers);
    f("shard", json::Group{rep, [](auto &r, auto &g) {
          g("index", r.shardIndex);
          g("count", r.shardCount);
          g.check(r.shardCount > 0 && r.shardIndex < r.shardCount,
                  "has its index out of its count");
      }});
    f("summary", json::Group{rep, [](auto &r, auto &g) {
          g("jobsRun", r.jobsRun);
          g("jobsFailed", r.jobsFailed);
          g("jobsCached", r.jobsCached);
          g("jobsSkipped", r.jobsSkipped);
          g("jobsFromSnapshot", r.jobsFromSnapshot);
          g("wallSeconds", r.wallSeconds);
          g("serialSeconds", r.serialSeconds);
          g("speedupVsSerial", r.speedup);
          g("totalCycles", r.totalCycles);
          g("totalUops", r.totalUops);
          g("aggregateIpc", r.aggregateIpc);
      }});
    f("jobs", json::Each{rep.jobs, jobFields});
};

} // namespace

json::Value
toJson(const RunResult &r)
{
    return json::write(json::Group{r, runRecord});
}

json::Value
toJson(const JobResult &jr)
{
    return json::write(json::Group{jr, jobFields});
}

json::Value
toJson(const CampaignReport &report)
{
    return json::write(json::Group{report, reportFields});
}

void
writeReport(const CampaignReport &report, std::ostream &os)
{
    toJson(report).write(os, 2);
    os << "\n";
}

bool
fromJson(const json::Value &v, CampaignReport &out, std::string *err)
{
    out = CampaignReport();
    std::string why;
    if (json::read(v, json::Group{out, reportFields}, &why))
        return true;
    if (err)
        *err = "report: " + why;
    return false;
}

bool
loadReportFile(const std::string &path, CampaignReport &out,
               std::string *err)
{
    std::string text, why;
    json::Value doc;
    if (!snapshot::readTextFile(path, &text, err))
        return false;
    if (json::Value::parse(text, doc, &why) && fromJson(doc, out, &why))
        return true;
    if (err)
        *err = csprintf("'%s' is not a campaign report: %s", path.c_str(),
                        why.c_str());
    return false;
}

} // namespace driver
} // namespace chex
