#include "report.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "cap/capability.hh"
#include "driver/spec_hash.hh"

namespace chex
{
namespace driver
{

json::Value
toJson(const ViolationRecord &v)
{
    return json::Value::object()
        .set("kind", violationName(v.kind))
        .set("pc", v.pc)
        .set("addr", v.addr)
        .set("pid", static_cast<uint64_t>(v.pid));
}

json::Value
toJson(const RunResult &r)
{
    json::Value violations = json::Value::array();
    for (const ViolationRecord &v : r.violations)
        violations.push(toJson(v));

    return json::Value::object()
        // Outcome
        .set("exited", r.exited)
        .set("violationDetected", r.violationDetected)
        .set("hijackedControlFlow", r.hijackedControlFlow)
        .set("hitMacroCap", r.hitMacroCap)
        .set("violations", std::move(violations))
        // Timing
        .set("cycles", r.cycles)
        .set("macroOps", r.macroOps)
        .set("uops", r.uops)
        .set("ipc", r.ipc)
        .set("seconds", r.seconds)
        .set("squashCyclesBranch", r.squashCyclesBranch)
        .set("squashCyclesAlias", r.squashCyclesAlias)
        .set("squashFraction", r.squashFraction)
        .set("branchMispredicts", r.branchMispredicts)
        // Capability machinery
        .set("capChecksInjected", r.capChecksInjected)
        .set("zeroIdiomChecks", r.zeroIdiomChecks)
        .set("injectedUops", r.injectedUops)
        .set("capCacheMissRate", r.capCacheMissRate)
        .set("capCacheAccesses", r.capCacheAccesses)
        // Alias machinery
        .set("aliasCacheMissRate", r.aliasCacheMissRate)
        .set("aliasCacheAccesses", r.aliasCacheAccesses)
        .set("aliasPredAccuracy", r.aliasPredAccuracy)
        .set("reloadMispredictionRate", r.reloadMispredictionRate)
        .set("p0anFlushes", r.p0anFlushes)
        .set("pmanForwards", r.pmanForwards)
        .set("pna0ZeroIdioms", r.pna0ZeroIdioms)
        .set("pointerSpills", r.pointerSpills)
        .set("pointerReloads", r.pointerReloads)
        .set("loads", r.loads)
        // Memory
        .set("dramBytes", r.dramBytes)
        .set("bandwidthMBps", r.bandwidthMBps)
        .set("residentBytes", r.residentBytes)
        .set("shadowBytes", r.shadowBytes)
        .set("footprintBytes", r.footprintBytes)
        // Heap behaviour
        .set("totalAllocations", r.totalAllocations)
        .set("maxLiveAllocations", r.maxLiveAllocations)
        .set("avgAllocationsInUse", r.avgAllocationsInUse)
        // Attack-job indicator (always false outside attack jobs)
        .set("indicatorChecked", r.indicatorChecked)
        .set("indicatorFired", r.indicatorFired);
}

json::Value
toJson(const JobResult &jr)
{
    json::Value attempt_seconds = json::Value::array();
    for (double s : jr.attemptSeconds)
        attempt_seconds.push(s);

    // A skipped row is an out-of-shard placeholder: identity only,
    // neither a result nor a failure.
    const char *status =
        jr.skipped ? "skipped" : (jr.failed ? "failed" : "ok");
    json::Value job = json::Value::object()
                          .set("index", static_cast<uint64_t>(jr.index))
                          .set("label", jr.label)
                          .set("profile", jr.profileName)
                          .set("variant", jr.variant)
                          .set("seed", jr.seed)
                          .set("repetition", jr.repetition)
                          .set("specHash", specHashHex(jr.specHash))
                          .set("cached", jr.cached)
                          .set("fromSnapshot", jr.fromSnapshot)
                          .set("status", status)
                          .set("attempts", jr.attempts)
                          .set("wallSeconds", jr.wallSeconds)
                          .set("attemptSeconds",
                               std::move(attempt_seconds));
    // Attack jobs only: workload rows keep their shape.
    if (!jr.attack.empty())
        job.set("attack", jr.attack);
    if (jr.skipped) {
        // Placeholder rows carry nothing further.
    } else if (jr.failed) {
        job.set("error", jr.error)
            .set("cause", failureCauseName(jr.cause))
            .set("exitCode", jr.exitCode)
            .set("signal", jr.termSignal);
    } else {
        job.set("result", toJson(jr.run));
    }
    return job;
}

json::Value
toJson(const CampaignReport &report)
{
    json::Value jobs = json::Value::array();
    for (const JobResult &jr : report.jobs)
        jobs.push(toJson(jr));

    return json::Value::object()
        .set("schema", "chex-campaign-report-v6")
        .set("seed", report.seed)
        .set("workers", report.workers)
        .set("shard", json::Value::object()
                          .set("index", report.shardIndex)
                          .set("count", std::max(1u,
                                                 report.shardCount)))
        .set("summary",
             json::Value::object()
                 .set("jobsRun", static_cast<uint64_t>(report.jobsRun))
                 .set("jobsFailed",
                      static_cast<uint64_t>(report.jobsFailed))
                 .set("jobsCached",
                      static_cast<uint64_t>(report.jobsCached))
                 .set("jobsSkipped",
                      static_cast<uint64_t>(report.jobsSkipped))
                 .set("jobsFromSnapshot",
                      static_cast<uint64_t>(report.jobsFromSnapshot))
                 .set("wallSeconds", report.wallSeconds)
                 .set("serialSeconds", report.serialSeconds)
                 .set("speedupVsSerial", report.speedup)
                 .set("totalCycles", report.totalCycles)
                 .set("totalUops", report.totalUops)
                 .set("aggregateIpc", report.aggregateIpc))
        .set("jobs", std::move(jobs));
}

void
writeReport(const CampaignReport &report, std::ostream &os)
{
    toJson(report).write(os, 2);
    os << "\n";
}

namespace
{

bool
failParse(std::string *err, const char *what)
{
    if (err)
        *err = csprintf("report: %s", what);
    return false;
}

Violation
violationFromName(const std::string &name)
{
    static const Violation all[] = {
        Violation::None,           Violation::OutOfBounds,
        Violation::UseAfterFree,   Violation::DoubleFree,
        Violation::InvalidFree,    Violation::PermissionDenied,
        Violation::WildPointer,    Violation::OversizeAlloc,
        Violation::UninitializedRead,
    };
    for (Violation v : all)
        if (name == violationName(v))
            return v;
    return Violation::None;
}

} // namespace

bool
fromJson(const json::Value &v, ViolationRecord &out, std::string *err)
{
    if (!v.isObject())
        return failParse(err, "violation record is not an object");
    out.kind = violationFromName(json::getString(v, "kind", "none"));
    out.pc = json::getUint(v, "pc", 0);
    out.addr = json::getUint(v, "addr", 0);
    out.pid = static_cast<Pid>(json::getUint(v, "pid", NoPid));
    return true;
}

bool
fromJson(const json::Value &v, RunResult &out, std::string *err)
{
    if (!v.isObject())
        return failParse(err, "run result is not an object");
    out = RunResult();
    // Outcome
    out.exited = json::getBool(v, "exited", false);
    out.violationDetected = json::getBool(v, "violationDetected", false);
    out.hijackedControlFlow =
        json::getBool(v, "hijackedControlFlow", false);
    out.hitMacroCap = json::getBool(v, "hitMacroCap", false);
    if (const json::Value *violations = v.find("violations")) {
        if (!violations->isArray())
            return failParse(err, "'violations' is not an array");
        for (const json::Value &rec : violations->items()) {
            ViolationRecord vr;
            if (!fromJson(rec, vr, err))
                return false;
            out.violations.push_back(vr);
        }
    }
    // Timing
    out.cycles = json::getUint(v, "cycles", 0);
    out.macroOps = json::getUint(v, "macroOps", 0);
    out.uops = json::getUint(v, "uops", 0);
    out.ipc = json::getDouble(v, "ipc", 0.0);
    out.seconds = json::getDouble(v, "seconds", 0.0);
    out.squashCyclesBranch = json::getUint(v, "squashCyclesBranch", 0);
    out.squashCyclesAlias = json::getUint(v, "squashCyclesAlias", 0);
    out.squashFraction = json::getDouble(v, "squashFraction", 0.0);
    out.branchMispredicts = json::getUint(v, "branchMispredicts", 0);
    // Capability machinery
    out.capChecksInjected = json::getUint(v, "capChecksInjected", 0);
    out.zeroIdiomChecks = json::getUint(v, "zeroIdiomChecks", 0);
    out.injectedUops = json::getUint(v, "injectedUops", 0);
    out.capCacheMissRate = json::getDouble(v, "capCacheMissRate", 0.0);
    out.capCacheAccesses = json::getUint(v, "capCacheAccesses", 0);
    // Alias machinery
    out.aliasCacheMissRate =
        json::getDouble(v, "aliasCacheMissRate", 0.0);
    out.aliasCacheAccesses = json::getUint(v, "aliasCacheAccesses", 0);
    out.aliasPredAccuracy =
        json::getDouble(v, "aliasPredAccuracy", 1.0);
    out.reloadMispredictionRate =
        json::getDouble(v, "reloadMispredictionRate", 0.0);
    out.p0anFlushes = json::getUint(v, "p0anFlushes", 0);
    out.pmanForwards = json::getUint(v, "pmanForwards", 0);
    out.pna0ZeroIdioms = json::getUint(v, "pna0ZeroIdioms", 0);
    out.pointerSpills = json::getUint(v, "pointerSpills", 0);
    out.pointerReloads = json::getUint(v, "pointerReloads", 0);
    out.loads = json::getUint(v, "loads", 0);
    // Memory
    out.dramBytes = json::getUint(v, "dramBytes", 0);
    out.bandwidthMBps = json::getDouble(v, "bandwidthMBps", 0.0);
    out.residentBytes = json::getUint(v, "residentBytes", 0);
    out.shadowBytes = json::getUint(v, "shadowBytes", 0);
    out.footprintBytes = json::getUint(v, "footprintBytes", 0);
    // Heap behaviour
    out.totalAllocations = json::getUint(v, "totalAllocations", 0);
    out.maxLiveAllocations = json::getUint(v, "maxLiveAllocations", 0);
    out.avgAllocationsInUse =
        json::getDouble(v, "avgAllocationsInUse", 0.0);
    // Attack-job indicator: false outside attack jobs.
    out.indicatorChecked = json::getBool(v, "indicatorChecked", false);
    out.indicatorFired = json::getBool(v, "indicatorFired", false);
    return true;
}

bool
fromJson(const json::Value &v, JobResult &out, std::string *err)
{
    if (!v.isObject())
        return failParse(err, "job record is not an object");
    out = JobResult();
    out.index = static_cast<size_t>(json::getUint(v, "index", 0));
    out.label = json::getString(v, "label", "");
    out.profileName = json::getString(v, "profile", "");
    out.variant = json::getString(v, "variant", "");
    out.seed = json::getUint(v, "seed", 0);
    out.repetition =
        static_cast<unsigned>(json::getUint(v, "repetition", 0));
    // Attack-case ID: absent on workload jobs.
    out.attack = json::getString(v, "attack", "");
    std::string spec_hash, status;
    if (!json::require(v, "specHash", spec_hash, err) ||
        !json::require(v, "cached", out.cached, err) ||
        !json::require(v, "fromSnapshot", out.fromSnapshot, err) ||
        !json::require(v, "status", status, err)) {
        return false;
    }
    out.specHash = specHashFromHex(spec_hash);
    out.failed = status == "failed";
    out.skipped = status == "skipped";
    if (!out.failed && !out.skipped && status != "ok")
        return failParse(err, "unknown job 'status'");
    out.attempts =
        static_cast<unsigned>(json::getUint(v, "attempts", 1));
    out.wallSeconds = json::getDouble(v, "wallSeconds", 0.0);
    if (const json::Value *as = v.find("attemptSeconds")) {
        if (!as->isArray())
            return failParse(err, "'attemptSeconds' is not an array");
        for (const json::Value &s : as->items())
            out.attemptSeconds.push_back(
                s.isNumber() ? s.number() : 0.0);
    }
    if (out.failed) {
        out.error = json::getString(v, "error", "");
        std::string cause;
        if (!json::require(v, "cause", cause, err) ||
            !json::require(v, "exitCode", out.exitCode, err) ||
            !json::require(v, "signal", out.termSignal, err)) {
            return false;
        }
        out.cause = failureCauseFromName(cause);
    } else if (const json::Value *res = v.find("result")) {
        if (!fromJson(*res, out.run, err))
            return false;
    }
    return true;
}

bool
fromJson(const json::Value &v, CampaignReport &out, std::string *err)
{
    if (!v.isObject())
        return failParse(err, "report is not an object");
    std::string schema = json::getString(v, "schema", "");
    if (schema != "chex-campaign-report-v6") {
        return failParse(err, schema.empty()
                                  ? "missing schema tag"
                                  : "unknown schema tag (expected "
                                    "chex-campaign-report-v6)");
    }
    out = CampaignReport();
    out.seed = json::getUint(v, "seed", 0);
    out.workers =
        static_cast<unsigned>(json::getUint(v, "workers", 0));
    const json::Value *shard =
        json::member(v, "shard", json::Value::Kind::Object, err);
    if (!shard ||
        !json::require(*shard, "index", out.shardIndex, err) ||
        !json::require(*shard, "count", out.shardCount, err)) {
        return false;
    }
    if (out.shardCount == 0 || out.shardIndex >= out.shardCount)
        return failParse(err, "'shard' index/count out of range");
    if (const json::Value *summary = v.find("summary")) {
        out.jobsRun = static_cast<size_t>(
            json::getUint(*summary, "jobsRun", 0));
        out.jobsFailed = static_cast<size_t>(
            json::getUint(*summary, "jobsFailed", 0));
        out.jobsCached = static_cast<size_t>(
            json::getUint(*summary, "jobsCached", 0));
        out.jobsSkipped = static_cast<size_t>(
            json::getUint(*summary, "jobsSkipped", 0));
        out.jobsFromSnapshot = static_cast<size_t>(
            json::getUint(*summary, "jobsFromSnapshot", 0));
        out.wallSeconds = json::getDouble(*summary, "wallSeconds", 0.0);
        out.serialSeconds =
            json::getDouble(*summary, "serialSeconds", 0.0);
        out.speedup = json::getDouble(*summary, "speedupVsSerial", 0.0);
        out.totalCycles = json::getUint(*summary, "totalCycles", 0);
        out.totalUops = json::getUint(*summary, "totalUops", 0);
        out.aggregateIpc =
            json::getDouble(*summary, "aggregateIpc", 0.0);
    }
    const json::Value *jobs = v.find("jobs");
    if (!jobs || !jobs->isArray())
        return failParse(err, "'jobs' is missing or not an array");
    for (const json::Value &job : jobs->items()) {
        JobResult jr;
        if (!fromJson(job, jr, err))
            return false;
        out.jobs.push_back(std::move(jr));
    }
    return true;
}

bool
loadReportFile(const std::string &path, CampaignReport &out,
               std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = csprintf("cannot read '%s'", path.c_str());
        return false;
    }
    std::stringstream body;
    body << in.rdbuf();
    json::Value doc;
    std::string parse_err;
    if (!json::Value::parse(body.str(), doc, &parse_err) ||
        !fromJson(doc, out, &parse_err)) {
        if (err)
            *err = csprintf("'%s' is not a campaign report: %s",
                            path.c_str(), parse_err.c_str());
        return false;
    }
    return true;
}

} // namespace driver
} // namespace chex
