/**
 * @file
 * Harness of the repository benchmark (README.md in this directory
 * defines the workloads and metrics; run.py builds and drives it).
 *
 * Runs one workload -- spec-matrix, server-scale or attack-sweep --
 * through the library's public entry points for a fixed number of
 * host seconds, as repeated passes of one campaign, checks every
 * simulated output, and prints one JSON document on stdout:
 *
 *  - untraced (--trace 0): the end-to-end metrics, each the median
 *    over the measured passes;
 *  - traced (--trace 1): the per-layer metrics. Traced passes record
 *    a span around every call into a layer and alternate with
 *    untraced passes, so the tracing overhead is measured in the
 *    same process; then the inner layers' public functions are timed
 *    per call on inputs sized like the workload.
 *
 * The simulator is not instrumented: every job body below replaces
 * the driver's default body, makes the same calls it makes, and
 * reads the clock around each.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/registry.hh"
#include "base/json.hh"
#include "cap/cap_table.hh"
#include "cpu/core.hh"
#include "driver/campaign.hh"
#include "driver/report.hh"
#include "driver/security_report.hh"
#include "heap/allocator.hh"
#include "isa/decoder.hh"
#include "mem/alias_table.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"
#include "sim/system.hh"
#include "snapshot/codec.hh"
#include "snapshot/snapshot.hh"
#include "tracker/alias_predictor.hh"
#include "tracker/reg_tags.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace chex;

namespace
{

/** @{ @name Workload sizes */
/**
 * server-cache iterations are divided by this: the 250K-allocation
 * fill stays whole and the steady phase after it keeps ~20% of the
 * macro-ops, so one pass takes ~15 s instead of minutes.
 */
constexpr uint64_t ServerDivisor = 20;
/** Generated instances per attack family ("thousands of seeds"). */
constexpr uint64_t AttackSeedsPerFamily = 1000;
/** Macro-ops per runMacros() chunk while a live set fills. */
constexpr uint64_t FillChunkMacros = 100'000;
/** --smoke: iteration divisor and attack instances per family. */
constexpr uint64_t SmokeDivisor = 100;
constexpr uint64_t SmokeAttackSeeds = 4;
/** @} */

/** The six variants under the CLI's tokens (metric-name suffixes). */
struct VariantToken
{
    const char *token;
    VariantKind kind;
};
constexpr VariantToken Variants[] = {
    {"baseline", VariantKind::Baseline},
    {"hw-only", VariantKind::HardwareOnly},
    {"bintrans", VariantKind::BinaryTranslation},
    {"ucode-always", VariantKind::MicrocodeAlwaysOn},
    {"ucode-pred", VariantKind::MicrocodePrediction},
    {"asan", VariantKind::Asan},
};
constexpr size_t NumVariants = std::size(Variants);

size_t
variantIndex(VariantKind kind)
{
    for (size_t i = 0; i < NumVariants; ++i)
        if (Variants[i].kind == kind)
            return i;
    throw std::logic_error("variant without a token");
}

using Clock = std::chrono::steady_clock;
const Clock::time_point Epoch = Clock::now();

/** Host seconds since the harness started. */
double
now()
{
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** splitmix64: the inputs of the per-call timings. */
struct Rng
{
    uint64_t state;
    uint64_t
    next()
    {
        uint64_t x = (state += 0x9e3779b97f4a7c15ull);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }
    uint64_t below(uint64_t n) { return next() % n; }
};

// ------------------------------------------------------------------
// Options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned workers = 0;    // 0: the workload's own worker count
    bool smoke = false;      // self-test sizes
    long forceFail = -1;     // job index that throws in the first pass
    std::string expectPath;  // committed counts to match (seed 1)
    std::string outDir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "chexbench: %s\nusage: chexbench --workload "
                 "spec-matrix|server-scale|attack-sweep [--seed N] "
                 "[--seconds S] [--trace 0|1] [--workers N] [--smoke] "
                 "[--force-fail INDEX] [--expect FILE] "
                 "[--out-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--workers") {
            o.workers = static_cast<unsigned>(
                std::strtoul(v.c_str(), &end, 10));
        } else if (flag == "--force-fail") {
            o.forceFail = std::strtol(v.c_str(), &end, 10);
        } else if (flag == "--expect") {
            o.expectPath = v;
        } else if (flag == "--out-dir") {
            o.outDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end)
            usage(("bad value for " + flag).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

// ------------------------------------------------------------------
// Spans

/** One timed call into a layer. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0; // 0: a root span
    uint64_t job = 0;    // 0: not part of a job
    double start = 0.0;
    double end = 0.0;
};

/** All spans of the run, kept in memory until the harness ends. */
class SpanLog
{
  public:
    uint64_t newId() { return nextId.fetch_add(1); }

    void
    add(std::vector<Span> &spans)
    {
        std::lock_guard<std::mutex> guard(mutex);
        all.insert(all.end(), spans.begin(), spans.end());
    }

    /** Read only after every worker has joined. */
    const std::vector<Span> &spans() const { return all; }

  private:
    std::atomic<uint64_t> nextId{1};
    std::mutex mutex; // guards all
    std::vector<Span> all;
};

/**
 * Times the calls of one job (or of one pass's driver work). Each
 * Scope adds its host seconds to a caller-supplied accumulator; with
 * a SpanLog attached it also records a span parented to the
 * innermost open scope, and the spans go to the log when the Tracer
 * ends.
 */
class Tracer
{
  public:
    Tracer(SpanLog *log, uint64_t parent)
        : log(log), job(log && parent ? log->newId() : 0)
    {
        stack.push_back(parent);
    }
    ~Tracer()
    {
        if (log)
            log->add(spans);
    }
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Id of the innermost open span (0 untraced or none open). */
    uint64_t current() const { return stack.back(); }

    class Scope
    {
      public:
        Scope(Tracer &tr, const char *name, double *acc)
            : tr(tr), acc(acc), start(now())
        {
            if (tr.log) {
                index = tr.spans.size();
                Span s;
                s.name = name;
                s.id = tr.log->newId();
                s.parent = tr.stack.back();
                s.job = tr.job;
                s.start = start;
                tr.spans.push_back(s);
                tr.stack.push_back(s.id);
            }
        }
        ~Scope()
        {
            double end = now();
            *acc += end - start;
            if (tr.log) {
                tr.spans[index].end = end;
                tr.stack.pop_back();
            }
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tr;
        double *acc;
        double start;
        size_t index = 0;
    };

  private:
    SpanLog *log;
    uint64_t job;
    std::vector<uint64_t> stack; // open span ids, outermost first
    std::vector<Span> spans;
};

// ------------------------------------------------------------------
// Workloads

enum class JobKind : uint8_t
{
    Whole,      // generate, construct, load, run()
    Pair,       // baseline + ucode-pred, fill chunks interleaved (below)
    Checkpoint, // fill, snapshot round trip at the fill point, run()
    Attack,     // findAttackByName, construct, load, run()
};

/** Simulations a job of @p kind runs. */
size_t
simsOf(JobKind kind)
{
    return kind == JobKind::Pair ? 2 : 1;
}

/** One workload: the campaign every pass runs, and its sizing. */
struct Plan
{
    std::string name;
    std::vector<driver::JobSpec> specs;
    std::vector<JobKind> kinds;
    unsigned workers = 1;
    bool writesReports = false;
    /** Live-set size and allocation sizes for the per-call timings. */
    BenchmarkProfile sizing;
};

/** Figure 6: every twin under every variant, seed pinned per job. */
Plan
specMatrix(const Options &o)
{
    Plan p;
    p.name = "spec-matrix";
    p.workers = 4;
    std::vector<BenchmarkProfile> profiles = allProfiles();
    if (o.smoke)
        for (BenchmarkProfile &pr : profiles)
            pr = pr.scaledBy(SmokeDivisor);
    std::vector<VariantKind> kinds;
    for (const VariantToken &v : Variants)
        kinds.push_back(v.kind);
    p.specs = driver::buildMatrix(profiles, kinds, o.seed);
    p.kinds.assign(p.specs.size(), JobKind::Whole);
    p.sizing = *std::max_element(
        profiles.begin(), profiles.end(),
        [](const BenchmarkProfile &a, const BenchmarkProfile &b) {
            return a.maxLiveBuffers < b.maxLiveBuffers;
        });
    return p;
}

/**
 * A quarter-million live capabilities: baseline and ucode-pred in one
 * job, and ucode-pred again through a checkpoint round trip.
 */
Plan
serverScale(const Options &o)
{
    Plan p;
    p.name = "server-scale";
    p.workers = 2;
    BenchmarkProfile profile =
        o.smoke ? profileByName("server-lite").scaledBy(SmokeDivisor)
                : profileByName("server-cache").scaledBy(ServerDivisor);
    for (JobKind kind : {JobKind::Pair, JobKind::Checkpoint}) {
        driver::JobSpec spec;
        spec.label = profile.name + (kind == JobKind::Pair
                                         ? "/baseline+ucode-pred"
                                         : "/ucode-pred+checkpoint");
        spec.profile = profile;
        spec.config.variant.kind = VariantKind::MicrocodePrediction;
        spec.workloadSeed = o.seed;
        p.specs.push_back(std::move(spec));
        p.kinds.push_back(kind);
    }
    p.sizing = profile;
    return p;
}

/**
 * Every generator family x thousands of seeds plus every suite case,
 * under baseline and both microcode variants, built the way
 * `chex-campaign attack --attacks gen,suites` builds its jobs.
 */
Plan
attackSweep(const Options &o)
{
    Plan p;
    p.name = "attack-sweep";
    p.workers = 4;
    p.writesReports = true;
    std::vector<std::string> ids;
    for (const std::string &family : generatorFamilies())
        ids.push_back("gen/" + family);
    for (const AttackSuite &suite : attackSuites())
        for (const AttackCase &c : suite.cases)
            ids.push_back(attackCaseId(c));
    const VariantKind kinds[] = {VariantKind::Baseline,
                                 VariantKind::MicrocodeAlwaysOn,
                                 VariantKind::MicrocodePrediction};
    uint64_t seeds = o.smoke ? SmokeAttackSeeds : AttackSeedsPerFamily;
    size_t instance = 0;
    for (const std::string &id : ids) {
        uint64_t count = isGeneratedAttackId(id) ? seeds : 1;
        for (uint64_t i = 0; i < count; ++i, ++instance) {
            uint64_t instance_seed = driver::jobSeed(o.seed, instance);
            for (VariantKind kind : kinds) {
                driver::JobSpec spec;
                spec.label = id + "#" + std::to_string(i) + "/" +
                             variantName(kind);
                spec.attack = id;
                spec.profile = attackProfile();
                spec.config.variant.kind = kind;
                spec.config.detectUninitializedReads = true;
                spec.workloadSeed = instance_seed;
                p.specs.push_back(std::move(spec));
                p.kinds.push_back(JobKind::Attack);
            }
        }
    }
    p.sizing = attackProfile();
    return p;
}

// ------------------------------------------------------------------
// Jobs

/** Host seconds one job spent in its set-up calls. */
struct JobTimes
{
    double generate = 0.0; // workload or attack synthesis
    double construct = 0.0;
    double load = 0.0;
    double save = 0.0;     // saveSnapshot + bundle serialisation
    double restore = 0.0;  // parse + bundle decode + restoreSnapshot
    double body = 0.0;     // the whole job body

    double
    setup() const
    {
        return generate + construct + load + save + restore;
    }
};

/** One simulation of a job. */
struct SimRun
{
    VariantKind variant = VariantKind::Baseline;
    RunResult r;
    double runS = 0.0; // host seconds inside run()/runMacros()
    uint64_t l1dAccesses = 0;
    uint64_t l1dMisses = 0;
};

struct JobOut
{
    JobTimes t;
    uint64_t insts = 0;
    uint64_t snapshotBytes = 0;
    std::vector<SimRun> runs;
};

std::unique_ptr<System>
makeSystem(const SystemConfig &config, const Program &prog, Tracer &tr,
           JobTimes &t)
{
    std::unique_ptr<System> sys;
    {
        Tracer::Scope s(tr, "sim.construct", &t.construct);
        sys = std::make_unique<System>(config);
    }
    Tracer::Scope s(tr, "sim.load", &t.load);
    sys->load(prog);
    return sys;
}

/** One runMacros() chunk toward @p live live allocations. */
bool
fillStep(System &sys, uint64_t live, Tracer &tr, double *run_s)
{
    if (sys.heap().liveAllocations() >= live)
        return true;
    Tracer::Scope s(tr, "sim.run.fill", run_s);
    if (!sys.runMacros(FillChunkMacros))
        throw std::runtime_error("run ended before the live set "
                                 "filled");
    return false;
}

/** run() to the end; the run's counts go to @p run. */
void
finishRun(System &sys, const char *span, Tracer &tr, SimRun &run)
{
    {
        Tracer::Scope s(tr, span, &run.runS);
        run.r = sys.run();
    }
    run.l1dAccesses = sys.hierarchy().l1d().accesses();
    run.l1dMisses = sys.hierarchy().l1d().misses();
}

/**
 * Checkpoint round trip at the fill point: saveSnapshot, wrap in a
 * one-entry bundle and serialise it, drop the machine, then parse,
 * decode and restore into a freshly constructed and loaded System.
 */
std::unique_ptr<System>
roundTrip(std::unique_ptr<System> sys, const driver::JobSpec &spec,
          uint64_t seed, uint64_t warmup, const Program &prog,
          Tracer &tr, JobOut &out)
{
    std::string text;
    std::string err;
    {
        Tracer::Scope s(tr, "snapshot.save", &out.t.save);
        snapshot::MachineEntry entry;
        entry.profileName = spec.profile.name;
        entry.variant = variantName(spec.config.variant.kind);
        entry.seed = seed;
        entry.warmupMacros = warmup;
        entry.state = sys->saveSnapshot(&err);
        if (entry.state.isNull())
            throw std::runtime_error("saveSnapshot: " + err);
        entry.stateHash = snapshot::jsonStateHash(entry.state);
        json::Value doc;
        {
            snapshot::Bundle bundle;
            bundle.campaignSeed = seed;
            bundle.warmupMacros = warmup;
            bundle.entries.push_back(std::move(entry));
            doc = snapshot::toJson(bundle);
        } // each copy of the state is freed as soon as it is spent
        text = doc.dump();
    }
    out.snapshotBytes = text.size();
    sys.reset();
    sys = makeSystem(spec.config, prog, tr, out.t);
    Tracer::Scope s(tr, "snapshot.restore", &out.t.restore);
    snapshot::Bundle bundle;
    {
        json::Value doc;
        if (!json::Value::parse(text, doc, &err) ||
            !snapshot::fromJson(doc, &bundle, &err))
            throw std::runtime_error("snapshot decode: " + err);
        std::string().swap(text);
    }
    if (bundle.entries.size() != 1 ||
        !sys->restoreSnapshot(bundle.entries[0].state, &err))
        throw std::runtime_error("snapshot restore: " + err);
    return sys;
}

/**
 * A workload job. Pair runs the spec under baseline and ucode-pred
 * on this one thread: their fill chunks alternate and their steady
 * phases run back to back, so both see the same host conditions
 * (a virtual CPU's speed here drifts for seconds at a time).
 */
void
runWorkloadJob(const driver::JobSpec &spec, uint64_t seed, JobKind kind,
               Tracer &tr, JobOut &out)
{
    Program prog;
    {
        Tracer::Scope s(tr, "workload.generate", &out.t.generate);
        prog = generateWorkload(spec.profile, seed);
    }
    out.insts = prog.numInsts();
    std::vector<SystemConfig> configs(simsOf(kind), spec.config);
    if (kind == JobKind::Pair) {
        configs[0].variant.kind = VariantKind::Baseline;
        configs[1].variant.kind = VariantKind::MicrocodePrediction;
    }
    std::vector<std::unique_ptr<System>> systems;
    out.runs.resize(configs.size());
    for (size_t k = 0; k < configs.size(); ++k) {
        out.runs[k].variant = configs[k].variant.kind;
        systems.push_back(makeSystem(configs[k], prog, tr, out.t));
    }
    if (kind != JobKind::Whole) {
        uint64_t warmup = 0;
        for (bool filled = false; !filled;) {
            filled = true;
            for (size_t k = 0; k < systems.size(); ++k) {
                if (!fillStep(*systems[k], spec.profile.maxLiveBuffers,
                              tr, &out.runs[k].runS)) {
                    filled = false;
                    warmup += FillChunkMacros;
                }
            }
        }
        if (kind == JobKind::Checkpoint)
            systems[0] = roundTrip(std::move(systems[0]), spec, seed,
                                   warmup, prog, tr, out);
    }
    for (size_t k = 0; k < systems.size(); ++k) {
        finishRun(*systems[k],
                  kind == JobKind::Whole ? "sim.run" : "sim.run.steady",
                  tr, out.runs[k]);
        systems[k].reset();
        const RunResult &r = out.runs[k].r;
        if (!r.exited || r.violationDetected || r.hijackedControlFlow ||
            r.hitMacroCap)
            throw std::runtime_error(spec.label +
                                     " did not exit cleanly");
    }
}

/** The driver's attack body (runAttackSpec), timed per call. */
void
runAttackJob(const driver::JobSpec &spec, uint64_t seed, Tracer &tr,
             JobOut &out)
{
    AttackCase attack;
    std::string err;
    bool found;
    {
        Tracer::Scope s(tr, "attacks.generate", &out.t.generate);
        found = findAttackByName(spec.attack, seed, &attack, &err);
    }
    if (!found)
        throw std::runtime_error(err);
    out.insts = attack.program.numInsts();
    std::unique_ptr<System> sys =
        makeSystem(spec.config, attack.program, tr, out.t);
    out.runs.resize(1);
    SimRun &run = out.runs[0];
    run.variant = spec.config.variant.kind;
    finishRun(*sys, "sim.run", tr, run);
    if (!run.r.exited && !run.r.violationDetected &&
        !run.r.hijackedControlFlow)
        throw std::runtime_error(spec.label + " neither exited nor "
                                              "flagged a violation");
    if (attack.indicatorAddr != 0) {
        run.r.indicatorChecked = true;
        run.r.indicatorFired =
            sys->memory().read(attack.indicatorAddr, 8) ==
            attack.indicatorExpect;
    }
}

/** A job body: the job's last run is its report row. */
RunResult
runJob(const driver::JobSpec &spec, uint64_t seed, JobKind kind,
       JobOut &out, SpanLog *log, uint64_t parent, bool fail)
{
    Tracer tr(log, parent);
    Tracer::Scope job(tr, "driver.job", &out.t.body);
    if (fail)
        throw std::runtime_error("forced failure (--force-fail)");
    if (kind == JobKind::Attack)
        runAttackJob(spec, seed, tr, out);
    else
        runWorkloadJob(spec, seed, kind, tr, out);
    return out.runs.back().r;
}

// ------------------------------------------------------------------
// Passes

struct PassOut
{
    std::vector<JobOut> jobs;
    driver::CampaignReport report;
    double wall = 0.0;     // campaign + report writing
    double campaign = 0.0;
    double reportS = 0.0;
    double securityS = 0.0;
    uint64_t reportBytes = 0;
    bool securityOk = true;
    std::string securityErr;
};

/** One closed-loop campaign over the plan, plus its reports. */
PassOut
runPass(const Plan &plan, const Options &o, SpanLog *log,
        bool force_fail)
{
    PassOut p;
    p.jobs.resize(plan.specs.size());
    Tracer tr(log, 0);
    double start = now();
    {
        Tracer::Scope campaign(tr, "driver.campaign", &p.campaign);
        std::vector<driver::JobSpec> specs = plan.specs;
        uint64_t parent = tr.current();
        for (size_t i = 0; i < specs.size(); ++i) {
            JobKind kind = plan.kinds[i];
            JobOut *out = &p.jobs[i];
            bool fail = force_fail && static_cast<long>(i) == o.forceFail;
            specs[i].body = [=](const driver::JobSpec &s, uint64_t seed) {
                return runJob(s, seed, kind, *out, log, parent, fail);
            };
        }
        driver::CampaignOptions co;
        co.workers = o.workers ? o.workers : plan.workers;
        co.seed = o.seed;
        p.report = driver::runCampaign(specs, co);
    }
    if (plan.writesReports) {
        {
            Tracer::Scope s(tr, "driver.report", &p.reportS);
            std::ofstream f(o.outDir + "/" + plan.name + "-report.json",
                            std::ios::trunc);
            driver::writeReport(p.report, f);
            p.reportBytes = static_cast<uint64_t>(f.tellp());
            if (!f)
                throw std::runtime_error("cannot write the campaign "
                                         "report");
        }
        Tracer::Scope s(tr, "driver.security_report", &p.securityS);
        driver::SecurityReport sec;
        p.securityOk =
            driver::buildSecurityReport(p.report, &sec, &p.securityErr);
        if (p.securityOk) {
            std::ofstream f(o.outDir + "/" + plan.name + "-security.json",
                            std::ios::trunc);
            driver::writeSecurityReport(sec, f);
            if (!f)
                throw std::runtime_error("cannot write the security "
                                         "report");
        }
    }
    p.wall = now() - start;
    return p;
}

// ------------------------------------------------------------------
// Output checks

/** Every simulated count of a run, folded into one digest. */
uint64_t
fingerprint(const SimRun &run)
{
    const RunResult &r = run.r;
    const uint64_t fields[] = {
        static_cast<uint64_t>(run.variant), r.exited, r.violationDetected,
        r.hijackedControlFlow, r.hitMacroCap, r.violations.size(),
        r.cycles, r.macroOps, r.uops, r.squashCyclesBranch,
        r.squashCyclesAlias, r.branchMispredicts, r.capChecksInjected,
        r.zeroIdiomChecks, r.injectedUops, r.capCacheAccesses,
        r.aliasCacheAccesses, r.p0anFlushes, r.pmanForwards,
        r.pna0ZeroIdioms, r.pointerSpills, r.pointerReloads, r.loads,
        r.dramBytes, r.residentBytes, r.shadowBytes, r.totalAllocations,
        r.maxLiveAllocations, r.indicatorChecked, r.indicatorFired,
        run.l1dAccesses, run.l1dMisses};
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t f : fields)
        h = (h ^ f) * 0x100000001b3ull;
    return h;
}

/** A job's runs and program size in one digest; never 0. */
uint64_t
fingerprint(const JobOut &j)
{
    uint64_t h = j.insts;
    for (const SimRun &run : j.runs)
        h = (h ^ fingerprint(run)) * 0x100000001b3ull;
    return h | 1;
}

/** Committed (macroOps, uops, cycles) per variant display name. */
struct Expected
{
    std::string profile;
    std::map<std::string, std::array<uint64_t, 3>> counts;
};

Expected
loadExpected(const std::string &path)
{
    std::string text;
    std::string err;
    json::Value doc;
    if (!snapshot::readTextFile(path, &text, &err) ||
        !json::Value::parse(text, doc, &err))
        throw std::runtime_error("expected counts: " + err);
    Expected e;
    e.profile = doc.at("profile").str();
    for (const json::Value &v : doc.at("variants").items()) {
        e.counts[v.at("variant").str()] = {v.at("macroOps").asUint64(),
                                           v.at("uops").asUint64(),
                                           v.at("cycles").asUint64()};
    }
    if (e.counts.size() != NumVariants)
        throw std::runtime_error("expected counts: want all variants");
    return e;
}

/** Operations attempted and failed, with the first few reasons. */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> reasons;

    void
    fail(const std::string &why, uint64_t ops = 1)
    {
        failed += ops;
        if (reasons.size() < 20)
            reasons.push_back(why);
    }
};

/**
 * Count one pass's operations (simulations, and reports) and check
 * its outputs: every job ran, repeats the reference pass bit for
 * bit, exited cleanly (enforced in the body), fired its exploit
 * under the baseline; the resumed checkpoint run matches the
 * uninterrupted ucode-pred run; and (seed 1) the committed counts
 * hold.
 */
void
checkPass(const Plan &plan, const PassOut &p,
          const std::vector<uint64_t> &reference, const Expected *expect,
          Checks &c)
{
    const SimRun *uninterrupted = nullptr;
    for (size_t i = 0; i < p.jobs.size(); ++i)
        if (plan.kinds[i] == JobKind::Pair && !p.report.jobs[i].failed)
            uninterrupted = &p.jobs[i].runs[1];
    for (size_t i = 0; i < p.jobs.size(); ++i) {
        const driver::JobSpec &spec = plan.specs[i];
        const driver::JobResult &jr = p.report.jobs[i];
        const JobOut &j = p.jobs[i];
        uint64_t sims = simsOf(plan.kinds[i]);
        c.attempted += sims;
        if (jr.failed) {
            c.fail(spec.label + ": " + jr.error, sims);
            continue;
        }
        if (!reference.empty() && reference[i] &&
            fingerprint(j) != reference[i]) {
            c.fail(spec.label + ": counts differ from the first pass",
                   sims);
            continue;
        }
        const SimRun &run = j.runs.back();
        if (plan.kinds[i] == JobKind::Attack &&
            run.variant == VariantKind::Baseline &&
            !(run.r.indicatorChecked && run.r.indicatorFired))
            c.fail(spec.label + ": exploit did not fire under baseline");
        if (plan.kinds[i] == JobKind::Checkpoint &&
            (!uninterrupted ||
             fingerprint(*uninterrupted) != fingerprint(run)))
            c.fail(spec.label + ": resumed counts differ from the "
                                "uninterrupted run");
        for (const SimRun &r : j.runs) {
            if (!expect || spec.profile.name != expect->profile)
                continue;
            auto it = expect->counts.find(variantName(r.variant));
            if (it == expect->counts.end() ||
                it->second != std::array<uint64_t, 3>{
                                  r.r.macroOps, r.r.uops, r.r.cycles})
                c.fail(spec.label + ": counts differ from the committed "
                                    "record");
        }
    }
    if (plan.writesReports) {
        c.attempted += 2;
        if (p.reportBytes == 0)
            c.fail("campaign report is empty");
        if (!p.securityOk)
            c.fail("security report: " + p.securityErr);
    }
}

// ------------------------------------------------------------------
// Per-pass measurements

/** Σ host run seconds and simulated µops, per variant. */
struct RunSums
{
    double seconds[NumVariants] = {};
    uint64_t uops[NumVariants] = {};

    double
    nsPerUop(size_t v) const
    {
        return uops[v] ? seconds[v] * 1e9 / static_cast<double>(uops[v])
                       : 0.0;
    }
};

struct PassStats
{
    double wall = 0.0;
    size_t simsOk = 0;
    double jobsPerS = 0.0;
    double uopsPerS = 0.0;
    double hostRatio = 0.0;
    double setup = 0.0;
    RunSums sums;
    // Layer sums for the per-layer metrics.
    double campaign = 0.0, busy = 0.0, reportS = 0.0, securityS = 0.0;
    double workloadGen = 0.0, attackGen = 0.0, construct = 0.0,
           load = 0.0, run = 0.0, save = 0.0, restore = 0.0;
    std::vector<double> jobMs;
};

PassStats
measurePass(const Plan &plan, const PassOut &p)
{
    PassStats s;
    s.wall = p.wall;
    double run = 0.0;
    uint64_t uops = 0;
    for (size_t i = 0; i < p.jobs.size(); ++i) {
        const JobOut &j = p.jobs[i];
        s.setup += j.t.setup();
        s.busy += j.t.body;
        s.construct += j.t.construct;
        s.load += j.t.load;
        s.save += j.t.save;
        s.restore += j.t.restore;
        (plan.kinds[i] == JobKind::Attack ? s.attackGen : s.workloadGen) +=
            j.t.generate;
        s.jobMs.push_back(j.t.body * 1e3);
        for (const SimRun &r : j.runs)
            s.run += r.runS;
        if (p.report.jobs[i].failed)
            continue;
        for (const SimRun &r : j.runs) {
            ++s.simsOk;
            run += r.runS;
            uops += r.r.uops;
            // The resumed checkpoint run is split around its round
            // trip; per-variant costs leave it out.
            if (plan.kinds[i] == JobKind::Checkpoint)
                continue;
            size_t v = variantIndex(r.variant);
            s.sums.seconds[v] += r.runS;
            s.sums.uops[v] += r.r.uops;
        }
    }
    s.jobsPerS = static_cast<double>(s.simsOk) / p.wall;
    s.uopsPerS = run > 0.0 ? static_cast<double>(uops) / run : 0.0;
    size_t base = variantIndex(VariantKind::Baseline);
    size_t pred = variantIndex(VariantKind::MicrocodePrediction);
    if (s.sums.nsPerUop(base) > 0.0)
        s.hostRatio = s.sums.nsPerUop(pred) / s.sums.nsPerUop(base);
    s.campaign = p.campaign;
    s.reportS = p.reportS;
    s.securityS = p.securityS;
    return s;
}

// ------------------------------------------------------------------
// Simulated results of the reference pass

/** Exact counts summed over the reference pass's succeeded runs. */
std::map<std::string, uint64_t>
exactCounts(const Plan &plan, const PassOut &p)
{
    std::map<std::string, uint64_t> e;
    for (size_t i = 0; i < p.jobs.size(); ++i) {
        if (p.report.jobs[i].failed)
            continue;
        const JobOut &j = p.jobs[i];
        e["insts"] += j.insts;
        e["snapshot_bytes"] += j.snapshotBytes;
        for (const SimRun &run : j.runs) {
            const RunResult &r = run.r;
            e["runs"] += 1;
            e["macro_ops"] += r.macroOps;
            e["uops"] += r.uops;
            e["cycles"] += r.cycles;
            e["injected_uops"] += r.injectedUops;
            e["cap_checks"] += r.capChecksInjected;
            e["zero_idiom_checks"] += r.zeroIdiomChecks;
            e["branch_mispredicts"] += r.branchMispredicts;
            e["squash_cycles"] += r.squashCyclesBranch + r.squashCyclesAlias;
            e["p0an_flushes"] += r.p0anFlushes;
            e["pman_forwards"] += r.pmanForwards;
            e["pointer_reloads"] += r.pointerReloads;
            e["cap_cache_accesses"] += r.capCacheAccesses;
            e["cap_cache_misses"] += static_cast<uint64_t>(
                std::llround(r.capCacheMissRate *
                             static_cast<double>(r.capCacheAccesses)));
            e["alias_cache_accesses"] += r.aliasCacheAccesses;
            e["alias_cache_misses"] += static_cast<uint64_t>(
                std::llround(r.aliasCacheMissRate *
                             static_cast<double>(r.aliasCacheAccesses)));
            e["shadow_bytes"] += r.shadowBytes;
            e["dram_bytes"] += r.dramBytes;
            e["l1d_accesses"] += run.l1dAccesses;
            e["l1d_misses"] += run.l1dMisses;
            e["allocations"] += r.totalAllocations;
            e["max_live"] = std::max(e["max_live"], r.maxLiveAllocations);
            e["violations"] += r.violationDetected;
            if (plan.kinds[i] != JobKind::Attack)
                continue;
            if (run.variant == VariantKind::Baseline) {
                e["attack_cases"] += 1;
                e["baseline_checked"] += r.indicatorChecked;
                e["baseline_valid"] +=
                    r.indicatorChecked && r.indicatorFired;
            } else {
                e["enforced_attacks"] += 1;
                e["detected"] += r.violationDetected;
            }
        }
    }
    return e;
}

/**
 * Loads-weighted alias-predictor accuracy over the capability
 * variants' runs (RunResult carries a rate, not its denominator).
 */
double
aliasAccuracy(const PassOut &p)
{
    double num = 0.0, den = 0.0;
    for (size_t i = 0; i < p.jobs.size(); ++i) {
        if (p.report.jobs[i].failed)
            continue;
        for (const SimRun &run : p.jobs[i].runs) {
            if (!usesCapabilities(run.variant))
                continue;
            num += run.r.aliasPredAccuracy *
                   static_cast<double>(run.r.loads);
            den += static_cast<double>(run.r.loads);
        }
    }
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Simulated accuracy against the paper: mean over SPEC and PARSEC of
 * |geomean(ucode-pred cycles / baseline cycles) - 1 - paper|, in
 * percentage points (paper: +14% SPEC, +9% PARSEC).
 */
double
overheadErrorPp(const Plan &plan, const PassOut &p)
{
    std::map<std::string, std::pair<uint64_t, uint64_t>> cycles;
    std::map<std::string, bool> parsec;
    for (size_t i = 0; i < p.jobs.size(); ++i) {
        const driver::JobSpec &spec = plan.specs[i];
        if (p.report.jobs[i].failed)
            continue;
        parsec[spec.profile.name] = spec.profile.isParsec;
        for (const SimRun &run : p.jobs[i].runs) {
            if (run.variant == VariantKind::Baseline)
                cycles[spec.profile.name].first = run.r.cycles;
            else if (run.variant == VariantKind::MicrocodePrediction)
                cycles[spec.profile.name].second = run.r.cycles;
        }
    }
    double log_sum[2] = {}, n[2] = {};
    for (const auto &[name, c] : cycles) {
        if (!c.first || !c.second)
            continue;
        int suite = parsec[name] ? 1 : 0;
        log_sum[suite] += std::log(static_cast<double>(c.second) /
                                   static_cast<double>(c.first));
        n[suite] += 1;
    }
    const double paper[2] = {0.14, 0.09};
    double err = 0.0;
    for (int s = 0; s < 2; ++s) {
        if (!n[s])
            return 0.0;
        err += std::fabs(std::exp(log_sum[s] / n[s]) - 1.0 - paper[s]);
    }
    return 100.0 * err / 2.0;
}

// ------------------------------------------------------------------
// Per-call host costs of the inner layers

/**
 * Median host nanoseconds per call of @p op over 11 batches, the
 * batch sized so the whole measurement takes about @p budget_s.
 */
template <class Op>
double
nsPerCall(Op &&op, double budget_s)
{
    uint64_t batch = 16;
    for (;;) {
        double start = now();
        for (uint64_t i = 0; i < batch; ++i)
            op();
        if (now() - start > budget_s / 40 || batch >= (1ull << 26))
            break;
        batch *= 4;
    }
    std::vector<double> samples;
    for (int k = 0; k < 11; ++k) {
        double start = now();
        for (uint64_t i = 0; i < batch; ++i)
            op();
        samples.push_back((now() - start) * 1e9 /
                          static_cast<double>(batch));
    }
    return median(samples);
}

/** Buffers laid out like the workload's live set. */
struct LiveSet
{
    std::vector<uint64_t> base;
    std::vector<uint64_t> size;
    uint64_t footprint = 0;

    LiveSet(const BenchmarkProfile &p, Rng &rng)
    {
        uint64_t lo = std::max<uint64_t>(8, p.allocSizeMin);
        uint64_t hi = std::max(lo, p.allocSizeMax);
        uint64_t at = layout::HeapBase;
        for (uint64_t i = 0; i < std::max<uint64_t>(1, p.maxLiveBuffers);
             ++i) {
            uint64_t sz = lo + rng.below(hi - lo + 1);
            base.push_back(at);
            size.push_back(sz);
            at += (sz + 16 + 15) & ~15ull;
        }
        footprint = at - layout::HeapBase;
    }
};

volatile uint64_t Sink; // keeps timed results observable

std::map<std::string, double>
perCallCosts(const Plan &plan, const Options &o, double budget_s)
{
    double each = budget_s / 9;
    Rng rng{o.seed};
    LiveSet live(plan.sizing, rng);
    Program prog;
    if (plan.name == "attack-sweep") {
        AttackCase attack;
        if (!findAttackByName("gen/mix", o.seed, &attack))
            throw std::runtime_error("cannot synthesize gen/mix");
        prog = attack.program;
    } else {
        prog = generateWorkload(plan.sizing, o.seed);
    }
    std::vector<CrackedInst> cracked;
    for (size_t i = 0; i < prog.numInsts(); ++i)
        cracked.push_back(Decoder::crack(prog.code[i], prog.addrOf(i)));
    uint64_t acc = 0;
    std::map<std::string, double> ns;

    size_t at = 0;
    ns["isa.crack_ns"] = nsPerCall(
        [&] {
            acc += Decoder::crack(prog.code[at], prog.addrOf(at))
                       .uops.size();
            at = at + 1 == prog.numInsts() ? 0 : at + 1;
        },
        each);

    {
        // Straight-line µop stream of the program's non-branch macros.
        struct Step
        {
            const CrackedInst *inst;
            uint64_t pc;
        };
        std::vector<Step> steps;
        for (size_t i = 0; i < cracked.size(); ++i) {
            bool branch = std::any_of(
                cracked[i].uops.begin(), cracked[i].uops.end(),
                [](const StaticUop &u) { return u.type == UopType::Branch; });
            if (!branch && !cracked[i].uops.empty())
                steps.push_back({&cracked[i], prog.addrOf(i)});
        }
        MemoryHierarchy hier(SystemConfig{}.hierarchy);
        Core core(SystemConfig{}.core, hier);
        size_t step = 0, uop = 0;
        ns["cpu.add_uop_ns"] = nsPerCall(
            [&] {
                const Step &s = steps[step];
                if (uop == 0)
                    core.beginMacro(s.pc, s.inst->path, MacroBranchInfo{});
                UopTimingIn in;
                in.uop = &s.inst->uops[uop];
                if (in.uop->hasMem)
                    in.effAddr = layout::HeapBase +
                                 (rng.below(live.footprint) & ~7ull);
                acc += core.addUop(in);
                if (++uop == s.inst->uops.size()) {
                    core.endMacro(false, 0);
                    uop = 0;
                    step = step + 1 == steps.size() ? 0 : step + 1;
                }
            },
            each);
    }

    {
        RegTagFile tags;
        uint64_t seq = 0;
        ns["tracker.commit_ns"] = nsPerCall(
            [&] {
                ++seq;
                tags.write(static_cast<RegId>(seq % 16),
                           static_cast<Pid>(1 + seq % live.base.size()),
                           seq);
                tags.commitUpTo(seq > 64 ? seq - 64 : 0);
            },
            each);
    }

    {
        std::vector<uint64_t> load_pcs;
        for (size_t i = 0; i < cracked.size(); ++i)
            for (const StaticUop &u : cracked[i].uops)
                if (u.type == UopType::Load) {
                    load_pcs.push_back(prog.addrOf(i));
                    break;
                }
        if (load_pcs.empty())
            load_pcs.push_back(prog.addrOf(0));
        AliasPredictor pred(SystemConfig{}.aliasPredictor);
        uint64_t k = 0;
        ns["tracker.alias_predict_ns"] = nsPerCall(
            [&] {
                uint64_t pc = load_pcs[k % load_pcs.size()];
                AliasPrediction p = pred.predict(pc);
                Pid actual = k % 3 ? static_cast<Pid>(
                                         1 + (k / 3) % live.base.size())
                                   : NoPid;
                acc += static_cast<uint64_t>(pred.update(pc, p, actual));
                ++k;
            },
            each);
    }

    {
        CapabilityTable table;
        std::vector<Pid> pids;
        Violation v;
        for (size_t i = 0; i < live.base.size(); ++i) {
            Pid pid = table.beginGeneration(live.size[i], &v);
            table.endGeneration(pid, live.base[i]);
            pids.push_back(pid);
        }
        ns["cap.check_ns"] = nsPerCall(
            [&] {
                size_t i = rng.below(pids.size());
                uint64_t off = rng.below(live.size[i]) & ~7ull;
                acc += table.check(pids[i], live.base[i] + off, 8,
                                   rng.next() & 1)
                           .ok();
            },
            each);
        ns["cap.gen_free_ns"] = nsPerCall(
            [&] {
                size_t i = rng.below(pids.size());
                table.beginFree(pids[i], live.base[i]);
                table.endFree(pids[i]);
                pids[i] = table.beginGeneration(live.size[i], &v);
                table.endGeneration(pids[i], live.base[i]);
            },
            each);
    }

    {
        MemoryHierarchy hier(SystemConfig{}.hierarchy);
        ns["mem.data_access_ns"] = nsPerCall(
            [&] {
                uint64_t r = rng.next();
                acc += hier.dataAccess(
                    layout::HeapBase + ((r >> 8) % live.footprint & ~7ull),
                    (r & 3) == 0);
            },
            each);
    }

    {
        // One spilled pointer at the head of every live buffer; walks
        // hit those words and miss the next one.
        AliasTable aliases;
        for (size_t i = 0; i < live.base.size(); ++i)
            aliases.set(live.base[i], static_cast<uint32_t>(i + 1));
        ns["mem.alias_walk_ns"] = nsPerCall(
            [&] {
                uint64_t r = rng.next();
                acc += aliases
                           .walk(live.base[(r >> 1) % live.base.size()] +
                                 (r & 1) * 8)
                           .pid;
            },
            each);
    }

    {
        SparseMemory mem;
        HeapAllocator heap(mem, layout::HeapBase, layout::HeapLimit);
        std::vector<uint64_t> ptrs;
        for (uint64_t sz : live.size)
            ptrs.push_back(heap.malloc(sz, nullptr));
        ns["heap.malloc_free_ns"] = nsPerCall(
            [&] {
                size_t i = rng.below(ptrs.size());
                heap.free(ptrs[i], nullptr);
                ptrs[i] = heap.malloc(live.size[i], nullptr);
            },
            each);
    }
    Sink = acc;
    return ns;
}

// ------------------------------------------------------------------
// Self time per layer

/**
 * Σ self time per layer (the span-name prefix before the first '.'):
 * each span's duration minus the union of its children's intervals.
 */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent)
            children[s.parent].push_back(&s);
    std::map<std::string, double> self;
    for (const Span &s : spans) {
        std::vector<std::pair<double, double>> iv;
        auto it = children.find(s.id);
        if (it != children.end())
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, reach = s.start;
        for (const auto &[lo, hi] : iv) {
            double from = std::max(lo, reach);
            if (hi > from) {
                covered += hi - from;
                reach = hi;
            }
        }
        std::string name = s.name;
        self[name.substr(0, name.find('.'))] +=
            (s.end - s.start) - covered;
    }
    return self;
}

void
writeSpans(const std::string &path, const Options &o,
           const std::vector<Span> &spans)
{
    std::ofstream f(path, std::ios::trunc);
    f << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
      << ", \"clock\": \"steady, seconds since harness start\", "
         "\"spans\": [";
    char buf[256];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"id\": %llu, \"parent\": %llu, \"job\": %llu, "
                      "\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f}",
                      i ? "," : "", static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.job), s.name,
                      s.start, s.end);
        f << buf;
    }
    f << "\n]}\n";
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------------
// Output

class Metrics
{
  public:
    /** @p kind: "host" (simulator cost) or "simulated" (the model). */
    void
    add(const std::string &name, double value, const char *unit,
        const char *kind)
    {
        doc.set(name, json::Value::object()
                          .set("value", value)
                          .set("unit", unit)
                          .set("kind", kind));
    }
    json::Value doc = json::Value::object();
};

/** Highest of these percentiles with >= 10 samples beyond it. */
std::pair<double, double>
tailPercentile(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        double beyond = static_cast<double>(v.size()) * (1 - pct / 100);
        if (beyond >= 10.0) {
            size_t idx = static_cast<size_t>(
                std::ceil(pct / 100 * static_cast<double>(v.size()))) - 1;
            return {pct, v[std::min(idx, v.size() - 1)]};
        }
    }
    return {100.0, v.empty() ? 0.0 : v.back()};
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

// ------------------------------------------------------------------
// Runs

/** What the passes of one run measured and checked. */
struct RunData
{
    Checks checks;
    std::map<std::string, uint64_t> exact; // of the first pass
    double aliasAccuracy = 0.0;
    double overheadErrPp = 0.0;
    double peakRss = 0.0; // MiB, at the end of the first pass
    std::vector<PassStats> untraced;
    std::vector<PassStats> traced;
    uint64_t retries = 0;
    uint64_t jobsFailed = 0;
    uint64_t reportBytes = 0;

    double
    count(const char *key) const
    {
        auto it = exact.find(key);
        return it == exact.end() ? 0.0 : static_cast<double>(it->second);
    }
};

/** Median over @p passes of a PassStats field or function. */
template <class F>
double
medianOf(const std::vector<PassStats> &passes, F field)
{
    std::vector<double> v;
    for (const PassStats &s : passes)
        v.push_back(std::invoke(field, s));
    return median(v);
}

double
ratio(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

/**
 * Passes until @p budget_s host seconds are spent. In a traced run,
 * untraced and traced passes alternate; the first pass is untraced
 * and is the reference every later pass must repeat.
 */
RunData
runPasses(const Plan &plan, const Options &o, const Expected *expect,
          SpanLog &log, double budget_s)
{
    RunData d;
    std::vector<uint64_t> reference;
    double start = now();
    for (size_t k = 0;; ++k) {
        bool tracing = o.trace && k % 2 == 1;
        PassOut p = runPass(plan, o, tracing ? &log : nullptr, k == 0);
        checkPass(plan, p, reference, expect, d.checks);
        for (const driver::JobResult &jr : p.report.jobs) {
            d.retries += jr.attempts > 1 ? jr.attempts - 1 : 0;
            d.jobsFailed += jr.failed;
        }
        d.reportBytes = p.reportBytes;
        if (k == 0) {
            d.peakRss = peakRssMiB();
            for (size_t i = 0; i < p.jobs.size(); ++i)
                reference.push_back(p.report.jobs[i].failed
                                        ? 0
                                        : fingerprint(p.jobs[i]));
            d.exact = exactCounts(plan, p);
            d.aliasAccuracy = aliasAccuracy(p);
            if (plan.name == "spec-matrix")
                d.overheadErrPp = overheadErrorPp(plan, p);
        }
        (tracing ? d.traced : d.untraced).push_back(measurePass(plan, p));
        std::fprintf(stderr, "pass %zu%s: %zu jobs in %.3f s\n", k,
                     tracing ? " (traced)" : "", p.jobs.size(), p.wall);

        bool need_more = o.trace && d.traced.empty();
        if (!need_more &&
            now() - start + medianOf(d.untraced, &PassStats::wall) >
                budget_s)
            return d;
    }
}

void
addEndToEnd(const RunData &d, Metrics &m)
{
    m.add("jobs_per_s", medianOf(d.untraced, &PassStats::jobsPerS),
          "jobs/s", "host");
    m.add("sim_uops_per_s", medianOf(d.untraced, &PassStats::uopsPerS),
          "uops/s", "host");
    m.add("chex_host_ratio", medianOf(d.untraced, &PassStats::hostRatio),
          "ratio", "host");
    m.add("setup_s", medianOf(d.untraced, &PassStats::setup), "s",
          "host");
    m.add("peak_rss_mb", d.peakRss, "MiB", "host");
}

void
addPerLayer(const Plan &plan, const Options &o, const RunData &d,
            const SpanLog &log, double per_call_s, Metrics &m)
{
    const std::vector<PassStats> &t = d.traced;
    auto host = [&](const char *name, double v, const char *unit) {
        m.add(name, v, unit, "host");
    };
    auto sim = [&](const char *name, double v, const char *unit) {
        m.add(name, v, unit, "simulated");
    };

    double workers = o.workers ? o.workers : plan.workers;
    double campaign = medianOf(t, &PassStats::campaign);
    double busy = medianOf(t, &PassStats::busy);
    host("driver.campaign_s", campaign, "s");
    host("driver.busy_share", ratio(busy, workers * campaign), "ratio");
    host("driver.overhead_us_per_job",
         1e6 * (workers * campaign - busy) /
             static_cast<double>(plan.specs.size()),
         "us");
    host("driver.report_s", medianOf(t, &PassStats::reportS), "s");
    host("driver.report_bytes", static_cast<double>(d.reportBytes),
         "bytes");
    host("driver.security_report_s", medianOf(t, &PassStats::securityS),
         "s");
    host("driver.jobs_failed", static_cast<double>(d.jobsFailed), "count");
    host("driver.retries", static_cast<double>(d.retries), "count");

    host("workload.generate_s", medianOf(t, &PassStats::workloadGen), "s");
    sim("workload.insts",
        plan.name == "attack-sweep" ? 0.0 : d.count("insts"), "count");
    host("attacks.generate_s", medianOf(t, &PassStats::attackGen), "s");
    sim("attacks.cases", d.count("attack_cases"), "count");
    sim("attacks.baseline_valid",
        ratio(d.count("baseline_valid"), d.count("baseline_checked")),
        "ratio");

    host("sim.construct_s", medianOf(t, &PassStats::construct), "s");
    host("sim.load_s", medianOf(t, &PassStats::load), "s");
    host("sim.run_s", medianOf(t, &PassStats::run), "s");
    std::vector<double> job_ms;
    for (const PassStats &s : t)
        job_ms.insert(job_ms.end(), s.jobMs.begin(), s.jobMs.end());
    auto [tail_pct, tail_ms] = tailPercentile(job_ms);
    host("sim.job_ms.p50", median(job_ms), "ms");
    host("sim.job_ms.tail", tail_ms, "ms");
    host("sim.job_ms.tail_pct", tail_pct, "pct");
    host("sim.job_ms.samples", static_cast<double>(job_ms.size()),
         "count");
    for (size_t v = 0; v < NumVariants; ++v) {
        m.add(std::string("sim.ns_per_uop.") + Variants[v].token,
              medianOf(t, [v](const PassStats &s) {
                  return s.sums.nsPerUop(v);
              }),
              "ns", "host");
    }
    sim("sim.macro_ops", d.count("macro_ops"), "count");
    sim("sim.uops", d.count("uops"), "count");
    sim("sim.cycles", d.count("cycles"), "count");

    host("snapshot.save_s", medianOf(t, &PassStats::save), "s");
    host("snapshot.restore_s", medianOf(t, &PassStats::restore), "s");
    host("snapshot.bytes", d.count("snapshot_bytes"), "bytes");

    sim("isa.uop_expansion", ratio(d.count("uops"), d.count("macro_ops")),
        "ratio");
    sim("ucode.injected_uops", d.count("injected_uops"), "count");
    sim("ucode.cap_checks", d.count("cap_checks"), "count");
    sim("ucode.zero_idiom_checks", d.count("zero_idiom_checks"), "count");
    sim("cpu.ipc", ratio(d.count("uops"), d.count("cycles")), "ratio");
    sim("cpu.branch_mispredicts", d.count("branch_mispredicts"), "count");
    sim("cpu.squash_cycles", d.count("squash_cycles"), "count");
    sim("tracker.alias_pred_accuracy", d.aliasAccuracy, "ratio");
    sim("tracker.p0an_flushes", d.count("p0an_flushes"), "count");
    sim("tracker.pman_forwards", d.count("pman_forwards"), "count");
    sim("tracker.pointer_reloads", d.count("pointer_reloads"), "count");
    sim("cap.cache_accesses", d.count("cap_cache_accesses"), "count");
    sim("cap.cache_miss_rate",
        ratio(d.count("cap_cache_misses"), d.count("cap_cache_accesses")),
        "ratio");
    sim("cap.shadow_bytes", d.count("shadow_bytes"), "bytes");
    sim("mem.alias_cache_accesses", d.count("alias_cache_accesses"),
        "count");
    sim("mem.alias_cache_miss_rate",
        ratio(d.count("alias_cache_misses"),
              d.count("alias_cache_accesses")),
        "ratio");
    sim("mem.l1d_miss_rate",
        ratio(d.count("l1d_misses"), d.count("l1d_accesses")), "ratio");
    sim("mem.dram_bytes", d.count("dram_bytes"), "bytes");
    sim("heap.allocations", d.count("allocations"), "count");
    sim("heap.max_live", d.count("max_live"), "count");

    for (const auto &[name, ns] : perCallCosts(plan, o, per_call_s))
        m.add(name, ns, "ns", "host");

    std::map<std::string, double> self = selfTimes(log.spans());
    for (const char *layer :
         {"driver", "workload", "attacks", "sim", "snapshot"})
        m.add(std::string(layer) + ".self_s",
              self[layer] / static_cast<double>(t.size()), "s", "host");

    host("trace.overhead_pct",
         100.0 * (ratio(medianOf(t, &PassStats::wall),
                        medianOf(d.untraced, &PassStats::wall)) -
                  1.0),
         "pct");
    host("trace.jobs_per_s", medianOf(t, &PassStats::jobsPerS), "jobs/s");
    host("trace.sim_uops_per_s", medianOf(t, &PassStats::uopsPerS),
         "uops/s");
    host("trace.setup_s", medianOf(t, &PassStats::setup), "s");
    host("trace.spans", static_cast<double>(log.spans().size()), "count");
}

int
runBenchmark(const Options &o)
{
    Plan plan;
    if (o.workload == "spec-matrix")
        plan = specMatrix(o);
    else if (o.workload == "server-scale")
        plan = serverScale(o);
    else if (o.workload == "attack-sweep")
        plan = attackSweep(o);
    else
        usage(("unknown workload " + o.workload).c_str());

    std::unique_ptr<Expected> expect;
    if (!o.expectPath.empty())
        expect = std::make_unique<Expected>(loadExpected(o.expectPath));

    // The last quarter of a traced run times the inner layers per call.
    double budget = o.trace ? 0.75 * o.seconds : o.seconds;
    SpanLog log;
    RunData d = runPasses(plan, o, expect.get(), log, budget);

    Metrics m;
    if (o.trace) {
        addPerLayer(plan, o, d, log, std::max(0.9, o.seconds - budget), m);
        writeSpans(o.outDir + "/" + plan.name + "-spans.json", o,
                   log.spans());
    } else {
        addEndToEnd(d, m);
    }

    // Exact simulated outcomes, printed by run.py outside the result
    // line (which carries the same metrics on every workload).
    Metrics info;
    if (plan.name == "spec-matrix")
        info.add("sim_overhead_err_pp", d.overheadErrPp, "pct-points",
                 "simulated");
    if (plan.name == "attack-sweep")
        info.add("detection_rate",
                 ratio(d.count("detected"), d.count("enforced_attacks")),
                 "ratio", "simulated");
    info.add("passes",
             static_cast<double>(d.untraced.size() + d.traced.size()),
             "count", "host");

    json::Value exact = json::Value::object();
    for (const auto &[name, v] : d.exact)
        exact.set(name, v);
    json::Value reasons = json::Value::array();
    for (const std::string &r : d.checks.reasons)
        reasons.push(r);
    json::Value doc = json::Value::object()
                          .set("workload", plan.name)
                          .set("seed", o.seed)
                          .set("attempted", d.checks.attempted)
                          .set("failed", d.checks.failed)
                          .set("failures", std::move(reasons))
                          .set("metrics", std::move(m.doc))
                          .set("info", std::move(info.doc))
                          .set("exact", std::move(exact));
    doc.write(std::cout);
    std::cout << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    try {
        return runBenchmark(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "chexbench: %s\n", e.what());
        return 1;
    }
}
