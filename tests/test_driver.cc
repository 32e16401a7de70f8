/**
 * @file
 * Campaign-driver tests: scheduling-independent determinism (an
 * N-thread campaign reproduces the 1-thread campaign bit for bit),
 * per-job failure isolation and bounded retry, fork-isolated workers
 * (panic/SIGKILL/timeout capture, cross-process result streaming),
 * seed derivation, the result cache (spec hashing, hit/miss on
 * spec/seed/scale changes, failed jobs never satisfying, cached
 * bit-identity), campaign sharding (the union of K shards is
 * bit-identical to the unsharded run) and report merging (seed /
 * option / coverage validation), the campaign report / single-run stats
 * serialization in both directions (v1-v5 parse), snapshot-fanned
 * campaigns (bit-identity vs from-scratch, folded spec hashes
 * keeping cache modes apart), record/replay of report rows
 * (reproduced failure causes, refusal of unreconstructible rows),
 * the bench env-knob validation, and the campaign CLI leaving a
 * previous report intact when it refuses an input.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/json.hh"
#include "base/logging.hh"
#include "driver/campaign.hh"
#include "driver/env.hh"
#include "driver/merge.hh"
#include "driver/replay.hh"
#include "driver/report.hh"
#include "driver/spec_hash.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

#include "../bench/common.hh"

namespace chex
{
namespace
{

/** A tiny profile so each job runs in milliseconds. */
BenchmarkProfile
tinyProfile(const char *name = "tiny")
{
    BenchmarkProfile p;
    p.name = name;
    p.totalAllocations = 40;
    p.maxLiveBuffers = 16;
    p.buffersInUse = 4;
    p.iterations = 400;
    p.scheduleLength = 128;
    return p;
}

/** An 8-job campaign mixing variants and repetitions. */
std::vector<driver::JobSpec>
eightJobs()
{
    const VariantKind kinds[] = {
        VariantKind::Baseline,
        VariantKind::MicrocodePrediction,
        VariantKind::MicrocodeAlwaysOn,
        VariantKind::Asan,
    };
    std::vector<driver::JobSpec> jobs;
    for (unsigned rep = 0; rep < 2; ++rep) {
        for (VariantKind kind : kinds) {
            driver::JobSpec spec;
            spec.label = std::string(variantName(kind)) + "#" +
                         std::to_string(rep);
            spec.profile = tinyProfile();
            spec.config.variant.kind = kind;
            spec.repetition = rep;
            // No pinned seed: derived from (campaign seed, index).
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

TEST(JobSeed, DeterministicNonZeroAndSpread)
{
    EXPECT_EQ(driver::jobSeed(1, 0), driver::jobSeed(1, 0));
    std::set<uint64_t> seen;
    for (size_t i = 0; i < 100; ++i) {
        uint64_t s = driver::jobSeed(42, i);
        EXPECT_NE(s, 0u);
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 100u); // no collisions in a small sweep
    EXPECT_NE(driver::jobSeed(1, 0), driver::jobSeed(2, 0));
}

TEST(Campaign, ParallelMatchesSerial)
{
    std::vector<driver::JobSpec> jobs = eightJobs();

    driver::CampaignOptions serial;
    serial.workers = 1;
    serial.seed = 7;
    driver::CampaignReport a = driver::runCampaign(jobs, serial);

    driver::CampaignOptions parallel;
    parallel.workers = 4;
    parallel.seed = 7;
    driver::CampaignReport b = driver::runCampaign(jobs, parallel);

    ASSERT_EQ(a.jobs.size(), jobs.size());
    ASSERT_EQ(b.jobs.size(), jobs.size());
    EXPECT_EQ(a.jobsFailed, 0u);
    EXPECT_EQ(b.jobsFailed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(a.jobs[i].label);
        EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
        EXPECT_EQ(a.jobs[i].run.cycles, b.jobs[i].run.cycles);
        EXPECT_EQ(a.jobs[i].run.macroOps, b.jobs[i].run.macroOps);
        EXPECT_EQ(a.jobs[i].run.uops, b.jobs[i].run.uops);
        EXPECT_EQ(a.jobs[i].run.violations.size(),
                  b.jobs[i].run.violations.size());
        EXPECT_EQ(a.jobs[i].run.capChecksInjected,
                  b.jobs[i].run.capChecksInjected);
    }
}

TEST(Campaign, DerivedSeedsDifferAcrossRepetitions)
{
    driver::CampaignReport r =
        driver::runCampaign(eightJobs(), {});
    ASSERT_EQ(r.jobs.size(), 8u);
    // Same (profile, variant) point, different repetition => the
    // derived seeds differ, so the generated workloads are
    // statistically independent. (Cycle counts may still coincide
    // on a workload this small, so only the seeds are asserted.)
    EXPECT_NE(r.jobs[0].seed, r.jobs[4].seed);
}

TEST(Campaign, ThrowingJobIsIsolated)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[3].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        throw std::runtime_error("injected fault");
    };

    driver::CampaignOptions opts;
    opts.workers = 2;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    EXPECT_EQ(r.jobsRun, jobs.size());
    EXPECT_EQ(r.jobsFailed, 1u);
    EXPECT_TRUE(r.jobs[3].failed);
    EXPECT_EQ(r.jobs[3].error, "injected fault");
    EXPECT_EQ(r.jobs[3].attempts, 1u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_FALSE(r.jobs[i].failed) << i;
        EXPECT_TRUE(r.jobs[i].run.exited) << i;
    }
}

TEST(Campaign, BoundedRetryRecovers)
{
    auto flaky_failures = std::make_shared<std::atomic<int>>(2);
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[1].body = [flaky_failures](const driver::JobSpec &spec,
                                    uint64_t seed) -> RunResult {
        if (flaky_failures->fetch_sub(1) > 0)
            throw std::runtime_error("transient");
        System sys(spec.config);
        sys.load(generateWorkload(spec.profile, seed));
        return sys.run();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.maxAttempts = 3;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    EXPECT_EQ(r.jobsFailed, 0u);
    EXPECT_EQ(r.jobs[1].attempts, 3u);
    EXPECT_TRUE(r.jobs[1].run.exited);
    EXPECT_EQ(r.jobs[0].attempts, 1u);
}

TEST(Campaign, WallSecondsAccumulateAcrossAttempts)
{
    auto failures = std::make_shared<std::atomic<int>>(2);
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    jobs[1].body = [failures](const driver::JobSpec &spec,
                              uint64_t seed) -> RunResult {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (failures->fetch_sub(1) > 0)
            throw std::runtime_error("transient");
        System sys(spec.config);
        sys.load(generateWorkload(spec.profile, seed));
        return sys.run();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.maxAttempts = 3;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_FALSE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].attempts, 3u);
    ASSERT_EQ(r.jobs[1].attemptSeconds.size(), 3u);
    // The reported wall time is the whole cost of the job — the sum
    // of every attempt, not just the final (successful) one.
    double sum = 0.0;
    for (double s : r.jobs[1].attemptSeconds) {
        EXPECT_GE(s, 0.01);
        sum += s;
    }
    EXPECT_DOUBLE_EQ(r.jobs[1].wallSeconds, sum);
    EXPECT_GE(r.jobs[1].wallSeconds, 0.03);
    ASSERT_EQ(r.jobs[0].attemptSeconds.size(), 1u);
    EXPECT_DOUBLE_EQ(r.jobs[0].wallSeconds,
                     r.jobs[0].attemptSeconds[0]);
}

TEST(Campaign, SummaryAggregates)
{
    driver::CampaignReport r =
        driver::runCampaign(eightJobs(), {});
    EXPECT_EQ(r.jobsRun, 8u);
    EXPECT_EQ(r.jobsFailed, 0u);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.totalUops, 0u);
    EXPECT_GT(r.aggregateIpc, 0.0);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_GE(r.serialSeconds, 0.0);
}

TEST(Isolation, PanicIsCapturedAsSignalWhileSiblingsComplete)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[2].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        chex_panic("deliberate test panic"); // aborts the child
    };

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.isolation = true;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    EXPECT_EQ(r.jobsRun, jobs.size());
    EXPECT_EQ(r.jobsFailed, 1u);
    ASSERT_TRUE(r.jobs[2].failed);
    EXPECT_EQ(r.jobs[2].cause, driver::FailureCause::Signal);
    EXPECT_EQ(r.jobs[2].termSignal, SIGABRT);
    EXPECT_EQ(r.jobs[2].exitCode, 0);
    EXPECT_NE(r.jobs[2].error.find("signal"), std::string::npos)
        << r.jobs[2].error;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_FALSE(r.jobs[i].failed) << i;
        EXPECT_TRUE(r.jobs[i].run.exited) << i;
    }
}

TEST(Isolation, WatchdogKillsStuckJobAndRetries)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(3);
    jobs[0].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        for (;;) // never hits any cap; only the watchdog ends this
            std::this_thread::sleep_for(std::chrono::seconds(1));
    };

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.isolation = true;
    opts.timeoutSeconds = 0.2;
    opts.maxAttempts = 2; // timeouts participate in bounded retry
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_TRUE(r.jobs[0].failed);
    EXPECT_EQ(r.jobs[0].cause, driver::FailureCause::Timeout);
    EXPECT_EQ(r.jobs[0].termSignal, SIGKILL);
    EXPECT_EQ(r.jobs[0].exitCode, 0);
    EXPECT_EQ(r.jobs[0].attempts, 2u);
    ASSERT_EQ(r.jobs[0].attemptSeconds.size(), 2u);
    for (double s : r.jobs[0].attemptSeconds)
        EXPECT_GE(s, 0.2);
    EXPECT_FALSE(r.jobs[1].failed);
    EXPECT_FALSE(r.jobs[2].failed);
}

TEST(Isolation, PanicAndHangInOneCampaignMatchInProcessElsewhere)
{
    // The acceptance scenario: one campaign holding a panicking job
    // AND a never-terminating job completes under isolation, marks
    // exactly those two failed with causes signal and timeout, and
    // every other job is bit-identical to an in-process run of the
    // same campaign seed.
    std::vector<driver::JobSpec> jobs = eightJobs();

    driver::CampaignOptions in_process;
    in_process.workers = 1;
    in_process.seed = 21;
    driver::CampaignReport ref = driver::runCampaign(jobs, in_process);
    ASSERT_EQ(ref.jobsFailed, 0u);

    jobs[1].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        chex_panic("deliberate test panic");
    };
    jobs[5].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    };

    driver::CampaignOptions isolated;
    isolated.workers = 3;
    isolated.seed = 21;
    isolated.isolation = true;
    isolated.timeoutSeconds = 0.3;
    driver::CampaignReport r = driver::runCampaign(jobs, isolated);

    EXPECT_EQ(r.jobsRun, jobs.size());
    EXPECT_EQ(r.jobsFailed, 2u);
    ASSERT_TRUE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].cause, driver::FailureCause::Signal);
    ASSERT_TRUE(r.jobs[5].failed);
    EXPECT_EQ(r.jobs[5].cause, driver::FailureCause::Timeout);
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 1 || i == 5)
            continue;
        SCOPED_TRACE(ref.jobs[i].label);
        EXPECT_FALSE(r.jobs[i].failed);
        EXPECT_EQ(r.jobs[i].seed, ref.jobs[i].seed);
        EXPECT_EQ(r.jobs[i].run.cycles, ref.jobs[i].run.cycles);
        EXPECT_EQ(r.jobs[i].run.uops, ref.jobs[i].run.uops);
        EXPECT_EQ(r.jobs[i].run.macroOps, ref.jobs[i].run.macroOps);
        EXPECT_DOUBLE_EQ(r.jobs[i].run.ipc, ref.jobs[i].run.ipc);
    }
}

TEST(Isolation, ExceptionCrossesTheProcessBoundary)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    jobs[1].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        throw std::runtime_error("thrown in the child");
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.isolation = true;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_TRUE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].cause, driver::FailureCause::Exception);
    EXPECT_EQ(r.jobs[1].error, "thrown in the child");
    EXPECT_EQ(r.jobs[1].exitCode, 0);
    EXPECT_EQ(r.jobs[1].termSignal, 0);
    EXPECT_FALSE(r.jobs[0].failed);
}

TEST(Isolation, NonzeroExitIsCaptured)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    jobs[0].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        ::_exit(7); // child vanishes without reporting a result
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.isolation = true;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_TRUE(r.jobs[0].failed);
    EXPECT_EQ(r.jobs[0].cause, driver::FailureCause::NonzeroExit);
    EXPECT_EQ(r.jobs[0].exitCode, 7);
    EXPECT_EQ(r.jobs[0].termSignal, 0);
    EXPECT_FALSE(r.jobs[1].failed);
}

TEST(Isolation, MatchesInProcessBitForBit)
{
    std::vector<driver::JobSpec> jobs = eightJobs();

    driver::CampaignOptions in_process;
    in_process.workers = 1;
    in_process.seed = 7;
    driver::CampaignReport a = driver::runCampaign(jobs, in_process);

    driver::CampaignOptions isolated;
    isolated.workers = 3;
    isolated.seed = 7;
    isolated.isolation = true;
    isolated.timeoutSeconds = 120.0;
    driver::CampaignReport b = driver::runCampaign(jobs, isolated);

    EXPECT_EQ(a.jobsFailed, 0u);
    EXPECT_EQ(b.jobsFailed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(a.jobs[i].label);
        EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
        EXPECT_EQ(a.jobs[i].run.cycles, b.jobs[i].run.cycles);
        EXPECT_EQ(a.jobs[i].run.macroOps, b.jobs[i].run.macroOps);
        EXPECT_EQ(a.jobs[i].run.uops, b.jobs[i].run.uops);
        EXPECT_DOUBLE_EQ(a.jobs[i].run.ipc, b.jobs[i].run.ipc);
        EXPECT_EQ(a.jobs[i].run.capChecksInjected,
                  b.jobs[i].run.capChecksInjected);
        EXPECT_EQ(a.jobs[i].run.violations.size(),
                  b.jobs[i].run.violations.size());
        EXPECT_EQ(a.jobs[i].run.dramBytes, b.jobs[i].run.dramBytes);
        EXPECT_DOUBLE_EQ(a.jobs[i].run.capCacheMissRate,
                         b.jobs[i].run.capCacheMissRate);
    }
}

TEST(Report, CampaignJsonRoundTrips)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[5].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        throw std::runtime_error("boom");
    };
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 11;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::ostringstream ss;
    driver::writeReport(report, ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;

    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v6");
    EXPECT_EQ(doc.at("seed").number(), 11.0);
    // An unsharded campaign is shard 0 of 1 with nothing skipped.
    EXPECT_EQ(doc.at("shard").at("index").number(), 0.0);
    EXPECT_EQ(doc.at("shard").at("count").number(), 1.0);
    const json::Value &summary = doc.at("summary");
    EXPECT_EQ(summary.at("jobsRun").number(), 8.0);
    EXPECT_EQ(summary.at("jobsFailed").number(), 1.0);
    EXPECT_EQ(summary.at("jobsCached").number(), 0.0);
    EXPECT_EQ(summary.at("jobsSkipped").number(), 0.0);

    const json::Value &jarr = doc.at("jobs");
    ASSERT_EQ(jarr.size(), 8u);
    for (size_t i = 0; i < jarr.size(); ++i) {
        const json::Value &job = jarr.at(i);
        EXPECT_EQ(job.at("index").number(), double(i));
        EXPECT_FALSE(job.at("cached").boolean());
        // Body-override jobs (index 5) are uncacheable: specHash 0.
        EXPECT_EQ(job.at("specHash").str(),
                  i == 5 ? "0000000000000000"
                         : driver::specHashHex(report.jobs[i].specHash));
        if (i == 5) {
            EXPECT_EQ(job.at("status").str(), "failed");
            EXPECT_EQ(job.at("error").str(), "boom");
            EXPECT_EQ(job.find("result"), nullptr);
            EXPECT_EQ(job.find("exitStatus"), nullptr);
            EXPECT_EQ(job.at("exitCode").number(), 0.0);
            EXPECT_EQ(job.at("signal").number(), 0.0);
        } else {
            EXPECT_EQ(job.at("status").str(), "ok");
            const json::Value &res = job.at("result");
            EXPECT_EQ(res.at("cycles").number(),
                      double(report.jobs[i].run.cycles));
            EXPECT_EQ(res.at("uops").number(),
                      double(report.jobs[i].run.uops));
            EXPECT_TRUE(res.at("exited").boolean());
            EXPECT_TRUE(res.at("violations").isArray());
        }
    }
}

TEST(Report, V5RoundTripsThroughFromJson)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(4);
    jobs[2].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        throw std::runtime_error("boom");
    };
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 13;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::ostringstream ss;
    driver::writeReport(report, ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v6");

    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(back.seed, report.seed);
    EXPECT_EQ(back.workers, report.workers);
    EXPECT_EQ(back.shardIndex, 0u);
    EXPECT_EQ(back.shardCount, 1u);
    EXPECT_EQ(back.jobsSkipped, 0u);
    EXPECT_EQ(back.jobsRun, report.jobsRun);
    EXPECT_EQ(back.jobsFailed, 1u);
    EXPECT_EQ(back.jobsCached, 0u);
    EXPECT_EQ(back.totalCycles, report.totalCycles);
    EXPECT_EQ(back.totalUops, report.totalUops);
    ASSERT_EQ(back.jobs.size(), report.jobs.size());
    for (size_t i = 0; i < back.jobs.size(); ++i) {
        SCOPED_TRACE(report.jobs[i].label);
        EXPECT_EQ(back.jobs[i].label, report.jobs[i].label);
        EXPECT_EQ(back.jobs[i].seed, report.jobs[i].seed);
        EXPECT_EQ(back.jobs[i].specHash, report.jobs[i].specHash);
        EXPECT_EQ(back.jobs[i].cached, report.jobs[i].cached);
        EXPECT_EQ(back.jobs[i].skipped, report.jobs[i].skipped);
        EXPECT_EQ(back.jobs[i].failed, report.jobs[i].failed);
        EXPECT_EQ(back.jobs[i].cause, report.jobs[i].cause);
        EXPECT_EQ(back.jobs[i].exitCode, report.jobs[i].exitCode);
        EXPECT_EQ(back.jobs[i].termSignal,
                  report.jobs[i].termSignal);
        EXPECT_EQ(back.jobs[i].attempts, report.jobs[i].attempts);
        EXPECT_EQ(back.jobs[i].attemptSeconds.size(),
                  report.jobs[i].attemptSeconds.size());
        if (report.jobs[i].failed) {
            EXPECT_EQ(back.jobs[i].error, report.jobs[i].error);
        } else {
            EXPECT_EQ(back.jobs[i].run.cycles,
                      report.jobs[i].run.cycles);
            EXPECT_EQ(back.jobs[i].run.uops, report.jobs[i].run.uops);
            EXPECT_DOUBLE_EQ(back.jobs[i].run.ipc,
                             report.jobs[i].run.ipc);
            EXPECT_EQ(back.jobs[i].run.exited,
                      report.jobs[i].run.exited);
        }
    }
}

/**
 * A minimal hand-written v6 report: one ok row and one failed row.
 * @p drop names a required member to leave out, @p mistype one to
 * write with the wrong JSON kind.
 */
json::Value
v6Fixture(const std::string &drop = "", const std::string &mistype = "")
{
    auto put = [&](json::Value &obj, const std::string &key,
                   json::Value v) {
        if (key == drop)
            return;
        if (key == mistype)
            v = v.isString() ? json::Value(uint64_t{1})
                             : json::Value("wrong kind");
        obj.set(key, std::move(v));
    };
    json::Value doc = json::Value::object();
    doc.set("schema", "chex-campaign-report-v6");
    doc.set("seed", uint64_t{5});
    doc.set("workers", 1);
    put(doc, "shard",
        json::Value::object().set("index", 0).set("count", 1));
    // Every member the writer emits is required: the summary block
    // and the ok row's result come from the writer itself.
    doc.set("summary",
            driver::toJson(driver::CampaignReport()).at("summary"));
    json::Value jobs = json::Value::array();
    for (bool failed : {false, true}) {
        json::Value job = json::Value::object();
        job.set("index", failed ? 1 : 0);
        job.set("label", failed ? "lbm/baseline" : "mcf/baseline");
        job.set("profile", failed ? "lbm" : "mcf");
        job.set("variant", "baseline");
        job.set("seed", uint64_t{5});
        job.set("repetition", 0);
        put(job, "specHash", "00000000deadbeef");
        put(job, "cached", false);
        put(job, "fromSnapshot", false);
        put(job, "status", failed ? "failed" : "ok");
        job.set("attempts", 1);
        job.set("wallSeconds", 0.5);
        job.set("attemptSeconds", json::Value::array().push(0.5));
        if (failed) {
            job.set("error", "exited with status 7");
            put(job, "cause", "nonzero-exit");
            put(job, "exitCode", 7);
            put(job, "signal", 0);
        } else {
            RunResult run;
            run.cycles = 200;
            job.set("result", driver::toJson(run));
        }
        jobs.push(std::move(job));
    }
    doc.set("jobs", std::move(jobs));
    return doc;
}

TEST(Report, RejectsPreV6SchemaTags)
{
    driver::CampaignReport report;
    std::string err;
    ASSERT_TRUE(driver::fromJson(v6Fixture(), report, &err)) << err;
    // Reports are regenerated, never stored across versions: every
    // earlier tag is an unknown schema, even with v6-shaped members.
    for (int version = 1; version <= 5; ++version) {
        json::Value doc = v6Fixture();
        doc.set("schema",
                csprintf("chex-campaign-report-v%d", version));
        err.clear();
        EXPECT_FALSE(driver::fromJson(doc, report, &err)) << version;
        EXPECT_NE(err.find("schema"), std::string::npos) << err;
    }
}

TEST(Report, RejectsMissingV6Members)
{
    driver::CampaignReport report;
    std::string err;
    ASSERT_TRUE(driver::fromJson(v6Fixture(), report, &err)) << err;
    ASSERT_EQ(report.jobs.size(), 2u);
    EXPECT_EQ(report.jobs[0].specHash, 0xdeadbeefull);
    EXPECT_EQ(report.jobs[1].cause, driver::FailureCause::NonzeroExit);
    EXPECT_EQ(report.jobs[1].exitCode, 7);

    for (const char *key : {"shard", "specHash", "cached", "fromSnapshot",
                            "status", "cause", "exitCode", "signal"}) {
        for (bool mistyped : {false, true}) {
            SCOPED_TRACE(csprintf("%s %s", key,
                                  mistyped ? "mistyped" : "missing"));
            json::Value doc = mistyped ? v6Fixture("", key)
                                       : v6Fixture(key);
            err.clear();
            EXPECT_FALSE(driver::fromJson(doc, report, &err));
            EXPECT_NE(err.find(csprintf("'%s'", key)),
                      std::string::npos)
                << err;
        }
    }

    json::Value doc = v6Fixture();
    json::Value bad_status = json::Value::array();
    for (json::Value job : doc.at("jobs").items())
        bad_status.push(job.set("status", "pending"));
    doc.set("jobs", std::move(bad_status));
    EXPECT_FALSE(driver::fromJson(doc, report, &err));
    EXPECT_NE(err.find("status"), std::string::npos) << err;
}

TEST(Report, RefusesAnyDroppedOrMistypedResultOrSummaryMember)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(1);
    driver::CampaignOptions opts;
    opts.workers = 1;
    const json::Value doc =
        driver::toJson(driver::runCampaign(jobs, opts));
    driver::CampaignReport back;
    std::string err;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;

    // @p obj with member @p key dropped, or set to a string.
    auto edit = [](const json::Value &obj, const std::string &key,
                   bool drop) {
        json::Value out = json::Value::object();
        for (const auto &[k, v] : obj.members()) {
            if (k != key)
                out.set(k, v);
            else if (!drop)
                out.set(k, "junk");
        }
        return out;
    };
    auto refuses = [&](const json::Value &bad, const std::string &key) {
        err.clear();
        EXPECT_FALSE(driver::fromJson(bad, back, &err)) << key;
        EXPECT_NE(err.find("'" + key + "'"), std::string::npos) << err;
    };
    const json::Value &job = doc.at("jobs").at(size_t{0});
    const json::Value &result = job.at("result");
    ASSERT_EQ(result.size(), 39u);
    for (const auto &[key, v] : result.members()) {
        for (bool drop : {true, false}) {
            json::Value row = job, bad = doc;
            row.set("result", edit(result, key, drop));
            refuses(bad.set("jobs", json::Value::array().push(row)), key);
        }
    }
    const json::Value &summary = doc.at("summary");
    ASSERT_EQ(summary.size(), 11u);
    for (const auto &[key, v] : summary.members()) {
        for (bool drop : {true, false}) {
            json::Value bad = doc;
            refuses(bad.set("summary", edit(summary, key, drop)), key);
        }
    }

    // A cache file whose row lacks its cycles and uops is refused
    // outright (the CLI's --cache exits 2 on it), not replayed as a
    // zero-cycle result.
    json::Value row = job, bad = doc;
    row.set("result", edit(edit(result, "cycles", true), "uops", true));
    bad.set("jobs", json::Value::array().push(row));
    std::string path = testing::TempDir() + "/chex_report_no_cycles.json";
    {
        std::ofstream out(path);
        bad.write(out, 2);
    }
    EXPECT_FALSE(driver::loadReportFile(path, back, &err));
    EXPECT_NE(err.find("'cycles'"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(Report, UnknownFailureCauseFallsBackWithWarning)
{
    bool known = true;
    EXPECT_EQ(driver::failureCauseFromName("bogus-token", &known),
              driver::FailureCause::Exception);
    EXPECT_FALSE(known);
    known = false;
    EXPECT_EQ(driver::failureCauseFromName("timeout", &known),
              driver::FailureCause::Timeout);
    EXPECT_TRUE(known);
    EXPECT_EQ(driver::failureCauseFromName("nonzero-exit"),
              driver::FailureCause::NonzeroExit);
}

TEST(Report, FromJsonRejectsUnknownSchema)
{
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(
        R"({"schema": "chex-campaign-report-v9", "jobs": []})", doc,
        nullptr));
    driver::CampaignReport report;
    std::string err;
    EXPECT_FALSE(driver::fromJson(doc, report, &err));
    EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(SpecHash, DeterministicAndSensitiveToEveryInput)
{
    driver::JobSpec a;
    a.profile = tinyProfile();
    uint64_t h = driver::specHash(a, 42);
    EXPECT_NE(h, 0u); // 0 is the uncacheable sentinel
    EXPECT_EQ(h, driver::specHash(a, 42));
    EXPECT_NE(h, driver::specHash(a, 43)); // seed feeds the hash

    driver::JobSpec b = a;
    b.profile.iterations += 1;
    EXPECT_NE(driver::specHash(b, 42), h);

    driver::JobSpec c = a;
    c.config.variant.kind = VariantKind::Asan;
    EXPECT_NE(driver::specHash(c, 42), h);

    driver::JobSpec d = a;
    d.config.capCacheEntries *= 2;
    EXPECT_NE(driver::specHash(d, 42), h);

    driver::JobSpec e = a;
    e.config.aliasPredictor.entries *= 2;
    EXPECT_NE(driver::specHash(e, 42), h);

    // Positional/cosmetic fields do not participate: the same point
    // hashes identically no matter where it sits in the job list.
    driver::JobSpec f = a;
    f.label = "renamed";
    f.repetition = 5;
    EXPECT_EQ(driver::specHash(f, 42), h);
}

TEST(SpecHash, HexRoundTrips)
{
    const uint64_t h = 0xdeadbeef01234567ull;
    std::string hex = driver::specHashHex(h);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(driver::specHashFromHex(hex), h);
    EXPECT_EQ(driver::specHashHex(0), "0000000000000000");
    // Malformed hex parses to the uncacheable sentinel, not garbage.
    EXPECT_EQ(driver::specHashFromHex(""), 0u);
    EXPECT_EQ(driver::specHashFromHex("zz"), 0u);
    EXPECT_EQ(driver::specHashFromHex("123"), 0u);
}

TEST(Cache, SecondRunIsFullySatisfiedAndBitIdentical)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 5;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 0u);
    EXPECT_EQ(first.jobsCached, 0u);

    // Round-trip the prior report through JSON exactly like a real
    // --cache file would travel.
    std::ostringstream ss;
    driver::writeReport(first, ss);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    driver::CampaignReport prior;
    ASSERT_TRUE(driver::fromJson(doc, prior, &err)) << err;

    driver::CampaignOptions cached = opts;
    cached.cacheReports.push_back(prior);
    size_t done_calls = 0;
    cached.onJobDone = [&](const driver::JobResult &jr) {
        EXPECT_TRUE(jr.cached);
        ++done_calls;
    };
    driver::CampaignReport second = driver::runCampaign(jobs, cached);

    EXPECT_EQ(second.jobsCached, jobs.size());
    EXPECT_EQ(second.jobsFailed, 0u);
    EXPECT_EQ(done_calls, jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(first.jobs[i].label);
        EXPECT_TRUE(second.jobs[i].cached);
        EXPECT_EQ(second.jobs[i].attempts, 0u);
        EXPECT_DOUBLE_EQ(second.jobs[i].wallSeconds, 0.0);
        EXPECT_EQ(second.jobs[i].seed, first.jobs[i].seed);
        EXPECT_EQ(second.jobs[i].specHash, first.jobs[i].specHash);
        EXPECT_EQ(second.jobs[i].run.cycles, first.jobs[i].run.cycles);
        EXPECT_EQ(second.jobs[i].run.uops, first.jobs[i].run.uops);
        EXPECT_EQ(second.jobs[i].run.macroOps,
                  first.jobs[i].run.macroOps);
        EXPECT_DOUBLE_EQ(second.jobs[i].run.ipc,
                         first.jobs[i].run.ipc);
        EXPECT_EQ(second.jobs[i].run.capChecksInjected,
                  first.jobs[i].run.capChecksInjected);
    }
}

TEST(Cache, MissesOnSpecSeedAndScaleChanges)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 5;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 0u);

    driver::CampaignOptions with_cache = opts;
    with_cache.cacheReports.push_back(first);

    // A profile-parameter change invalidates every hit.
    std::vector<driver::JobSpec> tweaked = jobs;
    for (driver::JobSpec &j : tweaked)
        j.profile.iterations += 100;
    driver::CampaignReport r1 =
        driver::runCampaign(tweaked, with_cache);
    EXPECT_EQ(r1.jobsCached, 0u);

    // A different campaign seed derives different workload seeds.
    driver::CampaignOptions reseeded = with_cache;
    reseeded.seed = 6;
    driver::CampaignReport r2 = driver::runCampaign(jobs, reseeded);
    EXPECT_EQ(r2.jobsCached, 0u);

    // A scale change (what CHEX_BENCH_SCALE does to a matrix)
    // rewrites the iteration counts, so nothing matches either.
    std::vector<driver::JobSpec> scaled = jobs;
    for (driver::JobSpec &j : scaled)
        j.profile = j.profile.scaledBy(2);
    ASSERT_NE(scaled[0].profile.iterations,
              jobs[0].profile.iterations);
    driver::CampaignReport r3 =
        driver::runCampaign(scaled, with_cache);
    EXPECT_EQ(r3.jobsCached, 0u);
}

TEST(Cache, FailedPriorJobsNeverSatisfy)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    // A default-body job that fails deterministically: the macro-op
    // cap ends the run before the workload can exit, which runSpec
    // reports as an error. Its spec still hashes (no body override),
    // so this exercises the failed-entries-stay-out rule rather than
    // the uncacheable-sentinel path.
    jobs[1].config.maxMacroOps = 10;

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = 9;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 1u);
    ASSERT_TRUE(first.jobs[1].failed);
    EXPECT_NE(first.jobs[1].specHash, 0u);

    driver::CampaignOptions with_cache = opts;
    with_cache.cacheReports.push_back(first);
    driver::CampaignReport second =
        driver::runCampaign(jobs, with_cache);

    EXPECT_TRUE(second.jobs[0].cached);
    EXPECT_FALSE(second.jobs[1].cached);
    EXPECT_EQ(second.jobs[1].attempts, 1u);
    EXPECT_TRUE(second.jobs[1].failed); // re-ran, failed again
    EXPECT_EQ(second.jobsCached, 1u);
}

TEST(Cache, BodyOverrideJobsNeverHitTheCache)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    // The body computes exactly what the default would, but the
    // driver cannot know that: a std::function's content is opaque,
    // so the job must be uncacheable in both directions.
    jobs[1].body = [](const driver::JobSpec &spec,
                      uint64_t seed) -> RunResult {
        System sys(spec.config);
        sys.load(generateWorkload(spec.profile, seed));
        return sys.run();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = 5;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 0u);
    EXPECT_EQ(first.jobs[1].specHash, 0u);

    driver::CampaignOptions with_cache = opts;
    with_cache.cacheReports.push_back(first);
    driver::CampaignReport second =
        driver::runCampaign(jobs, with_cache);

    EXPECT_TRUE(second.jobs[0].cached);
    EXPECT_FALSE(second.jobs[1].cached);
    EXPECT_EQ(second.jobs[1].attempts, 1u);
    EXPECT_EQ(second.jobsCached, 1u);
}

/** Run eightJobs() as @p count shards and return the shard reports. */
std::vector<driver::CampaignReport>
runSharded(const std::vector<driver::JobSpec> &jobs, unsigned count,
           uint64_t seed)
{
    std::vector<driver::CampaignReport> shards;
    for (unsigned i = 0; i < count; ++i) {
        driver::CampaignOptions opts;
        opts.workers = 2;
        opts.seed = seed;
        opts.shardIndex = i;
        opts.shardCount = count;
        shards.push_back(driver::runCampaign(jobs, opts));
    }
    return shards;
}

TEST(Shard, OutOfShardJobsBecomeSkippedPlaceholders)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 7;
    opts.shardIndex = 1;
    opts.shardCount = 2;
    size_t done_calls = 0;
    opts.onJobDone = [&](const driver::JobResult &jr) {
        EXPECT_FALSE(jr.skipped); // placeholders never reach the hook
        ++done_calls;
    };
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    EXPECT_EQ(report.shardIndex, 1u);
    EXPECT_EQ(report.shardCount, 2u);
    EXPECT_EQ(report.jobsSkipped, 4u);
    EXPECT_EQ(report.jobsRun, 4u);
    EXPECT_EQ(done_calls, 4u);
    ASSERT_EQ(report.jobs.size(), jobs.size());
    for (size_t i = 0; i < report.jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(report.jobs[i].index, i);
        EXPECT_EQ(report.jobs[i].skipped, i % 2 != 1);
        if (report.jobs[i].skipped) {
            // Identity fields survive for merge validation; nothing
            // was simulated.
            EXPECT_EQ(report.jobs[i].label, jobs[i].label);
            EXPECT_NE(report.jobs[i].seed, 0u);
            EXPECT_EQ(report.jobs[i].attempts, 0u);
            EXPECT_FALSE(report.jobs[i].cached);
            EXPECT_EQ(report.jobs[i].run.cycles, 0u);
        }
    }
}

TEST(Shard, UnionOfShardsIsBitIdenticalToUnsharded)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 7;
    driver::CampaignReport whole = driver::runCampaign(jobs, opts);
    ASSERT_EQ(whole.jobsFailed, 0u);

    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 3, 7);

    driver::CampaignReport merged;
    std::string err;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;

    EXPECT_EQ(merged.seed, whole.seed);
    EXPECT_EQ(merged.shardIndex, 0u);
    EXPECT_EQ(merged.shardCount, 1u);
    EXPECT_EQ(merged.jobsSkipped, 0u);
    EXPECT_EQ(merged.jobsRun, whole.jobsRun);
    EXPECT_EQ(merged.jobsFailed, whole.jobsFailed);
    EXPECT_EQ(merged.totalCycles, whole.totalCycles);
    EXPECT_EQ(merged.totalUops, whole.totalUops);
    ASSERT_EQ(merged.jobs.size(), whole.jobs.size());
    for (size_t i = 0; i < whole.jobs.size(); ++i) {
        SCOPED_TRACE(whole.jobs[i].label);
        EXPECT_FALSE(merged.jobs[i].skipped);
        EXPECT_EQ(merged.jobs[i].index, i);
        EXPECT_EQ(merged.jobs[i].seed, whole.jobs[i].seed);
        EXPECT_EQ(merged.jobs[i].specHash, whole.jobs[i].specHash);
        EXPECT_EQ(merged.jobs[i].run.cycles,
                  whole.jobs[i].run.cycles);
        EXPECT_EQ(merged.jobs[i].run.uops, whole.jobs[i].run.uops);
        EXPECT_EQ(merged.jobs[i].run.macroOps,
                  whole.jobs[i].run.macroOps);
        EXPECT_DOUBLE_EQ(merged.jobs[i].run.ipc,
                         whole.jobs[i].run.ipc);
    }
}

TEST(Shard, ShardReportJsonRoundTrips)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 3;
    opts.shardIndex = 0;
    opts.shardCount = 2;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::ostringstream ss;
    driver::writeReport(report, ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v6");
    EXPECT_EQ(doc.at("shard").at("index").number(), 0.0);
    EXPECT_EQ(doc.at("shard").at("count").number(), 2.0);
    EXPECT_EQ(doc.at("summary").at("jobsSkipped").number(), 4.0);
    const json::Value &jarr = doc.at("jobs");
    ASSERT_EQ(jarr.size(), jobs.size());
    for (size_t i = 0; i < jarr.size(); ++i) {
        SCOPED_TRACE(i);
        const json::Value &job = jarr.at(i);
        EXPECT_EQ(job.at("status").str(),
                  i % 2 == 0 ? "ok" : "skipped");
        if (i % 2 != 0) {
            EXPECT_EQ(job.find("result"), nullptr);
        }
    }

    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(back.shardIndex, 0u);
    EXPECT_EQ(back.shardCount, 2u);
    EXPECT_EQ(back.jobsSkipped, 4u);
    ASSERT_EQ(back.jobs.size(), report.jobs.size());
    for (size_t i = 0; i < back.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].skipped, report.jobs[i].skipped);
        EXPECT_EQ(back.jobs[i].seed, report.jobs[i].seed);
        EXPECT_EQ(back.jobs[i].run.cycles, report.jobs[i].run.cycles);
    }
}

TEST(Shard, FromJsonRejectsBadShardGeometry)
{
    const char *base = R"({
      "schema": "chex-campaign-report-v6",
      "seed": 1, "workers": 1,
      "shard": {"index": %s, "count": %s},
      "summary": {"jobsRun": 0, "jobsFailed": 0,
                  "wallSeconds": 0, "serialSeconds": 0,
                  "speedupVsSerial": 0, "totalCycles": 0,
                  "totalUops": 0, "aggregateIpc": 0},
      "jobs": []
    })";
    for (auto [index, count] : {std::pair<const char *, const char *>
                                    {"2", "2"},
                                {"0", "0"}}) {
        char buf[512];
        std::snprintf(buf, sizeof(buf), base, index, count);
        json::Value doc;
        ASSERT_TRUE(json::Value::parse(buf, doc, nullptr));
        driver::CampaignReport report;
        std::string err;
        EXPECT_FALSE(driver::fromJson(doc, report, &err));
        EXPECT_NE(err.find("shard"), std::string::npos) << err;
    }
}

TEST(Merge, RejectsMismatchedSeeds)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);
    driver::CampaignOptions other;
    other.workers = 2;
    other.seed = 8; // different campaign seed
    other.shardIndex = 1;
    other.shardCount = 2;
    shards[1] = driver::runCampaign(jobs, other);

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("seed"), std::string::npos) << err;
}

TEST(Merge, RejectsOverlappingShards)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);
    shards[1] = shards[0]; // the same shard twice

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("overlap"), std::string::npos) << err;
}

TEST(Merge, RejectsIncompleteShardSet)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 3, 7);
    shards.pop_back(); // shard 2 of 3 missing

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("incomplete"), std::string::npos) << err;
}

TEST(Merge, RejectsDisagreeingJobIdentity)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);
    // The shards were really run against different job lists: the
    // identity fields of any common index disagree.
    shards[1].jobs[0].specHash ^= 1;

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("options"), std::string::npos) << err;
}

TEST(Merge, RejectsEmptyInput)
{
    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports({}, merged, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Merge, MergedReportSatisfiesTheCache)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);

    driver::CampaignReport merged;
    std::string err;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;

    // Round-trip through JSON exactly like `merge --out` + `run
    // --cache` would, then re-run unsharded against the cache.
    std::ostringstream ss;
    driver::writeReport(merged, ss);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    driver::CampaignReport prior;
    ASSERT_TRUE(driver::fromJson(doc, prior, &err)) << err;

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 7;
    opts.cacheReports.push_back(prior);
    driver::CampaignReport second = driver::runCampaign(jobs, opts);

    EXPECT_EQ(second.jobsCached, jobs.size());
    EXPECT_EQ(second.jobsFailed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(second.jobs[i].label);
        EXPECT_TRUE(second.jobs[i].cached);
        EXPECT_EQ(second.jobs[i].run.cycles, merged.jobs[i].run.cycles);
    }
}

TEST(BenchEnv, GeomeanSkipsNonPositiveValues)
{
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
    // Zeros and negatives have no logarithm: they are skipped, not
    // allowed to poison the mean with -inf/NaN.
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 0.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({-1.0, 2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({0.0, -3.0}), 0.0);
    EXPECT_DOUBLE_EQ(bench::geomean({}), 0.0);
}

TEST(BenchEnv, KnobParsingValidatesAndClamps)
{
    setenv("CHEX_BENCH_SCALE", "garbage", 1);
    EXPECT_EQ(bench::scale(), 1u);
    setenv("CHEX_BENCH_SCALE", "0", 1);
    EXPECT_EQ(bench::scale(), 1u);
    setenv("CHEX_BENCH_SCALE", "-5", 1);
    EXPECT_EQ(bench::scale(), 1u);
    setenv("CHEX_BENCH_SCALE", "7x", 1);
    EXPECT_EQ(bench::scale(), 1u);
    setenv("CHEX_BENCH_SCALE", "12", 1);
    EXPECT_EQ(bench::scale(), 12u);
    unsetenv("CHEX_BENCH_SCALE");
    EXPECT_EQ(bench::scale(), 1u);

    setenv("CHEX_BENCH_JOBS", "-2", 1);
    EXPECT_GE(bench::benchJobs(), 1u);
    setenv("CHEX_BENCH_JOBS", "0", 1);
    EXPECT_GE(bench::benchJobs(), 1u);
    setenv("CHEX_BENCH_JOBS", "3", 1);
    EXPECT_EQ(bench::benchJobs(), 3u);
    unsetenv("CHEX_BENCH_JOBS");
    EXPECT_GE(bench::benchJobs(), 1u);

    setenv("CHEX_BENCH_TIMEOUT", "abc", 1);
    EXPECT_EQ(bench::benchTimeout(), 0.0);
    setenv("CHEX_BENCH_TIMEOUT", "-1", 1);
    EXPECT_EQ(bench::benchTimeout(), 0.0);
    setenv("CHEX_BENCH_TIMEOUT", "2.5", 1);
    EXPECT_EQ(bench::benchTimeout(), 2.5);
    unsetenv("CHEX_BENCH_TIMEOUT");
    EXPECT_EQ(bench::benchTimeout(), 0.0);

    setenv("CHEX_BENCH_ISOLATE", "1", 1);
    EXPECT_TRUE(bench::benchIsolate());
    setenv("CHEX_BENCH_ISOLATE", "0", 1);
    EXPECT_FALSE(bench::benchIsolate());
    unsetenv("CHEX_BENCH_ISOLATE");
    EXPECT_FALSE(bench::benchIsolate());
}

TEST(BenchEnv, ParseShardSpec)
{
    unsigned index = 99, count = 99;
    std::string err;
    EXPECT_TRUE(driver::parseShardSpec("0/2", index, count, &err));
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(count, 2u);
    EXPECT_TRUE(driver::parseShardSpec("1/2", index, count));
    EXPECT_EQ(index, 1u);
    EXPECT_EQ(count, 2u);
    EXPECT_TRUE(driver::parseShardSpec("0/1", index, count));

    // Rejections must not clobber the outputs.
    index = 1;
    count = 2;
    for (const char *bad : {"", "0", "/", "0/", "/2", "x/2", "0/y",
                            "0/2x", "-1/2", "1/-2", "0/0", "2/2",
                            "3/2", "0 /2"}) {
        SCOPED_TRACE(bad);
        err.clear();
        EXPECT_FALSE(
            driver::parseShardSpec(bad, index, count, &err));
        EXPECT_FALSE(err.empty());
        EXPECT_EQ(index, 1u);
        EXPECT_EQ(count, 2u);
    }
}

TEST(BenchEnv, ShardKnobParsesAndFallsBackUnsharded)
{
    setenv("CHEX_BENCH_SHARD", "1/3", 1);
    driver::EnvOptions env = driver::optionsFromEnv();
    EXPECT_EQ(env.shardIndex, 1u);
    EXPECT_EQ(env.shardCount, 3u);

    // Garbage and out-of-range specs warn and run unsharded rather
    // than silently simulating the wrong subset.
    for (const char *bad : {"nonsense", "3/3", "1", "0/0"}) {
        SCOPED_TRACE(bad);
        setenv("CHEX_BENCH_SHARD", bad, 1);
        env = driver::optionsFromEnv();
        EXPECT_EQ(env.shardIndex, 0u);
        EXPECT_EQ(env.shardCount, 1u);
    }

    unsetenv("CHEX_BENCH_SHARD");
    env = driver::optionsFromEnv();
    EXPECT_EQ(env.shardIndex, 0u);
    EXPECT_EQ(env.shardCount, 1u);

    // applyTo carries the env knobs onto CampaignOptions.
    setenv("CHEX_BENCH_SHARD", "2/4", 1);
    driver::CampaignOptions opts;
    driver::optionsFromEnv().applyTo(opts);
    EXPECT_EQ(opts.shardIndex, 2u);
    EXPECT_EQ(opts.shardCount, 4u);
    unsetenv("CHEX_BENCH_SHARD");
}

TEST(Report, ViolationRecordsSerialized)
{
    // An out-of-bounds workload: single run through the serializer.
    driver::JobSpec spec;
    spec.profile = tinyProfile();
    spec.body = [](const driver::JobSpec &s, uint64_t) -> RunResult {
        System sys(s.config);
        Program prog = generateSmokeProgram(2, 64);
        sys.load(prog);
        return sys.run();
    };
    driver::CampaignReport r = driver::runCampaign({spec}, {});
    ASSERT_EQ(r.jobs.size(), 1u);

    json::Value job = driver::toJson(r.jobs[0]);
    const json::Value &res = job.at("result");
    ASSERT_TRUE(res.at("violations").isArray());
    for (size_t i = 0; i < res.at("violations").size(); ++i) {
        const json::Value &v = res.at("violations").at(i);
        EXPECT_TRUE(v.find("kind"));
        EXPECT_TRUE(v.find("pc"));
        EXPECT_TRUE(v.find("addr"));
    }
}

TEST(Report, SystemDumpStatsJsonParses)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.load(generateWorkload(tinyProfile(), 5));
    RunResult r = sys.run();
    ASSERT_TRUE(r.exited);

    std::ostringstream ss;
    sys.dumpStatsJson(ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    const json::Value &system = doc.at("system");
    EXPECT_GT(system.at("core").at("cycles").number(), 0.0);
    EXPECT_EQ(system.at("core").at("cycles").number(),
              double(r.cycles));
}

// --- snapshot-fanned campaigns and record/replay -------------------

/**
 * A pinned-seed (registered-profile x variant) job list: exactly
 * what `chex-campaign run` builds for a single-rep campaign, and
 * the only shape the replay planner can reconstruct from a report.
 */
std::vector<driver::JobSpec>
pinnedMatrix(uint64_t seed, uint64_t scale)
{
    const char *names[] = {"mcf", "lbm"};
    const VariantKind kinds[] = {VariantKind::Baseline,
                                 VariantKind::MicrocodePrediction};
    std::vector<driver::JobSpec> jobs;
    for (const char *name : names) {
        for (VariantKind kind : kinds) {
            driver::JobSpec spec;
            spec.label = std::string(name) + "/" + variantName(kind);
            spec.profile = profileByName(name).scaledBy(scale);
            spec.config.variant.kind = kind;
            spec.workloadSeed = seed;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

/** Warm every job point like `chex-campaign snapshot` does. */
std::shared_ptr<const snapshot::Bundle>
bundleFor(const std::vector<driver::JobSpec> &specs, uint64_t seed,
          uint64_t warmup)
{
    snapshot::Bundle b;
    b.campaignSeed = seed;
    b.warmupMacros = warmup;
    for (const driver::JobSpec &spec : specs) {
        snapshot::MachineEntry entry;
        std::string err;
        EXPECT_TRUE(snapshot::buildEntry(
            spec.profile, spec.config, seed, warmup,
            driver::specHash(spec, seed), &entry, &err))
            << spec.label << ": " << err;
        b.entries.push_back(std::move(entry));
    }
    return std::make_shared<const snapshot::Bundle>(std::move(b));
}

TEST(SnapshotCampaign, FanOutIsBitIdenticalAndFoldsSpecHashes)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);

    driver::CampaignOptions scratch;
    scratch.workers = 2;
    scratch.seed = seed;
    driver::CampaignReport a = driver::runCampaign(jobs, scratch);
    ASSERT_EQ(a.jobsFailed, 0u);
    EXPECT_EQ(a.jobsFromSnapshot, 0u);

    driver::CampaignOptions fanned = scratch;
    fanned.snapshot = bundleFor(jobs, seed, 500);
    driver::CampaignReport b = driver::runCampaign(jobs, fanned);
    ASSERT_EQ(b.jobsFailed, 0u);
    EXPECT_EQ(b.jobsFromSnapshot, jobs.size());

    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
        SCOPED_TRACE(a.jobs[i].label);
        EXPECT_FALSE(a.jobs[i].fromSnapshot);
        EXPECT_TRUE(b.jobs[i].fromSnapshot);
        // The restored warm-up prefix must not perturb anything the
        // run measures.
        EXPECT_EQ(a.jobs[i].run.cycles, b.jobs[i].run.cycles);
        EXPECT_EQ(a.jobs[i].run.uops, b.jobs[i].run.uops);
        EXPECT_EQ(a.jobs[i].run.macroOps, b.jobs[i].run.macroOps);
        EXPECT_EQ(a.jobs[i].run.ipc, b.jobs[i].run.ipc);
        EXPECT_EQ(a.jobs[i].run.capChecksInjected,
                  b.jobs[i].run.capChecksInjected);
        EXPECT_EQ(a.jobs[i].run.violationDetected,
                  b.jobs[i].run.violationDetected);
        // ... but the simulation point identity must differ: the
        // snapshot's state digest is folded into the spec hash.
        EXPECT_NE(a.jobs[i].specHash, b.jobs[i].specHash);
        EXPECT_NE(b.jobs[i].specHash, 0u);
    }
}

TEST(SnapshotCampaign, FoldedHashesKeepTheCacheModesApart)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    std::shared_ptr<const snapshot::Bundle> bundle =
        bundleFor(jobs, seed, 500);

    driver::CampaignOptions scratch;
    scratch.workers = 2;
    scratch.seed = seed;
    driver::CampaignReport from_scratch =
        driver::runCampaign(jobs, scratch);

    driver::CampaignOptions fanned = scratch;
    fanned.snapshot = bundle;
    driver::CampaignReport from_snapshot =
        driver::runCampaign(jobs, fanned);

    // A from-scratch report must not satisfy a snapshot campaign...
    driver::CampaignOptions fanned_cached = fanned;
    fanned_cached.cacheReports = {from_scratch};
    driver::CampaignReport r1 =
        driver::runCampaign(jobs, fanned_cached);
    EXPECT_EQ(r1.jobsCached, 0u);
    EXPECT_EQ(r1.jobsFromSnapshot, jobs.size());

    // ... nor a snapshot report a from-scratch campaign ...
    driver::CampaignOptions scratch_cached = scratch;
    scratch_cached.cacheReports = {from_snapshot};
    driver::CampaignReport r2 =
        driver::runCampaign(jobs, scratch_cached);
    EXPECT_EQ(r2.jobsCached, 0u);

    // ... while the matching mode is a full cache hit.
    driver::CampaignOptions fanned_self = fanned;
    fanned_self.cacheReports = {from_snapshot};
    driver::CampaignReport r3 =
        driver::runCampaign(jobs, fanned_self);
    EXPECT_EQ(r3.jobsCached, jobs.size());
}

TEST(Merge, FromSnapshotShardsKeepSnapshotCount)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    opts.snapshot = bundleFor(jobs, seed, 500);
    driver::CampaignReport whole = driver::runCampaign(jobs, opts);
    ASSERT_EQ(whole.jobsFromSnapshot, jobs.size());

    std::vector<driver::CampaignReport> shards;
    for (unsigned i = 0; i < 2; ++i) {
        opts.shardIndex = i;
        opts.shardCount = 2;
        shards.push_back(driver::runCampaign(jobs, opts));
    }
    driver::CampaignReport merged;
    std::string err;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;

    // The merged summary is the unsharded run's, count for count.
    EXPECT_EQ(merged.jobsFromSnapshot, whole.jobsFromSnapshot);
    EXPECT_EQ(merged.jobsRun, whole.jobsRun);
    EXPECT_EQ(merged.jobsCached, whole.jobsCached);
    EXPECT_EQ(merged.jobsFailed, whole.jobsFailed);
    EXPECT_EQ(merged.jobsSkipped, 0u);
    EXPECT_EQ(merged.totalCycles, whole.totalCycles);
    EXPECT_EQ(merged.totalUops, whole.totalUops);
}

TEST(SnapshotCampaign, ReportV5RoundTripsFromSnapshotFlag)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    opts.snapshot = bundleFor(jobs, seed, 500);
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFromSnapshot, jobs.size());

    std::ostringstream ss;
    driver::writeReport(report, ss);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v6");
    EXPECT_EQ(doc.at("summary").at("jobsFromSnapshot").number(),
              double(jobs.size()));
    for (size_t i = 0; i < doc.at("jobs").size(); ++i)
        EXPECT_TRUE(doc.at("jobs").at(i).at("fromSnapshot").boolean());

    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(back.jobsFromSnapshot, report.jobsFromSnapshot);
    for (size_t i = 0; i < back.jobs.size(); ++i) {
        EXPECT_TRUE(back.jobs[i].fromSnapshot);
        EXPECT_EQ(back.jobs[i].specHash, report.jobs[i].specHash);
    }
}

TEST(Replay, ReproducesRecordedTimeoutFailure)
{
    const uint64_t seed = 5;
    driver::JobSpec spec;
    spec.label = "mcf/CHEx86: Micro-code Prediction Driven";
    spec.profile = profileByName("mcf").scaledBy(50);
    spec.config.variant.kind = VariantKind::MicrocodePrediction;
    spec.workloadSeed = seed;

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = seed;
    opts.isolation = true;
    opts.timeoutSeconds = 1e-4; // far below any real job's runtime
    driver::CampaignReport report = driver::runCampaign({spec}, opts);
    ASSERT_EQ(report.jobs.size(), 1u);
    ASSERT_TRUE(report.jobs[0].failed);
    ASSERT_EQ(report.jobs[0].cause, driver::FailureCause::Timeout);

    // Round-trip through JSON like `replay --report` does: the plan
    // is built from the written report, not in-memory state.
    std::ostringstream ss;
    driver::writeReport(report, ss);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    driver::CampaignReport loaded;
    ASSERT_TRUE(driver::fromJson(doc, loaded, &err)) << err;

    size_t row = 0;
    ASSERT_TRUE(driver::selectReplayRow(loaded, std::nullopt, &row,
                                        &err))
        << err;
    EXPECT_EQ(row, 0u);
    driver::ReplayPlan plan;
    ASSERT_TRUE(driver::planReplay(loaded, row, SystemConfig{}, 50,
                                   nullptr, &plan, &err))
        << err;
    EXPECT_EQ(plan.spec.label, spec.label);
    EXPECT_FALSE(plan.fromSnapshot);

    // Same watchdog → the recorded failure cause reproduces.
    driver::CampaignReport rerun =
        driver::runCampaign({plan.spec}, opts);
    ASSERT_EQ(rerun.jobs.size(), 1u);
    std::string detail;
    EXPECT_TRUE(driver::outcomeReproduced(loaded.jobs[0],
                                          rerun.jobs[0], &detail))
        << detail;
    EXPECT_EQ(rerun.jobs[0].cause, driver::FailureCause::Timeout);

    // Relaxed watchdog → the job passes and the divergence is loud.
    driver::CampaignOptions relaxed = opts;
    relaxed.timeoutSeconds = 300.0;
    driver::CampaignReport passed =
        driver::runCampaign({plan.spec}, relaxed);
    ASSERT_EQ(passed.jobsFailed, 0u);
    EXPECT_FALSE(driver::outcomeReproduced(loaded.jobs[0],
                                           passed.jobs[0], &detail));
    EXPECT_NE(detail.find("OUTCOME DIFFERS"), std::string::npos)
        << detail;
}

TEST(Replay, PlansFromSnapshotRowsOnlyWithTheirBundle)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    std::shared_ptr<const snapshot::Bundle> bundle =
        bundleFor(jobs, seed, 500);

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    opts.snapshot = bundle;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFromSnapshot, jobs.size());

    std::string err;
    driver::ReplayPlan plan;
    // Without the bundle the row cannot be reconstructed.
    EXPECT_FALSE(driver::planReplay(report, 0, SystemConfig{}, 50,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("bundle"), std::string::npos) << err;
    // With it, the plan verifies against the folded hash and the
    // replayed job is bit-identical to the campaign row.
    ASSERT_TRUE(driver::planReplay(report, 0, SystemConfig{}, 50,
                                   bundle.get(), &plan, &err))
        << err;
    EXPECT_TRUE(plan.fromSnapshot);
    driver::CampaignReport rerun =
        driver::runCampaign({plan.spec}, opts);
    ASSERT_EQ(rerun.jobsFailed, 0u);
    EXPECT_EQ(rerun.jobs[0].specHash, report.jobs[0].specHash);
    EXPECT_EQ(rerun.jobs[0].run.cycles, report.jobs[0].run.cycles);
}

TEST(Replay, RefusesUnreconstructibleRows)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFailed, 0u);

    std::string err;
    size_t row = 0;
    // No failed rows and no explicit index: nothing to replay.
    EXPECT_FALSE(driver::selectReplayRow(report, std::nullopt, &row,
                                         &err));
    EXPECT_NE(err.find("no failed jobs"), std::string::npos) << err;
    // Out-of-range explicit index.
    EXPECT_FALSE(driver::selectReplayRow(report, size_t{99}, &row,
                                         &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    driver::ReplayPlan plan;
    // A wrong --scale reconstructs a different simulation point;
    // the hash check refuses it instead of silently replaying it.
    EXPECT_FALSE(driver::planReplay(report, 0, SystemConfig{}, 7,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("does not match"), std::string::npos) << err;

    // Body-override jobs have no reconstructible spec (hash 0).
    driver::JobSpec custom;
    custom.label = "custom";
    custom.profile = tinyProfile();
    custom.body = [](const driver::JobSpec &s, uint64_t sd) {
        System sys(s.config);
        sys.load(generateWorkload(s.profile, sd));
        return sys.run();
    };
    driver::CampaignReport cr =
        driver::runCampaign({custom}, opts);
    EXPECT_FALSE(driver::planReplay(cr, 0, SystemConfig{}, 1,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("custom job body"), std::string::npos) << err;

    // Skipped rows of a sharded report never ran here.
    driver::CampaignOptions sharded = opts;
    sharded.shardIndex = 0;
    sharded.shardCount = 2;
    driver::CampaignReport shard = driver::runCampaign(jobs, sharded);
    ASSERT_TRUE(shard.jobs[1].skipped);
    EXPECT_FALSE(driver::planReplay(shard, 1, SystemConfig{}, 50,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("shard"), std::string::npos) << err;
}

/** The whole of file @p path. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Cli, RefusedInputLeavesPreviousReportIntact)
{
    // `run` and `attack` check their inputs before opening (and so
    // truncating) --out and --security-out: a refused cache or
    // bundle exits 2 and leaves last run's report as it was.
    const std::string dir = testing::TempDir();
    const std::string bad = dir + "/chex_cli_empty.json";
    const std::string out = dir + "/chex_cli_prior_report.json";
    const std::string sec = dir + "/chex_cli_prior_security.json";
    const std::string prior = "{\"prior\": \"report\"}\n";
    std::ofstream(bad) << "{}";
    const std::string bin = CHEX_CAMPAIGN_BIN;
    for (const std::string &args :
         {"run --profiles mcf --variants baseline --scale 50 --cache " +
              bad + " --out " + out,
          "run --profiles mcf --variants baseline --scale 50 "
          "--from-snapshot " + bad + " --out " + out,
          "attack --seeds 1 --cache " + bad + " --out " + out +
              " --security-out " + sec}) {
        SCOPED_TRACE(args);
        std::ofstream(out) << prior;
        std::ofstream(sec) << prior;
        int rc = std::system(
            ("'" + bin + "' " + args + " > /dev/null 2>&1").c_str());
        ASSERT_TRUE(WIFEXITED(rc));
        EXPECT_EQ(WEXITSTATUS(rc), 2);
        EXPECT_EQ(fileBytes(out), prior);
        EXPECT_EQ(fileBytes(sec), prior);
    }
    for (const std::string &path : {bad, out, sec})
        std::remove(path.c_str());
}

} // namespace
} // namespace chex
