#include "merge.hh"

#include <algorithm>

#include "base/logging.hh"
#include "driver/spec_hash.hh"

namespace chex
{
namespace driver
{

namespace
{

bool
failMerge(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

} // namespace

bool
mergeReports(const std::vector<CampaignReport> &shards,
             CampaignReport &out, std::string *err)
{
    out = CampaignReport();
    if (shards.empty())
        return failMerge(err, "no shard reports to merge");

    const CampaignReport &first = shards[0];
    const size_t n_jobs = first.jobs.size();

    // Cross-shard compatibility: same campaign seed and job count.
    // Deeper options differences (profiles, variants, scale, ...)
    // surface below as per-job identity mismatches, since every
    // shard computes the full submission-order identity row for
    // every index, in or out of shard.
    for (size_t s = 1; s < shards.size(); ++s) {
        if (shards[s].seed != first.seed) {
            return failMerge(
                err, csprintf("campaign seed mismatch: shard report "
                              "%zu has seed %llu, report 0 has %llu",
                              s,
                              static_cast<unsigned long long>(
                                  shards[s].seed),
                              static_cast<unsigned long long>(
                                  first.seed)));
        }
        if (shards[s].jobs.size() != n_jobs) {
            return failMerge(
                err, csprintf("job count mismatch: shard report %zu "
                              "has %zu jobs, report 0 has %zu",
                              s, shards[s].jobs.size(), n_jobs));
        }
    }

    // Index sanity and per-job identity agreement. Every shard must
    // describe the same campaign: index i's row — placeholder or
    // real — carries the same seed, spec hash, and label everywhere.
    for (size_t s = 0; s < shards.size(); ++s) {
        for (size_t i = 0; i < n_jobs; ++i) {
            const JobResult &jr = shards[s].jobs[i];
            const JobResult &ref = first.jobs[i];
            if (jr.index != i) {
                return failMerge(
                    err, csprintf("shard report %zu job %zu carries "
                                  "index %zu; reports must keep "
                                  "submission order",
                                  s, i, jr.index));
            }
            if (jr.seed != ref.seed || jr.specHash != ref.specHash ||
                jr.label != ref.label || jr.attack != ref.attack) {
                return failMerge(
                    err,
                    csprintf("shard reports disagree on job %zu "
                             "('%s' seed %llu hash %s vs '%s' seed "
                             "%llu hash %s): the shards were not "
                             "run with the same campaign options",
                             i, ref.label.c_str(),
                             static_cast<unsigned long long>(
                                 ref.seed),
                             specHashHex(ref.specHash).c_str(),
                             jr.label.c_str(),
                             static_cast<unsigned long long>(
                                 jr.seed),
                             specHashHex(jr.specHash).c_str()));
            }
        }
    }

    // Exactly one shard must provide (i.e. not skip) each index.
    std::vector<const JobResult *> provider(n_jobs, nullptr);
    for (size_t s = 0; s < shards.size(); ++s) {
        for (size_t i = 0; i < n_jobs; ++i) {
            const JobResult &jr = shards[s].jobs[i];
            if (jr.skipped)
                continue;
            if (provider[i]) {
                return failMerge(
                    err, csprintf("job %zu ('%s') is provided by "
                                  "more than one shard report; "
                                  "overlapping shards",
                                  i, jr.label.c_str()));
            }
            provider[i] = &jr;
        }
    }
    for (size_t i = 0; i < n_jobs; ++i) {
        if (!provider[i]) {
            return failMerge(
                err, csprintf("job %zu ('%s') is skipped in every "
                              "shard report; incomplete shard set",
                              i, first.jobs[i].label.c_str()));
        }
    }

    // Stitch and recompute. The merged report is a complete
    // campaign: shard 0 of 1, no skipped rows, every aggregate
    // derived from the merged jobs rather than trusted from any
    // shard's summary.
    out.seed = first.seed;
    out.shardIndex = 0;
    out.shardCount = 1;
    out.jobs.reserve(n_jobs);
    for (size_t i = 0; i < n_jobs; ++i)
        out.jobs.push_back(*provider[i]);

    for (const CampaignReport &shard : shards) {
        out.workers = std::max(out.workers, shard.workers);
        // Shards run on separate machines in parallel: the merged
        // campaign's wall clock is the slowest shard's, not the sum.
        out.wallSeconds = std::max(out.wallSeconds,
                                   shard.wallSeconds);
    }
    summarize(out);
    return true;
}

} // namespace driver
} // namespace chex
