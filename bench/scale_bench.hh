/**
 * @file
 * The shared driver of the store-scale microbenchmarks (cap_scale,
 * alias_scale). Each bench supplies only its runRep: one rep from a
 * fresh table, ramping to a live target and then churning, with its
 * own timing window and op counting. This harness owns the rest:
 * the churn-op count (2M, divided by $CHEX_BENCH_SCALE, floor 100K),
 * the 10K/100K/1M live targets, best-of-Reps wall clock, a check
 * that every rep's deterministic outputs equal rep 0's, opsPerSecond,
 * and the JSON record on stdout:
 *
 *   {schema, seed, scale, reps, churnOps,
 *    rows: [{liveTarget, ops, <runRep counts...>,
 *            bestWallSeconds, opsPerSecond}, ...]}
 *
 * so `cap_scale > BENCH_capscale.json` commits cleanly; one progress
 * line per row goes to stderr.
 */

#ifndef CHEX_BENCH_SCALE_BENCH_HH
#define CHEX_BENCH_SCALE_BENCH_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "common.hh"

namespace chex
{
namespace bench
{

/** One rep at one live target, as a bench's runRep measured it. */
struct ScaleRep
{
    /** Operations in the timed window: the opsPerSecond numerator. */
    uint64_t ops = 0;
    /** The other deterministic outputs, in record key order. */
    std::vector<std::pair<const char *, uint64_t>> counts;
    /** Wall clock of the timed window. */
    double seconds = 0.0;
};

/** Fold @p v into the running result checksum @p h. */
inline uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

using ScaleRepFn = ScaleRep (*)(uint64_t seed, uint64_t live_target,
                                uint64_t churn_ops);

/** Run @p run_rep over the live targets; returns main()'s status. */
inline int
runScaleBench(const char *name, const char *schema, ScaleRepFn run_rep)
{
    constexpr uint64_t Seed = 1;
    constexpr int Reps = 3;
    const uint64_t divisor = scale();
    const uint64_t churn_ops = std::max<uint64_t>(
        100000, 2000000 / std::max<uint64_t>(1, divisor));

    json::Value doc = json::Value::object();
    doc.set("schema", schema);
    doc.set("seed", Seed);
    doc.set("scale", divisor);
    doc.set("reps", static_cast<uint64_t>(Reps));
    doc.set("churnOps", churn_ops);

    json::Value rows = json::Value::array();
    for (unsigned long long target : {10000ull, 100000ull, 1000000ull}) {
        ScaleRep first = run_rep(Seed, target, churn_ops);
        double best = first.seconds;
        for (int rep = 1; rep < Reps; ++rep) {
            ScaleRep r = run_rep(Seed, target, churn_ops);
            if (r.ops != first.ops || r.counts != first.counts) {
                std::fprintf(stderr,
                             "%s: nondeterministic rep at live=%llu\n",
                             name, target);
                return 1;
            }
            best = std::min(best, r.seconds);
        }
        double rate =
            best > 0.0 ? static_cast<double>(first.ops) / best : 0.0;

        std::fprintf(stderr, "%s live=%llu ops=%llu", name, target,
                     static_cast<unsigned long long>(first.ops));
        json::Value row = json::Value::object();
        row.set("liveTarget", static_cast<uint64_t>(target));
        row.set("ops", first.ops);
        for (const auto &[key, value] : first.counts) {
            std::fprintf(stderr, " %s=%llu", key,
                         static_cast<unsigned long long>(value));
            row.set(key, value);
        }
        std::fprintf(stderr, " best=%.4fs ops/s=%.0f\n", best, rate);
        row.set("bestWallSeconds", best);
        row.set("opsPerSecond", rate);
        rows.push(std::move(row));
    }
    doc.set("rows", std::move(rows));

    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
}

} // namespace bench
} // namespace chex

#endif // CHEX_BENCH_SCALE_BENCH_HH
