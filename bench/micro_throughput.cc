/**
 * @file
 * Simulator throughput microbenchmark: host-side fetch→retire
 * micro-ops per second for each enforcement variant, on one fixed
 * workload. This is the ROADMAP's missing perf record — every
 * campaign-level optimization (worker pools, result caches,
 * snapshot fan-out) multiplies off this per-core number, so it is
 * measured directly and committed as BENCH_throughput.json to make
 * the trajectory visible across PRs.
 *
 * Methodology: each variant runs the same pinned-seed workload
 * REPS times end to end (fresh System per rep, so allocator and
 * cache state never carry over) and records the best rep —
 * best-of-N is the standard way to strip scheduler noise from a
 * short single-threaded measurement. The workload is sized by
 * CHEX_BENCH_SCALE like every other harness; the JSON records the
 * scale so records from different machines/settings are not
 * naively compared.
 *
 * Output: a chex-bench-throughput-v1 JSON document on stdout (so
 * `micro_throughput > BENCH_throughput.json` commits cleanly), one
 * row per variant with retired macro-op/µop counts, best wall
 * seconds, and the derived µops/second; the human-readable table
 * goes to stderr.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/json.hh"
#include "common.hh"
#include "ucode/variant.hh"

using namespace chex;

namespace
{

constexpr uint64_t Seed = 1;
constexpr int Reps = 3;

/** One end-to-end simulation, timed on the host clock. */
double
timedRun(const BenchmarkProfile &profile, VariantKind kind,
         RunResult *out)
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    System sys(cfg);
    sys.load(generateWorkload(profile, Seed));
    auto t0 = std::chrono::steady_clock::now();
    RunResult r = sys.run();
    auto t1 = std::chrono::steady_clock::now();
    if (!r.exited) {
        std::fprintf(stderr,
                     "micro_throughput: %s/%s did not exit cleanly\n",
                     profile.name.c_str(), variantName(kind));
        std::exit(1);
    }
    *out = r;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    BenchmarkProfile profile =
        profileByName("xalancbmk").scaledBy(bench::scale());

    json::Value doc = json::Value::object();
    doc.set("schema", "chex-bench-throughput-v1");
    doc.set("profile", profile.name);
    doc.set("scale", bench::scale());
    doc.set("seed", Seed);
    doc.set("reps", static_cast<uint64_t>(Reps));

    std::fprintf(stderr, "%-42s %12s %12s %10s %14s\n", "variant",
                 "macro-ops", "uops", "best s", "uops/s");

    json::Value rows = json::Value::array();
    for (VariantKind kind : allVariants()) {
        RunResult best{};
        double best_s = 0.0;
        for (int rep = 0; rep < Reps; ++rep) {
            RunResult r;
            double s = timedRun(profile, kind, &r);
            if (rep == 0 || s < best_s) {
                best = r;
                best_s = s;
            }
        }
        double uops_per_s =
            best_s > 0.0 ? static_cast<double>(best.uops) / best_s
                         : 0.0;

        std::fprintf(stderr, "%-42s %12llu %12llu %10.4f %14.0f\n",
                     variantName(kind),
                     static_cast<unsigned long long>(best.macroOps),
                     static_cast<unsigned long long>(best.uops),
                     best_s, uops_per_s);

        json::Value row = json::Value::object();
        row.set("variant", variantName(kind));
        row.set("macroOps", best.macroOps);
        row.set("uops", best.uops);
        row.set("cycles", best.cycles);
        row.set("bestWallSeconds", best_s);
        row.set("uopsPerSecond", uops_per_s);
        rows.push(std::move(row));
    }
    doc.set("variants", std::move(rows));

    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
}
