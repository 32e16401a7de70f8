/**
 * @file
 * Capability-subsystem scale microbenchmark: drives the shadow
 * capability table directly (no pipeline) through server-style
 * allocation churn at increasing live-set sizes — 10K, 100K, and 1M
 * live capabilities — and reports capability operations per second
 * and peak shadow-storage bytes at each size. This is the committed
 * perf record (BENCH_capscale.json) that keeps the paged store and
 * the pooled interval indices honest across PRs: a structure that
 * degrades superlinearly with the live count shows up as the 1M-row
 * ops/s collapsing relative to the 10K row.
 *
 * Methodology (the live targets, best-of-3 wall clock, rep checks
 * and the record itself live in scale_bench.hh): every rep starts
 * from a fresh table; the op stream is a fixed-seed mix of
 * capCheck-style checks, exhaustive address searches, and
 * free+reallocate churn (half the reallocations reuse a freed base,
 * covering the same-base collision path). Target
 * selection follows the server-family access model rather than
 * uniform random: frees come from the young generation (the most
 * recently allocated window — request/response lifetimes), and
 * checks/searches hit a hot window 7 times out of 8 with a uniform
 * cold draw over the whole live set for the eighth. All
 * structural outputs — op counts, live/total capabilities, peak
 * shadow bytes, and a fold of every returned PID/violation — are
 * deterministic functions of the seed, so bench-compare treats any
 * drift in them as fatal while wall-clock regressions only warn.
 *
 * Output: a chex-bench-capscale-v1 JSON document on stdout.
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include "base/random.hh"
#include "cap/cap_table.hh"
#include "scale_bench.hh"

using namespace chex;

namespace
{

using bench::mix;

/** Young-generation / hot-set size for the server access model. */
constexpr uint64_t HotWindow = 4096;

struct LiveEntry
{
    Pid pid;
    uint64_t base;
    uint64_t size;
};

/** One full rep: ramp to @p live_target, then churn. */
bench::ScaleRep
runRep(uint64_t seed, uint64_t live_target, uint64_t churn_ops)
{
    CapabilityTable table;
    Random rng(seed ^ (live_target * 0x9e3779b97f4a7c15ull));

    std::vector<LiveEntry> live;
    live.reserve(live_target);
    std::vector<std::pair<uint64_t, uint64_t>> freed; // base, size

    uint64_t bump = 0x10000000ull; // synthetic address space
    uint64_t ops = 0;
    uint64_t checksum = 0;
    uint64_t peak = 0;

    auto allocate = [&]() {
        uint64_t size =
            (rng.skewedSize(32, 1024) + 15) & ~uint64_t(15);
        uint64_t base;
        if (!freed.empty() && rng.chance(0.5)) {
            // Reuse a freed base: the interval indices must keep the
            // most recent PID on the collision.
            auto &f = freed[rng.uniform(0, freed.size() - 1)];
            base = f.first;
            size = f.second;
        } else {
            base = bump;
            bump += size;
        }
        Violation v;
        Pid pid = table.beginGeneration(size, &v);
        table.endGeneration(pid, base);
        ops += 2;
        live.push_back({pid, base, size});
    };

    // Hot-set pick: the recently-allocated tail 7 times out of 8, a
    // uniform cold draw over the whole live set otherwise.
    auto pick_target = [&]() -> size_t {
        uint64_t window =
            std::min<uint64_t>(live.size(), HotWindow);
        if (rng.uniform(0, 7) != 0)
            return live.size() - 1 - rng.uniform(0, window - 1);
        return rng.uniform(0, live.size() - 1);
    };

    // Young-generation free: victims come from the recently
    // allocated window (request/response lifetimes); the long-lived
    // base set below it churns only via swap-remove displacement.
    auto free_victim = [&]() {
        uint64_t window =
            std::min<uint64_t>(live.size(), HotWindow);
        size_t idx = live.size() - 1 - rng.uniform(0, window - 1);
        LiveEntry e = live[idx];
        live[idx] = live.back();
        live.pop_back();
        checksum = mix(checksum, static_cast<uint64_t>(
                                     table.beginFree(e.pid, e.base)));
        table.endFree(e.pid);
        ops += 2;
        freed.push_back({e.base, e.size});
        if (freed.size() > 4096)
            freed[rng.uniform(0, freed.size() - 1)] = freed.back(),
                freed.pop_back();
    };

    auto t0 = std::chrono::steady_clock::now();

    // ---- Ramp to the live target ----
    while (live.size() < live_target)
        allocate();

    // ---- Churn ----
    for (uint64_t op = 0; op < churn_ops; ++op) {
        uint64_t r = rng.uniform(0, 99);
        if (r < 40) {
            const LiveEntry &e = live[pick_target()];
            uint64_t addr =
                e.base + rng.uniform(0, e.size > 8 ? e.size - 8 : 0);
            CheckResult cr =
                table.check(e.pid, addr, 8, (r & 1) != 0);
            checksum = mix(checksum,
                           static_cast<uint64_t>(cr.violation));
            ++ops;
        } else if (r < 60) {
            uint64_t addr;
            if (r & 1) {
                const LiveEntry &e = live[pick_target()];
                addr = e.base + rng.uniform(0, e.size - 1);
            } else {
                addr = 0x10000000ull +
                       rng.uniform(0, bump - 0x10000000ull);
            }
            checksum = mix(checksum, table.pidForAddress(addr));
            ++ops;
        } else {
            free_victim();
            allocate();
        }
        if ((op & 0xfff) == 0)
            peak = std::max(peak, table.storageBytes());
    }
    peak = std::max(peak, table.storageBytes());

    auto t1 = std::chrono::steady_clock::now();

    return {ops,
            {{"totalCapabilities", table.totalCapabilities()},
             {"liveCapabilities", table.liveCapabilities()},
             {"peakShadowBytes", peak},
             {"checksum", checksum}},
            std::chrono::duration<double>(t1 - t0).count()};
}

} // namespace

int
main()
{
    return bench::runScaleBench("cap_scale", "chex-bench-capscale-v1",
                                runRep);
}
