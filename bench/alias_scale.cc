/**
 * @file
 * Alias-subsystem scale microbenchmark: drives the shadow alias
 * table directly (no pipeline) through server-style spill/reload/
 * overwrite churn at increasing live-alias working sets — 10K, 100K,
 * and 1M live aliased words — and reports alias operations per
 * second plus live and peak shadow-storage bytes at each size. This
 * is the committed perf record (BENCH_aliasscale.json) that keeps
 * the reclaiming radix tree and the tombstone-purging page-count
 * filter honest across PRs: a structure that degrades superlinearly
 * with the live count (or that leaks nodes under overwrite churn)
 * shows up as the 1M row collapsing relative to the 10K row, or as
 * endShadowBytes drifting above the live-set floor.
 *
 * Methodology mirrors cap_scale (the live targets, best-of-3 wall
 * clock, rep checks and the record itself live in scale_bench.hh):
 * every rep starts from a fresh table; the op stream is a fixed-seed
 * mix of pointer spills (set), reloads through the page filter +
 * walker (pageHostsAliases/get/walk), data-store overwrite kills
 * (set 0, exercising node reclamation), and page-churn arena drops.
 * Target selection follows the server access model: reloads draw
 * their victim word Zipf-skewed over recency (rank r with density
 * 1/r — a handful of hot spill slots absorbs most traffic), kills
 * come from the young generation, and spill addresses mix dense
 * frame-like runs with scattered arena words so interior nodes see
 * both sharing and churn. All structural outputs — op counts, live
 * entries, node counts, peak/end shadow bytes, and a fold of every
 * returned PID and walk depth — are deterministic functions of the
 * seed, so bench-compare treats any drift in them as fatal while
 * wall-clock regressions only warn.
 *
 * Output: a chex-bench-aliasscale-v1 JSON document on stdout.
 */

#include <algorithm>
#include <chrono>
#include <vector>

#include "base/random.hh"
#include "mem/alias_table.hh"
#include "scale_bench.hh"

using namespace chex;

namespace
{

using bench::mix;

/** One full rep: ramp to @p live_target live words, then churn. */
bench::ScaleRep
runRep(uint64_t seed, uint64_t live_target, uint64_t churn_ops)
{
    AliasTable table;
    Random rng(seed ^ (live_target * 0x9e3779b97f4a7c15ull));

    // Live spilled words, oldest first; swap-remove on kill.
    std::vector<uint64_t> live;
    live.reserve(live_target);

    // Spill addresses mix dense frame-like runs (consecutive words
    // in one leaf, like a function's spill slots) with scattered
    // arena words across a wide VA range (distinct subtrees).
    uint64_t frame_bump = 0x7f0000000000ull; // dense region cursor
    uint64_t next_pid = 1;
    uint64_t ops = 0;
    uint64_t checksum = 0;
    uint64_t peak = 0;

    // Scattered spills draw from an arena spanning 8x the live
    // target in words: leaf occupancy stays constant across rows
    // (~1/32 of each touched leaf), so the 10K/100K/1M rows compare
    // walk and reclamation cost at scale rather than just the
    // allocator's memset bandwidth on ever-sparser trees.
    const uint64_t arena_words = live_target * 8;

    auto spill = [&]() {
        uint64_t addr;
        if (rng.chance(0.75)) {
            addr = frame_bump;
            frame_bump += 8;
        } else {
            addr = 0x100000000ull +
                   (rng.uniform(0, arena_words - 1) << 3);
            if (table.get(addr) != 0) {
                // Occupied arena word: fall back to a fresh frame
                // word so the live set holds its target size.
                addr = frame_bump;
                frame_bump += 8;
            }
        }
        table.set(addr, static_cast<uint32_t>(
                            next_pid++ & 0xffffffffull));
        ++ops;
        live.push_back(addr);
    };

    // Server-model reuse pick: 7 of 8 reloads draw Zipf-skewed over
    // the hot recency window (harmonic s=1 weights — rank r drawn
    // with weight 1/(r+1), rank 0 = most recent spill, so a handful
    // of hot spill slots absorbs most traffic), and the eighth is a
    // uniform cold draw over the whole live set. The CDF is built
    // from IEEE additions/divisions only — no libm calls — so the
    // drawn ranks (and through them the structural checksum) are
    // bit-identical across hosts.
    constexpr uint64_t HotWindow = 4096;
    std::vector<double> zipf_cdf(HotWindow);
    double zipf_sum = 0.0;
    for (uint64_t r = 0; r < HotWindow; ++r) {
        zipf_sum += 1.0 / static_cast<double>(r + 1);
        zipf_cdf[r] = zipf_sum;
    }
    auto pick_zipf = [&]() -> size_t {
        if (rng.uniform(0, 7) == 0)
            return rng.uniform(0, live.size() - 1);
        uint64_t window = std::min<uint64_t>(live.size(), HotWindow);
        double u = rng.uniformReal() * zipf_cdf[window - 1];
        auto rank = static_cast<uint64_t>(
            std::lower_bound(zipf_cdf.begin(),
                             zipf_cdf.begin() + window, u) -
            zipf_cdf.begin());
        if (rank >= window)
            rank = window - 1;
        return live.size() - 1 - static_cast<size_t>(rank);
    };

    // Young-generation overwrite kill: a data store clobbers a
    // recently spilled slot (request/response lifetimes).
    auto kill_victim = [&]() {
        uint64_t window = std::min<uint64_t>(live.size(), 4096);
        size_t idx = live.size() - 1 - rng.uniform(0, window - 1);
        uint64_t addr = live[idx];
        live[idx] = live.back();
        live.pop_back();
        table.set(addr, 0);
        ++ops;
    };

    // ---- Ramp to the live target (untimed construction) ----
    while (live.size() < live_target)
        spill();

    // The reported rate is the steady-state churn rate at this live
    // size; one-time table construction would otherwise dominate the
    // large rows and mask scaling of the steady-state operations.
    ops = 0;
    auto t0 = std::chrono::steady_clock::now();

    // ---- Churn ----
    for (uint64_t op = 0; op < churn_ops; ++op) {
        uint64_t r = rng.uniform(0, 99);
        if (r < 50) {
            // Reload path: page filter, then cached get or full walk.
            uint64_t addr = live[pick_zipf()];
            if (table.pageHostsAliases(addr)) {
                if (r & 1) {
                    checksum = mix(checksum, table.get(addr));
                } else {
                    AliasWalkResult w = table.walk(addr);
                    checksum = mix(checksum,
                                   (uint64_t{w.levelsTouched} << 32) |
                                       w.pid);
                }
            }
            ++ops;
        } else if (r < 65) {
            // Filter probe on a (usually alias-free) cold page.
            uint64_t addr =
                0x510000000000ull + rng.uniform(0, (1ull << 30)) * 8;
            checksum = mix(checksum, table.pageHostsAliases(addr));
            ++ops;
        } else {
            // Overwrite churn: kill a young spill, spill a fresh one.
            kill_victim();
            spill();
        }
        if ((op & 0xfff) == 0)
            peak = std::max(peak, table.storageBytes());
    }
    peak = std::max(peak, table.storageBytes());

    auto t1 = std::chrono::steady_clock::now();

    return {ops,
            {{"liveEntries", table.liveEntries()},
             {"peakShadowBytes", peak},
             {"endShadowBytes", table.storageBytes()},
             {"liveNodes", table.liveNodes()},
             {"pooledNodes", table.pooledNodes()},
             {"checksum", checksum}},
            std::chrono::duration<double>(t1 - t0).count()};
}

} // namespace

int
main()
{
    return bench::runScaleBench("alias_scale", "chex-bench-aliasscale-v1",
                                runRep);
}
