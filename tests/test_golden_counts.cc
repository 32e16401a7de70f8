/**
 * @file
 * Golden retired-work counts for every enforcement variant on the
 * pinned throughput workload (xalancbmk profile, scale 1, seed 1 —
 * the same cell BENCH_throughput.json tracks). The hot-path
 * optimizations (flat shadow-structure lookups, integer stat
 * counters, translation/walk memos) are host-side only: simulated
 * macro-ops, µops, cycles and the per-mechanism counts (checks,
 * injected µops, alias flushes/forwards, shadow and DRAM bytes) must
 * not move by even one. Any drift here means an "optimization"
 * changed simulated semantics, which is a correctness bug regardless
 * of how much wall clock it saves.
 *
 * If a deliberate model change shifts these numbers, re-derive the
 * goldens from a scale-1 run of each variant (`micro_throughput`
 * prints the first three columns) and update both this table and
 * the committed BENCH_throughput.json in the same commit.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/system.hh"
#include "ucode/variant.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace
{

struct GoldenRow
{
    VariantKind kind;
    uint64_t macroOps;
    uint64_t uops;
    uint64_t cycles;
    // Per-mechanism counts: which checks ran, what they injected,
    // what the alias machinery did, and the storage they cost.
    uint64_t capChecksInjected;
    uint64_t injectedUops;
    uint64_t zeroIdiomChecks;
    uint64_t p0anFlushes;
    uint64_t pmanForwards;
    uint64_t shadowBytes;
    uint64_t dramBytes;
};

// Scale 1, seed 1, xalancbmk profile.
constexpr GoldenRow kGoldens[] = {
    {VariantKind::Baseline, 478975, 743341, 340500, 0, 0, 0, 0, 0, 0,
     214400},
    {VariantKind::HardwareOnly, 478975, 753241, 449997, 210455, 9900, 0,
     17, 15800, 447704, 288384},
    {VariantKind::BinaryTranslation, 673430, 1142151, 503308, 194455,
     398810, 0, 17, 15800, 447704, 288384},
    {VariantKind::MicrocodeAlwaysOn, 478975, 963696, 459719, 210455,
     220355, 0, 17, 15800, 447704, 288384},
    {VariantKind::MicrocodePrediction, 478975, 911791, 443655, 158550,
     168450, 0, 17, 15800, 447704, 288384},
    {VariantKind::Asan, 1256795, 1885630, 843086, 0, 972275, 0, 0, 0,
     385344, 531840},
};

TEST(GoldenCounts, ThroughputWorkloadRetiresExactCounts)
{
    // Deliberately NOT scaled by CHEX_BENCH_SCALE: the goldens are
    // only valid for the exact scale-1 workload.
    BenchmarkProfile profile = profileByName("xalancbmk");
    for (const GoldenRow &g : kGoldens) {
        SystemConfig cfg;
        cfg.variant.kind = g.kind;
        System sys(cfg);
        sys.load(generateWorkload(profile, 1));
        RunResult r = sys.run();
        ASSERT_TRUE(r.exited) << variantName(g.kind);
        EXPECT_EQ(r.macroOps, g.macroOps) << variantName(g.kind);
        EXPECT_EQ(r.uops, g.uops) << variantName(g.kind);
        EXPECT_EQ(r.cycles, g.cycles) << variantName(g.kind);
        EXPECT_EQ(r.capChecksInjected, g.capChecksInjected)
            << variantName(g.kind);
        EXPECT_EQ(r.injectedUops, g.injectedUops) << variantName(g.kind);
        EXPECT_EQ(r.zeroIdiomChecks, g.zeroIdiomChecks)
            << variantName(g.kind);
        EXPECT_EQ(r.p0anFlushes, g.p0anFlushes) << variantName(g.kind);
        EXPECT_EQ(r.pmanForwards, g.pmanForwards) << variantName(g.kind);
        EXPECT_EQ(r.shadowBytes, g.shadowBytes) << variantName(g.kind);
        EXPECT_EQ(r.dramBytes, g.dramBytes) << variantName(g.kind);
    }
}

} // namespace
} // namespace chex
