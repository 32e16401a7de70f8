/**
 * @file
 * Enforcement-variant tests: the Figure 6 performance ordering
 * (baseline fastest; prediction-driven beats always-on, binary
 * translation, and ASan; hardware-only loses on pointer-intensive
 * code), micro-op expansion bounds, context-sensitive enforcement,
 * the shadow-storage model of Figure 9, and the variant table every
 * sweep and CLI token lookup reads.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "isa/assembler.hh"
#include "sim/system.hh"
#include "workload/generator.hh"

namespace chex
{
namespace
{

RunResult
runVariant(const Program &prog, VariantKind kind,
           std::vector<CodeRegion> regions = {})
{
    SystemConfig cfg;
    cfg.variant.kind = kind;
    cfg.variant.criticalRegions = std::move(regions);
    System sys(cfg);
    sys.load(prog);
    RunResult r = sys.run();
    EXPECT_TRUE(r.exited) << variantName(kind);
    EXPECT_FALSE(r.violationDetected) << variantName(kind);
    return r;
}

TEST(Variants, TableCoversEveryKindOnce)
{
    // Figure 6 legend order, with the CLI tokens campaign reports,
    // snapshot bundles and benchmark metric names are keyed by.
    const std::pair<VariantKind, const char *> legend[] = {
        {VariantKind::Baseline, "baseline"},
        {VariantKind::HardwareOnly, "hw-only"},
        {VariantKind::BinaryTranslation, "bintrans"},
        {VariantKind::MicrocodeAlwaysOn, "ucode-always"},
        {VariantKind::MicrocodePrediction, "ucode-pred"},
        {VariantKind::Asan, "asan"},
    };
    const std::vector<VariantKind> &all = allVariants();
    ASSERT_EQ(all.size(), std::size(legend));
    std::set<std::string> names;
    for (size_t i = 0; i < all.size(); ++i) {
        VariantKind kind = all[i];
        SCOPED_TRACE(variantName(kind));
        EXPECT_EQ(kind, legend[i].first);
        EXPECT_STREQ(variantToken(kind), legend[i].second);
        VariantKind back = VariantKind::Baseline;
        ASSERT_TRUE(variantFromName(variantName(kind), &back));
        EXPECT_EQ(back, kind);
        back = VariantKind::Baseline;
        ASSERT_TRUE(variantFromToken(variantToken(kind), &back));
        EXPECT_EQ(back, kind);
        EXPECT_TRUE(names.insert(variantName(kind)).second);
    }

    VariantKind out = VariantKind::Asan;
    for (const char *bad : {"", "nope", "Baseline", "ASAN"})
        EXPECT_FALSE(variantFromName(bad, &out) ||
                     variantFromToken(bad, &out))
            << bad;
    // A legend name is not a token, nor a token a legend name.
    EXPECT_FALSE(variantFromToken("Insecure BaseLine", &out));
    EXPECT_FALSE(variantFromName("baseline", &out));
    EXPECT_EQ(out, VariantKind::Asan);
}

Program
pointerHeavyProgram()
{
    BenchmarkProfile p = profileByName("mcf");
    p.iterations = 1200;
    return generateWorkload(p, 5);
}

TEST(Variants, Figure6PerformanceOrdering)
{
    Program prog = pointerHeavyProgram();
    RunResult base = runVariant(prog, VariantKind::Baseline);
    RunResult hw = runVariant(prog, VariantKind::HardwareOnly);
    RunResult bt = runVariant(prog, VariantKind::BinaryTranslation);
    RunResult on = runVariant(prog, VariantKind::MicrocodeAlwaysOn);
    RunResult pred =
        runVariant(prog, VariantKind::MicrocodePrediction);
    RunResult asan = runVariant(prog, VariantKind::Asan);

    // Baseline is fastest.
    EXPECT_LT(base.cycles, pred.cycles);
    // Prediction-driven beats always-on and binary translation.
    EXPECT_LE(pred.cycles, on.cycles);
    EXPECT_LT(pred.cycles, bt.cycles);
    // On pointer-intensive code it also beats hardware-only.
    EXPECT_LT(pred.cycles, hw.cycles);
    // The software mitigation is the slowest.
    EXPECT_GT(asan.cycles, pred.cycles);
    EXPECT_GT(asan.cycles, base.cycles);
}

TEST(Variants, UopExpansionShape)
{
    // Figure 6 bottom: CHEx86's expansion is modest; ASan more than
    // doubles the dynamic micro-op count on pointer-heavy code.
    Program prog = pointerHeavyProgram();
    RunResult base = runVariant(prog, VariantKind::Baseline);
    RunResult pred =
        runVariant(prog, VariantKind::MicrocodePrediction);
    RunResult on = runVariant(prog, VariantKind::MicrocodeAlwaysOn);
    RunResult asan = runVariant(prog, VariantKind::Asan);

    double pred_exp =
        static_cast<double>(pred.uops) / base.uops;
    double on_exp = static_cast<double>(on.uops) / base.uops;
    EXPECT_GT(on_exp, 1.0);
    double asan_exp =
        static_cast<double>(asan.uops) / base.uops;

    EXPECT_GT(pred_exp, 1.0);
    EXPECT_LT(pred_exp, 1.6);
    // Prediction-driven injects no more than always-on.
    EXPECT_LE(pred.uops, on.uops);
    EXPECT_GT(asan_exp, 1.8);
}

TEST(Variants, BaselineInjectsNothing)
{
    Program prog = generateSmokeProgram(4, 128);
    RunResult r = runVariant(prog, VariantKind::Baseline);
    EXPECT_EQ(r.capChecksInjected, 0u);
    EXPECT_EQ(r.injectedUops, 0u);
    EXPECT_EQ(r.shadowBytes, 0u);
}

TEST(Variants, AlwaysOnChecksEveryMemoryOp)
{
    Program prog = generateSmokeProgram(4, 128);
    RunResult on = runVariant(prog, VariantKind::MicrocodeAlwaysOn);
    RunResult pred =
        runVariant(prog, VariantKind::MicrocodePrediction);
    EXPECT_GT(on.capChecksInjected, pred.capChecksInjected);
}

TEST(Variants, HardwareOnlyChecksWithoutInjection)
{
    Program prog = generateSmokeProgram(4, 128);
    RunResult hw = runVariant(prog, VariantKind::HardwareOnly);
    EXPECT_GT(hw.capChecksInjected, 0u);
    // No capCheck micro-ops enter the pipeline (LSU-internal).
    EXPECT_LT(hw.injectedUops, hw.capChecksInjected);
}

TEST(Variants, HardwareOnlyStillDetects)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 80), 1, 8);
    as.hlt();
    Program prog = as.finalize();

    SystemConfig cfg;
    cfg.variant.kind = VariantKind::HardwareOnly;
    System sys(cfg);
    sys.load(prog);
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
    EXPECT_EQ(r.violations[0].kind, Violation::OutOfBounds);
}

TEST(Variants, BinaryTranslationDetects)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 80), 1, 8);
    as.hlt();
    Program prog = as.finalize();

    SystemConfig cfg;
    cfg.variant.kind = VariantKind::BinaryTranslation;
    System sys(cfg);
    sys.load(prog);
    RunResult r = sys.run();
    ASSERT_TRUE(r.violationDetected);
}

TEST(Variants, ContextSensitiveEnforcementSkipsOutsideRegions)
{
    // Mark a region that excludes all program code: allocations are
    // still tracked, but no checks are injected and the (out of
    // bounds) access goes unflagged — the "surgical" mode of
    // Section V-C.
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 80), 1, 8);
    as.hlt();
    Program prog = as.finalize();

    SystemConfig cfg;
    cfg.variant.kind = VariantKind::MicrocodePrediction;
    cfg.variant.criticalRegions = {{0x1000, 0x2000}}; // nowhere
    System sys(cfg);
    sys.load(prog);
    RunResult r = sys.run();
    EXPECT_FALSE(r.violationDetected);
    EXPECT_EQ(r.capChecksInjected, 0u);
    // Allocations were still tracked.
    EXPECT_GE(sys.capabilityTable().totalCapabilities(), 1u);
}

TEST(Variants, ContextSensitiveEnforcementProtectsInsideRegions)
{
    Assembler as;
    as.movri(RDI, 64);
    as.call(IntrinsicKind::Malloc);
    as.movmi(memAt(RAX, 80), 1, 8);
    as.hlt();
    Program prog = as.finalize();

    SystemConfig cfg;
    cfg.variant.kind = VariantKind::MicrocodePrediction;
    cfg.variant.criticalRegions = {
        {prog.codeBase, prog.codeBase + 0x1000}};
    System sys(cfg);
    sys.load(prog);
    RunResult r = sys.run();
    EXPECT_TRUE(r.violationDetected);
}

TEST(Variants, ContextSensitiveReducesCheckCount)
{
    Program prog = pointerHeavyProgram();
    RunResult all = runVariant(prog, VariantKind::MicrocodePrediction);
    // Protect only the first quarter of the text section.
    RunResult some = runVariant(
        prog, VariantKind::MicrocodePrediction,
        {{prog.codeBase,
          prog.codeBase + prog.numInsts() * InstSlotBytes / 4}});
    EXPECT_LT(some.capChecksInjected, all.capChecksInjected);
    EXPECT_LE(some.cycles, all.cycles);
}

TEST(Variants, ShadowStorageModel)
{
    // Allocation-heavy workload: CHEx86's shadow scales with
    // allocations + aliases, ASan's with the resident set.
    BenchmarkProfile p = profileByName("xalancbmk");
    p.iterations = 1500;
    Program prog = generateWorkload(p, 5);
    RunResult base = runVariant(prog, VariantKind::Baseline);
    RunResult pred =
        runVariant(prog, VariantKind::MicrocodePrediction);
    RunResult asan = runVariant(prog, VariantKind::Asan);

    EXPECT_EQ(base.shadowBytes, 0u);
    EXPECT_GT(pred.shadowBytes, 0u);
    EXPECT_GT(asan.shadowBytes, 0u);
    // Figure 9 top: CHEx86's shadow stays in the same ballpark as
    // ASan's. (At full SimPoint scale the paper reports CHEx86 at or
    // below ASan; at our ~1000x-scaled footprints the 4 KiB radix
    // nodes weigh relatively more, so the bound here is 2x.)
    EXPECT_LE(pred.shadowBytes, asan.shadowBytes * 2);
}

TEST(Variants, BandwidthGrowsModestly)
{
    Program prog = pointerHeavyProgram();
    RunResult base = runVariant(prog, VariantKind::Baseline);
    RunResult pred =
        runVariant(prog, VariantKind::MicrocodePrediction);
    EXPECT_GE(pred.dramBytes, base.dramBytes);
    // Figure 9 bottom: no blow-up — contained within ~2x even for
    // the pointer-intensive outlier.
    EXPECT_LT(static_cast<double>(pred.dramBytes),
              2.5 * static_cast<double>(base.dramBytes));
}

TEST(Variants, SquashTimeDeltaIsSmall)
{
    // Figure 8 bottom: alias-misprediction squashes barely move the
    // total time spent squashing.
    Program prog = pointerHeavyProgram();
    RunResult base = runVariant(prog, VariantKind::Baseline);
    RunResult pred =
        runVariant(prog, VariantKind::MicrocodePrediction);
    EXPECT_LT(pred.squashFraction, base.squashFraction + 0.05);
}

} // namespace
} // namespace chex
