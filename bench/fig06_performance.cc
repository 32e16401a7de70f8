/**
 * @file
 * Figure 6: normalized performance (top) and dynamic micro-op
 * expansion (bottom) for all six design points across the 14 C/C++
 * SPEC CPU2017 and PARSEC benchmarks.
 *
 * Reported exactly as the paper plots them: performance normalized
 * to the insecure baseline (1.0 = baseline speed, lower = slower)
 * and micro-op counts normalized to the baseline's.
 *
 * Headline numbers this regenerates (Section VII-D): the
 * prediction-driven microcode variant slows execution ~14 % (SPEC) /
 * ~9 % (PARSEC) vs the insecure baseline, outperforms ASan by ~59 %
 * (SPEC), beats the binary-translation variant by ~12 %, always
 * beats always-on, and supersedes hardware-only on the
 * pointer-intensive outliers (mcf, xalancbmk, leela).
 */

#include <iostream>
#include <map>
#include <vector>

#include "base/table.hh"
#include "common.hh"

using namespace chex;
using namespace chex::bench;

int
main()
{
    const std::vector<VariantKind> &kinds = allVariants();

    std::printf("Figure 6 (top): Normalized Performance "
                "(baseline = 1.00, lower is slower)\n\n");

    Table perf({"benchmark", "Baseline", "HW-Only", "BinTrans",
                "ucode-AlwaysOn", "ucode-Prediction", "ASan"});
    Table uops({"benchmark", "Baseline", "HW-Only", "BinTrans",
                "ucode-AlwaysOn", "ucode-Prediction", "ASan"});

    std::map<VariantKind, std::vector<double>> spec_slow, parsec_slow;
    std::map<VariantKind, std::vector<double>> spec_exp, parsec_exp;

    // The whole (14 profiles x 6 variants) sweep runs on the
    // campaign driver's worker pool; results come back in row-major
    // submission order.
    const std::vector<BenchmarkProfile> &profiles = allProfiles();
    std::vector<RunResult> results = runMatrix(profiles, kinds);

    for (size_t pi = 0; pi < profiles.size(); ++pi) {
        const BenchmarkProfile &p = profiles[pi];
        uint64_t base_cycles = 0, base_uops = 0;
        std::vector<std::string> prow{p.name}, urow{p.name};
        for (size_t vi = 0; vi < kinds.size(); ++vi) {
            VariantKind kind = kinds[vi];
            const RunResult &r = results[pi * kinds.size() + vi];
            if (kind == VariantKind::Baseline) {
                base_cycles = r.cycles;
                base_uops = r.uops;
            }
            double norm_perf =
                static_cast<double>(base_cycles) / r.cycles;
            double expansion =
                static_cast<double>(r.uops) / base_uops;
            prow.push_back(Table::num(norm_perf, 3));
            urow.push_back(Table::num(expansion, 2));
            double slowdown =
                static_cast<double>(r.cycles) / base_cycles;
            (p.isParsec ? parsec_slow : spec_slow)[kind].push_back(
                slowdown);
            (p.isParsec ? parsec_exp : spec_exp)[kind].push_back(
                expansion);
        }
        perf.addRow(prow);
        uops.addRow(urow);
    }
    perf.print(std::cout);

    std::printf("\nFigure 6 (bottom): Normalized uop Expansion\n\n");
    uops.print(std::cout);

    std::printf("\nSummary (geometric means):\n");
    Table sum({"variant", "SPEC slowdown", "PARSEC slowdown",
               "SPEC uop exp", "PARSEC uop exp"});
    for (VariantKind kind : kinds) {
        sum.addRow({variantName(kind),
                    Table::num(geomean(spec_slow[kind]), 3),
                    Table::num(geomean(parsec_slow[kind]), 3),
                    Table::num(geomean(spec_exp[kind]), 2),
                    Table::num(geomean(parsec_exp[kind]), 2)});
    }
    sum.print(std::cout);

    double pred_spec =
        geomean(spec_slow[VariantKind::MicrocodePrediction]);
    double pred_parsec =
        geomean(parsec_slow[VariantKind::MicrocodePrediction]);
    double asan_spec = geomean(spec_slow[VariantKind::Asan]);
    double asan_parsec = geomean(parsec_slow[VariantKind::Asan]);
    double bt_spec =
        geomean(spec_slow[VariantKind::BinaryTranslation]);

    std::printf("\nPaper targets vs measured:\n");
    std::printf("  slowdown vs insecure baseline: paper 14%% SPEC / "
                "9%% PARSEC; measured %.0f%% / %.0f%%\n",
                (pred_spec - 1) * 100, (pred_parsec - 1) * 100);
    std::printf("  speedup vs ASan: paper 59%% SPEC / 2.2x PARSEC; "
                "measured %.0f%% / %.2fx\n",
                (asan_spec / pred_spec - 1) * 100,
                asan_parsec / pred_parsec);
    std::printf("  speedup vs binary translation: paper 12%%; "
                "measured %.0f%%\n",
                (bt_spec / pred_spec - 1) * 100);
    return 0;
}
