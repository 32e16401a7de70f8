/**
 * @file
 * Variant study: run one benchmark workload (default: mcf, the
 * pointer-chasing outlier; pass another profile name as argv[1])
 * under all six enforcement designs and print a miniature Figure 6
 * row — cycles, slowdown, micro-op expansion, check counts, and the
 * capability/alias machinery statistics behind them.
 */

#include <cstdio>
#include <iostream>

#include "base/table.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

using namespace chex;

int
main(int argc, char **argv)
{
    const char *name = argc > 1 ? argv[1] : "mcf";
    BenchmarkProfile profile = profileByName(name);
    profile.iterations /= 2;
    Program prog = generateWorkload(profile, 1);

    std::printf("Variant study on '%s' (%lu iterations, chase depth "
                "%u, pattern %s)\n\n",
                profile.name.c_str(),
                static_cast<unsigned long>(profile.iterations),
                profile.chaseDepth,
                patternName(profile.dominantPattern));

    Table t({"variant", "cycles", "slowdown", "uop exp", "checks",
             "cap$ miss", "alias$ miss", "pred acc"});
    uint64_t base_cycles = 0, base_uops = 0;
    for (VariantKind kind : allVariants()) {
        SystemConfig cfg;
        cfg.variant.kind = kind;
        System sys(cfg);
        sys.load(prog);
        RunResult r = sys.run();
        if (!r.exited) {
            std::printf("run failed under %s\n", variantName(kind));
            return 1;
        }
        if (kind == VariantKind::Baseline) {
            base_cycles = r.cycles;
            base_uops = r.uops;
        }
        bool caps = usesCapabilities(kind);
        t.addRow({variantName(kind), std::to_string(r.cycles),
                  Table::num(static_cast<double>(r.cycles) /
                                 base_cycles,
                             3),
                  Table::num(static_cast<double>(r.uops) / base_uops,
                             2),
                  std::to_string(r.capChecksInjected),
                  caps ? Table::pct(r.capCacheMissRate) : "-",
                  caps ? Table::pct(r.aliasCacheMissRate) : "-",
                  caps ? Table::pct(r.aliasPredAccuracy) : "-"});
    }
    t.print(std::cout);

    std::printf("\nReading the row shapes (cf. Figure 6): the "
                "prediction-driven microcode variant injects the "
                "fewest checks, avoids the LSU latency of the "
                "hardware-only scheme, and sidesteps the fetch "
                "bandwidth cost of macro-level instrumentation.\n");
    return 0;
}
