/**
 * @file
 * Enforcement-variant definitions: the design points compared in
 * Figure 6 — the insecure baseline, the hardware-only scheme
 * (capability checks folded into the load/store unit), the binary
 * translation-driven scheme (macro-level instrumentation of every
 * register-memory instruction), the microcode-level always-on
 * scheme, the prediction-driven microcode scheme (the CHEx86
 * default), and a model of LLVM AddressSanitizer (the software
 * state of the art the paper compares against).
 */

#ifndef CHEX_UCODE_VARIANT_HH
#define CHEX_UCODE_VARIANT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "isa/uops.hh"

namespace chex
{

/** The six evaluated enforcement schemes. */
enum class VariantKind : uint8_t
{
    Baseline,            // insecure
    HardwareOnly,        // checks in the LSU, no instrumentation
    BinaryTranslation,   // macro-level instrumentation
    MicrocodeAlwaysOn,   // capCheck on every load/store micro-op
    MicrocodePrediction, // on-demand, prediction-driven (default)
    Asan,                // AddressSanitizer model
};

/**
 * @{ @name The variant table
 *
 * One row per variant — {kind, Figure 6 legend name, CLI token} — in
 * legend order. Adding a variant is one row here plus its System
 * hooks; every sweep, list and name lookup reads this table.
 */
/** Every variant, in Figure 6 legend order. */
const std::vector<VariantKind> &allVariants();

/** Printable variant name (Figure 6 legend). */
const char *variantName(VariantKind kind);

/** Short command-line token ("baseline", "ucode-pred", ...). */
const char *variantToken(VariantKind kind);

/**
 * Reverse of variantName, for reconstructing specs from report rows.
 * Returns false when @p name is not a known variant name.
 */
bool variantFromName(const std::string &name, VariantKind *out);

/** Reverse of variantToken; false when @p token is unknown. */
bool variantFromToken(const std::string &token, VariantKind *out);
/** @} */

/** True for the variants that use capability machinery. */
constexpr bool
usesCapabilities(VariantKind kind)
{
    return kind == VariantKind::HardwareOnly ||
           kind == VariantKind::BinaryTranslation ||
           kind == VariantKind::MicrocodeAlwaysOn ||
           kind == VariantKind::MicrocodePrediction;
}

/** A half-open PC range marked security-critical. */
struct CodeRegion
{
    uint64_t lo = 0;
    uint64_t hi = 0;

    bool contains(uint64_t pc) const { return pc >= lo && pc < hi; }
};

/** Variant configuration. */
struct VariantConfig
{
    VariantKind kind = VariantKind::MicrocodePrediction;

    /** Stop the simulated program at the first flagged violation. */
    bool haltOnViolation = true;

    /**
     * Context-sensitive enforcement: when non-empty, capCheck
     * micro-ops are injected only for dereferences inside these
     * regions (allocations are always tracked). Empty = protect
     * everything.
     */
    std::vector<CodeRegion> criticalRegions;

    /** Binary-translation warmup cost per new static instruction. */
    unsigned btTranslationCycles = 40;

    /** ASan model: shadow-memory base in the simulated VA space. */
    uint64_t asanShadowBase = 0x7fff8000ull << 16;

    bool
    pcIsCritical(uint64_t pc) const
    {
        if (criticalRegions.empty())
            return true;
        for (const auto &r : criticalRegions)
            if (r.contains(pc))
                return true;
        return false;
    }
};

/**
 * A synthetic macro-instruction inserted by macro-level
 * instrumentation (binary translation / ASan). Consumes a fetch
 * slot like a real instruction.
 */
struct SyntheticMacro
{
    std::vector<StaticUop> uops;
};

/**
 * The AddressSanitizer check sequence for one memory operand:
 *   lea   t1, [mem]          ; recompute the address
 *   shr   t1, 3              ; shadow index
 *   mov   t2, [t1 + shadowBase] (byte load)
 *   cmp   t2, 0 -> t2        ; poisoned? (branch folded; always
 *                              well-predicted in violation-free runs)
 * Modelled as three synthetic macros totalling four micro-ops.
 *
 * Built in place: fills @p macros on first use and afterwards only
 * re-patches the fields that vary per call (the memory operand and
 * shadow base). The instrumentation loop runs once per protected
 * memory macro-op, and rebuilding the vectors from scratch dominated
 * its cost.
 */
void asanCheckSequenceInto(std::vector<SyntheticMacro> &macros,
                           const MemOperand &mem, uint64_t shadow_base);

/**
 * The binary-translation check: one extra macro-instruction using a
 * secure ISA extension, built in place like asanCheckSequenceInto —
 *   lea      t1, [mem]
 *   capcheck t1
 */
void btCheckSequenceInto(std::vector<SyntheticMacro> &macros,
                         const MemOperand &mem);

} // namespace chex

#endif // CHEX_UCODE_VARIANT_HH
