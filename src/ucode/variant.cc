#include "variant.hh"

namespace chex
{

namespace
{

struct VariantRow
{
    VariantKind kind;
    const char *name;
    const char *token;
};

// Figure 6 legend order.
constexpr VariantRow Variants[] = {
    {VariantKind::Baseline, "Insecure BaseLine", "baseline"},
    {VariantKind::HardwareOnly, "CHEx86: Hardware Only", "hw-only"},
    {VariantKind::BinaryTranslation, "CHEx86: Binary Translation",
     "bintrans"},
    {VariantKind::MicrocodeAlwaysOn,
     "CHEx86: Micro-code Level - Always On", "ucode-always"},
    {VariantKind::MicrocodePrediction,
     "CHEx86: Micro-code Prediction Driven", "ucode-pred"},
    {VariantKind::Asan, "ASan", "asan"},
};

const VariantRow *
rowOf(VariantKind kind)
{
    for (const VariantRow &r : Variants)
        if (r.kind == kind)
            return &r;
    return nullptr;
}

} // namespace

const std::vector<VariantKind> &
allVariants()
{
    static const std::vector<VariantKind> all = [] {
        std::vector<VariantKind> kinds;
        for (const VariantRow &r : Variants)
            kinds.push_back(r.kind);
        return kinds;
    }();
    return all;
}

const char *
variantName(VariantKind kind)
{
    const VariantRow *r = rowOf(kind);
    return r ? r->name : "???";
}

const char *
variantToken(VariantKind kind)
{
    const VariantRow *r = rowOf(kind);
    return r ? r->token : "???";
}

bool
variantFromName(const std::string &name, VariantKind *out)
{
    for (const VariantRow &r : Variants) {
        if (name == r.name) {
            *out = r.kind;
            return true;
        }
    }
    return false;
}

bool
variantFromToken(const std::string &token, VariantKind *out)
{
    for (const VariantRow &r : Variants) {
        if (token == r.token) {
            *out = r.kind;
            return true;
        }
    }
    return false;
}

void
asanCheckSequenceInto(std::vector<SyntheticMacro> &macros,
                      const MemOperand &mem, uint64_t shadow_base)
{
    if (!macros.empty()) {
        // Structure already built: only the memory operand and the
        // shadow displacement vary between calls.
        macros[0].uops[0].mem = mem;
        macros[2].uops[0].mem.disp = static_cast<int64_t>(shadow_base);
        return;
    }
    macros.resize(4);

    // lea t1, [mem]
    StaticUop lea;
    lea.type = UopType::Lea;
    lea.dst = T1;
    lea.mem = mem;
    lea.hasMem = true;
    lea.synthetic = true;
    macros[0].uops.push_back(lea);

    // shr t1, 3
    StaticUop shr;
    shr.type = UopType::IntAlu;
    shr.op = AluOp::Shr;
    shr.dst = T1;
    shr.src1 = T1;
    shr.imm = 3;
    shr.useImm = true;
    shr.synthetic = true;
    macros[1].uops.push_back(shr);

    // mov t2, byte [t1 + shadowBase]
    StaticUop ld;
    ld.type = UopType::Load;
    ld.dst = T2;
    ld.mem.base = T1;
    ld.mem.disp = static_cast<int64_t>(shadow_base);
    ld.hasMem = true;
    ld.memSize = 1;
    ld.synthetic = true;
    macros[2].uops.push_back(ld);

    // cmp t2, 0 (result to t2, keeping the program's FLAGS intact)
    StaticUop cmp;
    cmp.type = UopType::IntAlu;
    cmp.op = AluOp::Cmp;
    cmp.dst = T2;
    cmp.src1 = T2;
    cmp.imm = 0;
    cmp.useImm = true;
    cmp.synthetic = true;
    macros[2].uops.push_back(cmp);

    // jne __asan_report (never taken in violation-free runs, but a
    // real instruction occupying fetch/issue/BTB resources).
    StaticUop jne;
    jne.type = UopType::Branch;
    jne.cc = CondCode::NE;
    jne.src1 = T2;
    jne.synthetic = true;
    macros[3].uops.push_back(jne);
}

void
btCheckSequenceInto(std::vector<SyntheticMacro> &macros,
                    const MemOperand &mem)
{
    if (!macros.empty()) {
        macros[0].uops[0].mem = mem;
        return;
    }
    macros.resize(1);

    StaticUop lea;
    lea.type = UopType::Lea;
    lea.dst = T1;
    lea.mem = mem;
    lea.hasMem = true;
    lea.synthetic = true;
    macros[0].uops.push_back(lea);

    StaticUop check;
    check.type = UopType::CapCheck;
    check.src1 = T1;
    check.synthetic = true;
    macros[0].uops.push_back(check);
}

} // namespace chex
