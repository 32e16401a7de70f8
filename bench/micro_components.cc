/**
 * @file
 * Component micro-benchmarks (google-benchmark): host-side
 * throughput of the structures CHEx86 adds — capability-table
 * checks, capability-cache lookups, the alias table and its walker,
 * the alias predictor, the register PID tags, the rule engine, the
 * decoder, and the simulated allocator. These gate simulator
 * performance and document the cost of each model.
 */

#include <benchmark/benchmark.h>

#include "cap/cap_cache.hh"
#include "cap/cap_table.hh"
#include "heap/allocator.hh"
#include "isa/assembler.hh"
#include "isa/decoder.hh"
#include "mem/alias_table.hh"
#include "tracker/alias_predictor.hh"
#include "tracker/reg_tags.hh"
#include "tracker/rules.hh"

using namespace chex;

namespace
{

void
BM_CapTableCheck(benchmark::State &state)
{
    CapabilityTable t;
    Violation v;
    Pid pid = t.beginGeneration(256, &v);
    t.endGeneration(pid, 0x10000);
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.check(pid, 0x10080, 8, true));
    }
}
BENCHMARK(BM_CapTableCheck);

void
BM_CapTableExhaustiveSearch(benchmark::State &state)
{
    CapabilityTable t;
    Violation v;
    for (int i = 0; i < state.range(0); ++i) {
        Pid p = t.beginGeneration(64, &v);
        t.endGeneration(p, 0x10000 + static_cast<uint64_t>(i) * 128);
    }
    uint64_t addr = 0x10000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.pidForAddress(addr));
        addr += 128;
        if (addr > 0x10000 + static_cast<uint64_t>(state.range(0)) * 128)
            addr = 0x10000;
    }
}
BENCHMARK(BM_CapTableExhaustiveSearch)->Arg(100)->Arg(10000);

void
BM_CapCacheLookup(benchmark::State &state)
{
    CapabilityCache cache(64);
    Pid pid = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(pid));
        pid = pid % 48 + 1; // stays within capacity: mostly hits
    }
}
BENCHMARK(BM_CapCacheLookup);

void
BM_AliasTableSetGet(benchmark::State &state)
{
    AliasTable t;
    uint64_t addr = 0x10000000;
    for (auto _ : state) {
        t.set(addr, 5);
        benchmark::DoNotOptimize(t.get(addr));
        addr += 8;
    }
}
BENCHMARK(BM_AliasTableSetGet);

void
BM_AliasTableWalk(benchmark::State &state)
{
    AliasTable t;
    for (uint64_t a = 0; a < 4096; a += 8)
        t.set(0x10000000 + a, 7);
    uint64_t addr = 0x10000000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.walk(addr));
        addr = 0x10000000 + (addr + 8) % 4096;
    }
}
BENCHMARK(BM_AliasTableWalk);

void
BM_AliasPredictor(benchmark::State &state)
{
    AliasPredictor pred;
    uint64_t pc = 0x400000;
    Pid pid = 1;
    for (auto _ : state) {
        AliasPrediction p = pred.predict(pc);
        pred.update(pc, p, pid);
        pc = 0x400000 + (pc + 4) % 1024;
        pid = pid % 64 + 1;
    }
}
BENCHMARK(BM_AliasPredictor);

void
BM_RegTagsCommit(benchmark::State &state)
{
    // The step loop's pattern: one tag write per micro-op across 16
    // registers, then commit everything older than 64 micro-ops.
    RegTagFile tags;
    uint64_t seq = 0;
    for (auto _ : state) {
        ++seq;
        tags.write(static_cast<RegId>(seq % 16),
                   static_cast<Pid>(1 + seq % 64), seq);
        tags.commitUpTo(seq > 64 ? seq - 64 : 0);
    }
    benchmark::DoNotOptimize(tags.current(RAX));
}
BENCHMARK(BM_RegTagsCommit);

void
BM_RulePropagate(benchmark::State &state)
{
    RuleDatabase db = RuleDatabase::tableI();
    StaticUop u;
    u.type = UopType::IntAlu;
    u.op = AluOp::Add;
    u.dst = RCX;
    u.src1 = RBX;
    u.src2 = RAX;
    for (auto _ : state) {
        benchmark::DoNotOptimize(db.propagate(u, 5, 0));
    }
}
BENCHMARK(BM_RulePropagate);

void
BM_DecoderCrack(benchmark::State &state)
{
    MacroInst mi;
    mi.opcode = MacroOpcode::ADD_MR;
    mi.src = RBX;
    mi.mem = memAt(RAX, 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(Decoder::crack(mi, 0x400000));
    }
}
BENCHMARK(BM_DecoderCrack);

void
BM_HeapMallocFree(benchmark::State &state)
{
    SparseMemory mem;
    HeapAllocator heap(mem, layout::HeapBase, layout::HeapLimit);
    for (auto _ : state) {
        uint64_t p = heap.malloc(static_cast<uint64_t>(state.range(0)),
                                 nullptr);
        heap.free(p, nullptr);
    }
}
BENCHMARK(BM_HeapMallocFree)->Arg(64)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
