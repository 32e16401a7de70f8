/**
 * @file
 * Architectural machine state and functional micro-op execution.
 * The simulator executes the correct path in program order here
 * (oracle execution); the timing core models the out-of-order
 * pipeline over the resulting micro-op stream.
 */

#ifndef CHEX_CPU_MACHINE_STATE_HH
#define CHEX_CPU_MACHINE_STATE_HH

#include <cstdint>

#include "isa/uops.hh"
#include "mem/sparse_memory.hh"

namespace chex
{

/** Side effects of functionally executing one micro-op. */
struct UopEffect
{
    uint64_t value = 0;       // result written to dst (if any)
    uint64_t effAddr = 0;     // effective address (memory ops / LEA)
    bool hasAddr = false;
    bool isBranch = false;
    bool branchTaken = false;
    uint64_t branchTarget = 0;
};

/** Register file + simulated memory with functional execution. */
class MachineState
{
  public:
    explicit MachineState(SparseMemory &mem_in) : mem(mem_in)
    {
        for (auto &r : regs)
            r = 0;
    }

    uint64_t
    reg(RegId r) const
    {
        return r < NumArchRegs ? regs[r] : 0;
    }

    void
    setReg(RegId r, uint64_t value)
    {
        if (r < NumArchRegs)
            regs[r] = value;
    }

    /** Compute the effective address of a memory operand. */
    uint64_t effectiveAddr(const MemOperand &m) const;

    /**
     * Execute @p uop, applying all register/memory effects.
     * @param direct_target Branch target for direct branches (from
     *        the parent macro-instruction).
     */
    UopEffect execute(const StaticUop &uop, uint64_t direct_target);

    SparseMemory &memory() { return mem; }

    /** The snapshot (chex-snapshot-v1) form: the register file
     * alone; memory travels with its owner. */
    template <class Self>
    static auto &
    snapshotRegs(Self &self)
    {
        return self.regs;
    }

  private:
    uint64_t regs[NumArchRegs];
    SparseMemory &mem;
};

} // namespace chex

#endif // CHEX_CPU_MACHINE_STATE_HH
