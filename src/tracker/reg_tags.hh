/**
 * @file
 * Speculative register PID tags (Section V-D): each architectural
 * register carries (1) the finalized PID propagated by the last
 * committed instruction and (2) the transient PIDs written by
 * in-flight instructions. Reads return the youngest transient tag
 * (the fetch stage runs ahead of the pipe); squashes discard every
 * transient tag younger than the offending instruction; commits fold
 * the oldest tags into the finalized field.
 *
 * Like a ROB, the transients of all registers live in one write log
 * in ascending sequence-number order (writes arrive in program
 * order). Each log entry remembers the register's tag before the
 * write, so commit pops the front into fin[], squash pops the back
 * and restores cur[] from it, and both reads are one array load:
 * every operation is O(1) amortised, with no per-register scan.
 */

#ifndef CHEX_TRACKER_REG_TAGS_HH
#define CHEX_TRACKER_REG_TAGS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/json.hh"
#include "cap/capability.hh"
#include "isa/regs.hh"

namespace chex
{

/** The per-register committed + transient PID tag file. */
class RegTagFile
{
  public:
    RegTagFile();

    /** Youngest (speculative) PID tag of @p reg. */
    Pid current(RegId reg) const;

    /** Finalized (committed) PID tag of @p reg. */
    Pid committed(RegId reg) const;

    /**
     * Record a transient write of @p pid to @p reg at @p seq. Writes
     * must arrive in non-decreasing @p seq order, and strictly
     * increasing per register.
     */
    void write(RegId reg, Pid pid, uint64_t seq);

    /** Commit every transient write with sequence number <= @p seq. */
    void commitUpTo(uint64_t seq);

    /** Discard every transient write with sequence number > @p seq. */
    void squashAfter(uint64_t seq);

    /** Total transient entries currently held (for tests). */
    size_t transientCount() const { return count; }

    /** Reset to all-zero tags. */
    void clear();

    /**
     * @{ @name Snapshot serialization (chex-snapshot-v1)
     * One object per register: `finalized` plus its transients as
     * ascending `[seq, pid]` pairs. Restore rejects (and leaves the
     * file unchanged on) a missing or mistyped field or a register
     * whose transients are not strictly ascending in seq.
     */
    json::Value saveState() const;
    bool restoreState(const json::Value &v, std::string *err = nullptr);
    /** @} */

  private:
    friend struct json::Codec<RegTagFile>;

    struct LogEntry
    {
        uint64_t seq;
        Pid pid;
        Pid prev; // cur[reg] before this write; restored on squash
        RegId reg;
    };

    /** The @p i-th oldest in-flight write. */
    const LogEntry &at(size_t i) const { return log[(head + i) & mask]; }
    void grow();

    Pid cur[NumArchRegs]; // youngest tag: current()
    Pid fin[NumArchRegs]; // finalized tag: committed()

    // Power-of-two ring of in-flight writes, oldest at head; empty
    // until the first write.
    std::vector<LogEntry> log;
    size_t mask = 0;
    size_t head = 0;
    size_t count = 0;
};

namespace json
{

template <>
struct Codec<RegTagFile>
{
    static Value write(const RegTagFile &tags);
    static bool read(const Value &v, RegTagFile &tags, Error &err);
};

} // namespace json
} // namespace chex

#endif // CHEX_TRACKER_REG_TAGS_HH
