#include "reg_tags.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace chex
{

namespace
{

// The step loop keeps ~64 writes in flight; the first write allocates
// just above that, so the ring never grows again in a normal run and
// variants that never write a tag never allocate it.
constexpr size_t InitialLogSize = 128;

/** Parse @p j as a 32-bit PID; false when absent, mistyped or wider. */
bool
readPid(const json::Value *j, Pid *out)
{
    if (!j || !j->isNumber())
        return false;
    uint64_t v = j->asUint64();
    if (v > std::numeric_limits<Pid>::max())
        return false;
    *out = static_cast<Pid>(v);
    return true;
}

} // namespace

RegTagFile::RegTagFile()
{
    clear();
}

Pid
RegTagFile::current(RegId reg) const
{
    chex_assert(reg < NumArchRegs, "bad register");
    return cur[reg];
}

Pid
RegTagFile::committed(RegId reg) const
{
    chex_assert(reg < NumArchRegs, "bad register");
    return fin[reg];
}

void
RegTagFile::write(RegId reg, Pid pid, uint64_t seq)
{
    chex_assert(reg < NumArchRegs, "bad register");
    if (count) {
        // Global order: the log stays sorted by seq.
        chex_assert(at(count - 1).seq <= seq, "out-of-order tag write");
        // Per register: strictly ascending, so only writes at this
        // same seq can collide.
        for (size_t i = count; i-- > 0 && at(i).seq == seq;)
            chex_assert(at(i).reg != reg, "out-of-order transient write");
    }
    if (count == log.size())
        grow();
    log[(head + count) & mask] = {seq, pid, cur[reg], reg};
    ++count;
    cur[reg] = pid;
}

void
RegTagFile::grow()
{
    std::vector<LogEntry> bigger(log.empty() ? InitialLogSize
                                             : log.size() * 2);
    for (size_t i = 0; i < count; ++i)
        bigger[i] = at(i);
    log = std::move(bigger);
    mask = log.size() - 1;
    head = 0;
}

void
RegTagFile::commitUpTo(uint64_t seq)
{
    while (count && log[head].seq <= seq) {
        const LogEntry &e = log[head];
        fin[e.reg] = e.pid;
        head = (head + 1) & mask;
        --count;
    }
}

void
RegTagFile::squashAfter(uint64_t seq)
{
    // A popped entry's prev is the register's youngest surviving tag:
    // the transient before it if still in flight, else the finalized
    // PID, which no younger write can have changed.
    while (count && at(count - 1).seq > seq) {
        const LogEntry &e = at(count - 1);
        cur[e.reg] = e.prev;
        --count;
    }
}

void
RegTagFile::clear()
{
    std::fill(std::begin(cur), std::end(cur), NoPid);
    std::fill(std::begin(fin), std::end(fin), NoPid);
    head = 0;
    count = 0;
}

json::Value
RegTagFile::saveState() const
{
    std::vector<json::Value> transients(NumArchRegs, json::Value::array());
    for (size_t i = 0; i < count; ++i) {
        const LogEntry &e = at(i);
        json::Value pair = json::Value::array();
        pair.push(e.seq);
        pair.push(e.pid);
        transients[e.reg].push(std::move(pair));
    }
    json::Value out = json::Value::array();
    for (size_t r = 0; r < NumArchRegs; ++r) {
        json::Value jt = json::Value::object();
        jt.set("finalized", fin[r]);
        jt.set("transients", std::move(transients[r]));
        out.push(std::move(jt));
    }
    return out;
}

bool
RegTagFile::restoreState(const json::Value &v)
{
    if (!v.isArray() || v.size() != NumArchRegs)
        return false;
    Pid finalized[NumArchRegs];
    std::vector<LogEntry> entries;
    for (size_t r = 0; r < NumArchRegs; ++r) {
        const json::Value &jt = v.at(r);
        if (!jt.isObject() || !readPid(jt.find("finalized"), &finalized[r]))
            return false;
        const json::Value *jtr = jt.find("transients");
        if (!jtr || !jtr->isArray())
            return false;
        for (size_t i = 0; i < jtr->size(); ++i) {
            const json::Value &pair = jtr->at(i);
            if (!pair.isArray() || pair.size() != 2 ||
                !pair.at(size_t(0)).isNumber()) {
                return false;
            }
            LogEntry e{pair.at(size_t(0)).asUint64(), NoPid, NoPid,
                       static_cast<RegId>(r)};
            if (!readPid(&pair.at(size_t(1)), &e.pid) ||
                (i > 0 && e.seq <= entries.back().seq)) {
                return false;
            }
            entries.push_back(e);
        }
    }

    // Merge the per-register lists into one seq-ordered log; replaying
    // them through write() rebuilds cur[] and each entry's prev.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const LogEntry &a, const LogEntry &b) {
                         return a.seq < b.seq;
                     });
    clear();
    std::copy(std::begin(finalized), std::end(finalized), fin);
    std::copy(std::begin(finalized), std::end(finalized), cur);
    for (const LogEntry &e : entries)
        write(e.reg, e.pid, e.seq);
    return true;
}

} // namespace chex
