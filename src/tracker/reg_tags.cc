#include "reg_tags.hh"

#include <algorithm>

#include "base/logging.hh"

namespace chex
{

namespace
{

// The step loop keeps ~64 writes in flight; the first write allocates
// just above that, so the ring never grows again in a normal run and
// variants that never write a tag never allocate it.
constexpr size_t InitialLogSize = 128;

/** One register's tags in a snapshot. */
struct RegRecord
{
    Pid finalized = NoPid;
    std::vector<std::pair<uint64_t, Pid>> transients; // [seq, pid]

    template <class Self, class F>
    static void
    fields(Self &self, F &f)
    {
        f("finalized", self.finalized);
        f("transients", self.transients);
    }
};

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

namespace json
{

Value
Codec<RegTagFile>::write(const RegTagFile &tags)
{
    RegRecord regs[NumArchRegs];
    for (size_t r = 0; r < NumArchRegs; ++r)
        regs[r].finalized = tags.fin[r];
    for (size_t i = 0; i < tags.count; ++i) {
        const RegTagFile::LogEntry &e = tags.at(i);
        regs[e.reg].transients.emplace_back(e.seq, e.pid);
    }
    return json::write(regs);
}

bool
Codec<RegTagFile>::read(const Value &v, RegTagFile &tags, Error &err)
{
    RegRecord regs[NumArchRegs];
    if (!json::Codec<RegRecord[NumArchRegs]>::read(v, regs, err))
        return false;
    std::vector<RegTagFile::LogEntry> entries;
    for (size_t r = 0; r < NumArchRegs; ++r) {
        const auto &tr = regs[r].transients;
        for (size_t i = 0; i < tr.size(); ++i) {
            if (i > 0 && tr[i].first <= tr[i - 1].first) {
                err.fail("is not above the previous seq");
                err.within(size_t{0});
                err.within(i);
                err.within("transients");
                err.within(r);
                return false;
            }
            entries.push_back(
                {tr[i].first, tr[i].second, NoPid, static_cast<RegId>(r)});
        }
    }

    // Merge the per-register lists into one seq-ordered log; replaying
    // them through write() rebuilds cur[] and each entry's prev.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto &a, const auto &b) {
                         return a.seq < b.seq;
                     });
    tags.clear();
    for (size_t r = 0; r < NumArchRegs; ++r)
        tags.fin[r] = tags.cur[r] = regs[r].finalized;
    for (const RegTagFile::LogEntry &e : entries)
        tags.write(e.reg, e.pid, e.seq);
    return true;
}

} // namespace json

json::Value
RegTagFile::saveState() const
{
    return json::write(*this);
}

bool
RegTagFile::restoreState(const json::Value &v, std::string *err)
{
    return json::read(v, *this, err);
}

} // namespace chex
