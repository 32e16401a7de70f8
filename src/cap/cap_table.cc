#include "cap_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace chex
{

CapabilityTable::CapabilityTable() = default;

Pid
CapabilityTable::beginGeneration(uint64_t request_size,
                                 Violation *violation)
{
    if (violation)
        *violation = Violation::None;
    if (request_size > maxAllocSize) {
        if (violation)
            *violation = Violation::OversizeAlloc;
        return NoPid;
    }
    Pid pid = nextPid++;
    Capability cap;
    cap.bounds = static_cast<uint32_t>(request_size);
    cap.perms = CapBusy | CapRead | CapWrite | CapHeap;
    store.assign(pid, cap);
    return pid;
}

void
CapabilityTable::endGeneration(Pid pid, uint64_t base)
{
    Capability *cap = store.find(pid);
    if (!cap)
        return;
    cap->base = base;
    cap->perms &= ~CapBusy;
    if (base != 0) {
        cap->perms |= CapValid;
        liveByBase.assign(base, pid);
        ++liveCount;
    }
}

Violation
CapabilityTable::beginFree(Pid pid, uint64_t addr)
{
    if (pid == NoPid || pid == WildPid)
        return Violation::InvalidFree;
    Capability *cap = store.find(pid);
    if (!cap)
        return Violation::InvalidFree;
    if (!(cap->perms & CapHeap))
        return Violation::InvalidFree; // e.g. freeing a global
    if (!cap->valid())
        return Violation::DoubleFree;
    if (addr != cap->base)
        return Violation::InvalidFree; // freeing an interior pointer
    cap->perms |= CapBusy;
    return Violation::None;
}

void
CapabilityTable::endFree(Pid pid)
{
    Capability *cap = store.find(pid);
    if (!cap)
        return;
    bool was_valid = cap->valid();
    cap->perms &= ~(CapValid | CapBusy);
    if (was_valid) {
        liveByBase.erase(cap->base);
        freedByBase.assign(cap->base, pid);
        --liveCount;
    }
}

Pid
CapabilityTable::addGlobal(const std::string &name, uint64_t base,
                           uint64_t size)
{
    (void)name;
    Pid pid = nextPid++;
    Capability cap;
    cap.base = base;
    cap.bounds = static_cast<uint32_t>(size);
    cap.perms = CapValid | CapRead | CapWrite;
    store.assign(pid, cap);
    liveByBase.assign(base, pid);
    ++liveCount;
    return pid;
}

CheckResult
CapabilityTable::check(Pid pid, uint64_t addr, uint64_t size,
                       bool is_write) const
{
    CheckResult result;
    if (pid == NoPid)
        return result; // untracked pointer: no check to perform
    if (pid == WildPid) {
        result.violation = Violation::WildPointer;
        return result;
    }
    const Capability *cap = store.find(pid);
    if (!cap) {
        result.violation = Violation::WildPointer;
        return result;
    }
    if (!cap->valid()) {
        result.violation = Violation::UseAfterFree;
        return result;
    }
    if (!cap->contains(addr, size)) {
        result.violation = Violation::OutOfBounds;
        return result;
    }
    if (is_write && !cap->writable()) {
        result.violation = Violation::PermissionDenied;
        return result;
    }
    if (!is_write && !cap->readable()) {
        result.violation = Violation::PermissionDenied;
        return result;
    }
    return result;
}

const Capability *
CapabilityTable::find(Pid pid) const
{
    return store.find(pid);
}

namespace
{

Pid
searchByBase(const IntervalIndex &index,
             const PagedCapabilityStore &store, uint64_t addr)
{
    uint64_t base;
    Pid pid;
    if (!index.floor(addr, &base, &pid))
        return NoPid;
    const Capability *cap = store.find(pid);
    if (!cap)
        return NoPid;
    if (addr >= cap->base && addr < cap->base + cap->bounds)
        return pid;
    return NoPid;
}

} // anonymous namespace

Pid
CapabilityTable::pidForAddress(uint64_t addr) const
{
    if (Pid pid = searchByBase(liveByBase, store, addr))
        return pid;
    return searchByBase(freedByBase, store, addr);
}

void
CapabilityTable::markInitialized(Pid pid, uint64_t addr, uint64_t size)
{
    if (!trackInit || pid == NoPid || pid == WildPid)
        return;
    const Capability *cap = store.find(pid);
    if (!cap || !cap->valid())
        return;
    if (addr < cap->base || addr >= cap->base + cap->bounds)
        return;
    uint64_t first_word = (addr - cap->base) / 8;
    uint64_t last_word = (addr + std::max<uint64_t>(size, 1) - 1 -
                          cap->base) / 8;
    InitShadow &sh = initBits[pid];
    sh.words = std::max(sh.words, initWordsFor(*cap));
    sh.set.add(first_word, last_word + 1);
}

void
CapabilityTable::markAllInitialized(Pid pid)
{
    if (!trackInit)
        return;
    const Capability *cap = store.find(pid);
    if (!cap)
        return;
    // The old representation re-assigned the whole bitmap here, so
    // the shadow length snaps to the capability's size even if a
    // restored entry was longer.
    InitShadow &sh = initBits[pid];
    sh.words = initWordsFor(*cap);
    sh.set.clear();
    sh.set.add(0, sh.words * 64);
}

bool
CapabilityTable::isInitialized(Pid pid, uint64_t addr,
                               uint64_t size) const
{
    const Capability *cap = store.find(pid);
    if (!cap)
        return true;
    auto bit = initBits.find(pid);
    if (bit == initBits.end())
        return false;
    const InitShadow &sh = bit->second;
    uint64_t first_word = (addr - cap->base) / 8;
    uint64_t last_word =
        (addr + std::max<uint64_t>(size, 1) - 1 - cap->base) / 8;
    // Words past the shadow length read as uninitialized, exactly
    // like indexing past the old bitmap vector.
    if (first_word > last_word || last_word >= sh.words * 64)
        return false;
    return sh.set.covers(first_word, last_word + 1);
}

uint64_t
CapabilityTable::initShadowBytes() const
{
    uint64_t bytes = 0;
    for (const auto &[pid, sh] : initBits) {
        (void)pid;
        bytes += sizeof(InitShadow) + sh.set.storageBytes();
    }
    return bytes;
}

void
CapabilityTable::clear()
{
    store.clear();
    liveByBase.clear();
    freedByBase.clear();
    initBits.clear();
    nextPid = 1;
    liveCount = 0;
}

namespace
{

/** One capability-map entry. */
template <class P, class C, class F>
void
capFields(P &pid, C &cap, F &f)
{
    f("pid", pid);
    f("base", cap.base);
    f("bounds", cap.bounds);
    f("perms", cap.perms);
}

json::Value
saveCaps(const PagedCapabilityStore &store)
{
    json::Value out = json::Value::array();
    store.forEach([&](Pid pid, const Capability &cap) {
        out.push(json::writeObject(
            [&](json::Writer &w) { capFields(pid, cap, w); }));
    });
    return out;
}

bool
restoreCaps(PagedCapabilityStore &store, const json::Value &v,
            json::Error &err)
{
    store.clear();
    return json::readEach(v, err, [&](const json::Value &item) {
        Pid pid = NoPid;
        Capability cap;
        bool ok = json::readObject(
            item, err, [&](json::Reader &r) { capFields(pid, cap, r); });
        if (ok)
            store.assign(pid, cap);
        return ok;
    });
}

// The interval indices are serialized verbatim rather than rebuilt
// from the perms bits: on base collisions (e.g. a freed block
// re-allocated at the same address) the index keeps the most recent
// PID, which a rebuild from the capability store could not
// reproduce deterministically.
json::Value
saveIndex(const IntervalIndex &index)
{
    std::vector<std::pair<uint64_t, Pid>> pairs;
    index.forEach(
        [&](uint64_t base, Pid pid) { pairs.emplace_back(base, pid); });
    return json::write(pairs);
}

bool
restoreIndex(IntervalIndex &index, const json::Value &v,
             json::Error &err)
{
    index.clear();
    return json::readPairs<uint64_t, Pid>(
        v, err, [&](uint64_t base, Pid pid) { index.assign(base, pid); });
}

/** An initialization shadow in its document form: a word bitmap. */
struct InitRecord
{
    Pid pid = NoPid;
    std::vector<uint64_t> words;

    template <class Self, class F>
    static void
    fields(Self &self, F &f)
    {
        f("pid", self.pid);
        f("words", self.words);
    }
};

} // namespace

template <class Self, class F>
void
CapabilityTable::fields(Self &self, F &f)
{
    f("caps", json::Custom{self.store, saveCaps, restoreCaps});
    f("liveByBase", json::Custom{self.liveByBase, saveIndex, restoreIndex});
    f("freedByBase",
      json::Custom{self.freedByBase, saveIndex, restoreIndex});
    f("initBits", json::Custom{self.initBits, saveInit, restoreInit});
    f("nextPid", self.nextPid);
    f("liveCount", self.liveCount);
}

CHEX_JSON_FIELDS(CapabilityTable);

json::Value
CapabilityTable::saveInit(const InitShadows &shadows)
{
    std::vector<Pid> pids;
    pids.reserve(shadows.size());
    for (const auto &[pid, sh] : shadows)
        pids.push_back(pid);
    std::sort(pids.begin(), pids.end());
    json::Value out = json::Value::array();
    for (Pid pid : pids) {
        const InitShadow &sh = shadows.at(pid);
        // Materialize the word bitmap the old representation held,
        // so the snapshot document stays byte-identical.
        InitRecord rec{pid, std::vector<uint64_t>(sh.words, 0)};
        for (const auto &[lo, hi] : sh.set.items()) {
            uint64_t end = std::min<uint64_t>(hi, sh.words * 64);
            for (uint64_t w = lo; w < end; ++w)
                rec.words[w / 64] |= 1ull << (w % 64);
        }
        out.push(json::write(rec));
    }
    return out;
}

bool
CapabilityTable::restoreInit(InitShadows &shadows, const json::Value &v,
                             json::Error &err)
{
    shadows.clear();
    return json::readEach(v, err, [&](const json::Value &item) {
        InitRecord rec;
        if (!json::Codec<InitRecord>::read(item, rec, err))
            return false;
        auto [at, fresh] = shadows.try_emplace(rec.pid);
        if (!fresh)
            return err.fail("repeats a PID");
        // Recover merged intervals from the serialized bitmap.
        InitShadow &sh = at->second;
        sh.words = rec.words.size();
        uint64_t run_start = 0;
        bool in_run = false;
        for (uint64_t idx = 0; idx < sh.words * 64; ++idx) {
            bool set = rec.words[idx / 64] & (1ull << (idx % 64));
            if (set && !in_run) {
                run_start = idx;
                in_run = true;
            } else if (!set && in_run) {
                sh.set.add(run_start, idx);
                in_run = false;
            }
        }
        if (in_run)
            sh.set.add(run_start, sh.words * 64);
        return true;
    });
}

} // namespace chex
