/**
 * @file
 * Store-equivalence suite for the capability table's rebuilt backing
 * stores (paged capability array, pooled interval indices, interval
 * init shadow). RefCapTable below is a faithful reimplementation of
 * the table as it was before the rebuild — std::map<Pid, Capability>
 * plus two std::map<uint64_t, Pid> indices plus per-PID word
 * bitmaps — and the randomized run drives both through the same
 * hundreds of thousands of operations, asserting identical return
 * values at every step and byte-identical chex-snapshot-v1 documents
 * at checkpoints, including a save/restore of the real table
 * mid-stream. Also pins clear()/restoreState() consistency of
 * nextPid/liveCount across clear-then-reuse, and restores an
 * old-format fixture document.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/random.hh"
#include "cap/cap_table.hh"

namespace chex
{
namespace
{

/**
 * The capability table exactly as the std::map-backed implementation
 * behaved. Kept deliberately dumb and literal — this is the oracle.
 */
class RefCapTable
{
  public:
    Pid
    beginGeneration(uint64_t request_size, Violation *violation)
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
        caps[pid] = cap;
        return pid;
    }

    void
    endGeneration(Pid pid, uint64_t base)
    {
        auto it = caps.find(pid);
        if (it == caps.end())
            return;
        it->second.base = base;
        it->second.perms &= ~CapBusy;
        if (base != 0) {
            it->second.perms |= CapValid;
            liveByBase[base] = pid;
            ++liveCount;
        }
    }

    Violation
    beginFree(Pid pid, uint64_t addr)
    {
        if (pid == NoPid || pid == WildPid)
            return Violation::InvalidFree;
        auto it = caps.find(pid);
        if (it == caps.end())
            return Violation::InvalidFree;
        if (!(it->second.perms & CapHeap))
            return Violation::InvalidFree;
        if (!it->second.valid())
            return Violation::DoubleFree;
        if (addr != it->second.base)
            return Violation::InvalidFree;
        it->second.perms |= CapBusy;
        return Violation::None;
    }

    void
    endFree(Pid pid)
    {
        auto it = caps.find(pid);
        if (it == caps.end())
            return;
        bool was_valid = it->second.valid();
        it->second.perms &= ~(CapValid | CapBusy);
        if (was_valid) {
            liveByBase.erase(it->second.base);
            freedByBase[it->second.base] = pid;
            --liveCount;
        }
    }

    Pid
    addGlobal(uint64_t base, uint64_t size)
    {
        Pid pid = nextPid++;
        Capability cap;
        cap.base = base;
        cap.bounds = static_cast<uint32_t>(size);
        cap.perms = CapValid | CapRead | CapWrite;
        caps[pid] = cap;
        liveByBase[base] = pid;
        ++liveCount;
        return pid;
    }

    Violation
    check(Pid pid, uint64_t addr, uint64_t size, bool is_write) const
    {
        if (pid == NoPid)
            return Violation::None;
        if (pid == WildPid)
            return Violation::WildPointer;
        auto it = caps.find(pid);
        if (it == caps.end())
            return Violation::WildPointer;
        const Capability &cap = it->second;
        if (!cap.valid())
            return Violation::UseAfterFree;
        if (!cap.contains(addr, size))
            return Violation::OutOfBounds;
        if (is_write && !cap.writable())
            return Violation::PermissionDenied;
        if (!is_write && !cap.readable())
            return Violation::PermissionDenied;
        return Violation::None;
    }

    Pid
    pidForAddress(uint64_t addr) const
    {
        if (Pid pid = searchByBase(liveByBase, addr))
            return pid;
        return searchByBase(freedByBase, addr);
    }

    void
    markInitialized(Pid pid, uint64_t addr, uint64_t size)
    {
        if (!trackInit || pid == NoPid || pid == WildPid)
            return;
        auto it = caps.find(pid);
        if (it == caps.end() || !it->second.valid())
            return;
        const Capability &cap = it->second;
        if (addr < cap.base || addr >= cap.base + cap.bounds)
            return;
        uint64_t first_word = (addr - cap.base) / 8;
        uint64_t last_word =
            (addr + std::max<uint64_t>(size, 1) - 1 - cap.base) / 8;
        std::vector<uint64_t> &bits = initBits[pid];
        uint64_t need = (cap.bounds + 63) / 64 + 1;
        if (bits.size() < need)
            bits.resize(need, 0);
        for (uint64_t w = first_word; w <= last_word; ++w)
            bits[w / 64] |= 1ull << (w % 64);
    }

    void
    markAllInitialized(Pid pid)
    {
        if (!trackInit)
            return;
        auto it = caps.find(pid);
        if (it == caps.end())
            return;
        uint64_t need = (it->second.bounds + 63) / 64 + 1;
        initBits[pid].assign(need, ~0ull);
    }

    bool
    isInitialized(Pid pid, uint64_t addr, uint64_t size) const
    {
        auto it = caps.find(pid);
        if (it == caps.end())
            return true;
        auto bit = initBits.find(pid);
        if (bit == initBits.end())
            return false;
        const std::vector<uint64_t> &bits = bit->second;
        const Capability &cap = it->second;
        uint64_t first_word = (addr - cap.base) / 8;
        uint64_t last_word =
            (addr + std::max<uint64_t>(size, 1) - 1 - cap.base) / 8;
        if (first_word > last_word || last_word >= bits.size() * 64)
            return false;
        for (uint64_t w = first_word; w <= last_word; ++w)
            if (!(bits[w / 64] & (1ull << (w % 64))))
                return false;
        return true;
    }

    uint64_t totalCapabilities() const { return caps.size(); }
    uint64_t liveCapabilities() const { return liveCount; }

    json::Value
    saveState() const
    {
        json::Value jcaps = json::Value::array();
        for (const auto &[pid, cap] : caps) {
            jcaps.push(json::Value::object()
                           .set("pid", pid)
                           .set("base", cap.base)
                           .set("bounds", cap.bounds)
                           .set("perms", cap.perms));
        }
        auto index_json = [](const std::map<uint64_t, Pid> &index) {
            json::Value out = json::Value::array();
            for (const auto &[base, pid] : index) {
                json::Value pair = json::Value::array();
                pair.push(base);
                pair.push(pid);
                out.push(std::move(pair));
            }
            return out;
        };
        json::Value jinit = json::Value::array();
        for (const auto &[pid, bits] : initBits) {
            json::Value jwords = json::Value::array();
            for (uint64_t w : bits)
                jwords.push(w);
            jinit.push(json::Value::object()
                           .set("pid", pid)
                           .set("words", std::move(jwords)));
        }
        return json::Value::object()
            .set("caps", std::move(jcaps))
            .set("liveByBase", index_json(liveByBase))
            .set("freedByBase", index_json(freedByBase))
            .set("initBits", std::move(jinit))
            .set("nextPid", nextPid)
            .set("liveCount", liveCount);
    }

    bool trackInit = false;

  private:
    Pid
    searchByBase(const std::map<uint64_t, Pid> &index,
                 uint64_t addr) const
    {
        auto it = index.upper_bound(addr);
        if (it == index.begin())
            return NoPid;
        --it;
        auto cit = caps.find(it->second);
        if (cit == caps.end())
            return NoPid;
        const Capability &cap = cit->second;
        if (addr >= cap.base && addr < cap.base + cap.bounds)
            return it->second;
        return NoPid;
    }

    std::map<Pid, Capability> caps;
    std::map<uint64_t, Pid> liveByBase;
    std::map<uint64_t, Pid> freedByBase;
    std::map<Pid, std::vector<uint64_t>> initBits;
    Pid nextPid = 1;
    uint64_t liveCount = 0;
    uint64_t maxAllocSize = 1ull << 30;
};

struct Block
{
    Pid pid;
    uint64_t base;
    uint64_t size;
};

/**
 * Drive the real table and the oracle through the same randomized op
 * stream; every return value must match and the snapshot documents
 * must be byte-identical at checkpoints. At the midpoint the real
 * table is torn down and rebuilt from its own snapshot (through a
 * dump/parse round trip), then the stream continues — a restored
 * table must be indistinguishable from one that lived the history.
 */
TEST(CapStoreEquivalence, RandomizedVsMapReference)
{
    constexpr int Ops = 250000;
    constexpr int SnapshotEvery = 32768;
    constexpr int RestoreAt = Ops / 2;

    Random rng(0x5EED);
    CapabilityTable real;
    RefCapTable ref;
    real.setTrackInitialization(true);
    ref.trackInit = true;

    std::vector<Block> live;
    std::vector<Block> freed;
    uint64_t bump = 0x1000;

    auto some_block = [&](const std::vector<Block> &v) -> Block {
        return v[rng.uniform(0, v.size() - 1)];
    };
    auto probe_addr = [&](const Block &b) -> uint64_t {
        // On-base, interior, one-past-end, or just-below probes.
        switch (rng.uniform(0, 3)) {
          case 0: return b.base;
          case 1: return b.base + rng.uniform(0, b.size);
          case 2: return b.base + b.size;
          default: return b.base ? b.base - 1 : 0;
        }
    };

    for (int op = 0; op < Ops; ++op) {
        switch (rng.uniform(0, 12)) {
          case 0: case 1: case 2: { // allocate
            uint64_t size = rng.skewedSize(1, 4096);
            uint64_t base;
            if (!freed.empty() && rng.chance(0.3)) {
                base = some_block(freed).base; // same-base collision
            } else {
                base = bump;
                bump += (size + 15) & ~uint64_t(15);
            }
            if (rng.chance(0.02))
                base = 0; // failed allocation
            Violation vr, vf;
            Pid pr = real.beginGeneration(size, &vr);
            Pid pf = ref.beginGeneration(size, &vf);
            ASSERT_EQ(pr, pf) << "op " << op;
            ASSERT_EQ(vr, vf);
            real.endGeneration(pr, base);
            ref.endGeneration(pf, base);
            if (base != 0)
                live.push_back({pr, base, size});
            break;
          }
          case 3: case 4: { // free (mostly valid, sometimes not)
            if (live.empty())
                break;
            size_t idx = rng.uniform(0, live.size() - 1);
            Block b = live[idx];
            uint64_t addr = b.base;
            if (rng.chance(0.05))
                addr += 1 + rng.uniform(0, 7); // interior pointer
            Violation vr = real.beginFree(b.pid, addr);
            Violation vf = ref.beginFree(b.pid, addr);
            ASSERT_EQ(vr, vf) << "op " << op;
            if (vr == Violation::None) {
                real.endFree(b.pid);
                ref.endFree(b.pid);
                live[idx] = live.back();
                live.pop_back();
                freed.push_back(b);
                if (freed.size() > 512) {
                    freed[rng.uniform(0, freed.size() - 1)] =
                        freed.back();
                    freed.pop_back();
                }
            }
            break;
          }
          case 5: { // bogus frees: double, unknown, wild
            Pid pid = NoPid;
            uint64_t addr = 0;
            switch (rng.uniform(0, 2)) {
              case 0:
                if (freed.empty())
                    break;
                pid = some_block(freed).pid; // double free
                addr = some_block(freed).base;
                break;
              case 1:
                pid = static_cast<Pid>(rng.uniform(1, 1 << 20));
                break;
              default:
                pid = rng.chance(0.5) ? WildPid : NoPid;
                break;
            }
            ASSERT_EQ(real.beginFree(pid, addr),
                      ref.beginFree(pid, addr))
                << "op " << op;
            break;
          }
          case 6: case 7: { // check
            Pid pid;
            uint64_t addr, size = 1ull << rng.uniform(0, 4);
            if (!live.empty() && rng.chance(0.7)) {
                Block b = some_block(live);
                pid = b.pid;
                addr = probe_addr(b);
            } else if (!freed.empty() && rng.chance(0.5)) {
                Block b = some_block(freed);
                pid = b.pid;
                addr = b.base;
            } else {
                pid = static_cast<Pid>(rng.uniform(0, 1 << 20));
                addr = rng.uniform(0, bump);
            }
            bool is_write = rng.chance(0.5);
            ASSERT_EQ(real.check(pid, addr, size, is_write).violation,
                      ref.check(pid, addr, size, is_write))
                << "op " << op;
            break;
          }
          case 8: { // exhaustive search
            uint64_t addr;
            if (!live.empty() && rng.chance(0.45))
                addr = probe_addr(some_block(live));
            else if (!freed.empty() && rng.chance(0.5))
                addr = probe_addr(some_block(freed));
            else
                addr = rng.uniform(0, bump + 64);
            ASSERT_EQ(real.pidForAddress(addr),
                      ref.pidForAddress(addr))
                << "op " << op << " addr " << addr;
            break;
          }
          case 9: { // init-shadow writes
            if (live.empty())
                break;
            Block b = some_block(live);
            if (rng.chance(0.15)) {
                real.markAllInitialized(b.pid);
                ref.markAllInitialized(b.pid);
            } else {
                uint64_t addr = b.base + rng.uniform(0, b.size);
                uint64_t size = 1ull << rng.uniform(0, 4);
                real.markInitialized(b.pid, addr, size);
                ref.markInitialized(b.pid, addr, size);
            }
            break;
          }
          case 10: case 11: { // init-shadow reads
            if (live.empty())
                break;
            Block b = some_block(live);
            uint64_t addr = probe_addr(b);
            uint64_t size = 1ull << rng.uniform(0, 4);
            ASSERT_EQ(real.isInitialized(b.pid, addr, size),
                      ref.isInitialized(b.pid, addr, size))
                << "op " << op;
            break;
          }
          default: { // occasional global registration
            if (rng.chance(0.05)) {
                uint64_t size = rng.uniform(8, 4096);
                uint64_t base = bump;
                bump += (size + 15) & ~uint64_t(15);
                Pid pr = real.addGlobal("g", base, size);
                Pid pf = ref.addGlobal(base, size);
                ASSERT_EQ(pr, pf);
                live.push_back({pr, base, size});
            }
            break;
          }
        }

        ASSERT_EQ(real.totalCapabilities(), ref.totalCapabilities());
        ASSERT_EQ(real.liveCapabilities(), ref.liveCapabilities());

        if ((op % SnapshotEvery) == 0 || op + 1 == Ops) {
            ASSERT_EQ(real.saveState().dump(2),
                      ref.saveState().dump(2))
                << "snapshot diverged at op " << op;
        }

        if (op == RestoreAt) {
            // Round-trip the real table through its own serialized
            // document mid-stream and keep going.
            std::string blob = real.saveState().dump(2);
            json::Value parsed;
            std::string err;
            ASSERT_TRUE(json::Value::parse(blob, parsed, &err)) << err;
            real.clear();
            ASSERT_TRUE(real.restoreState(parsed));
            ASSERT_EQ(real.saveState().dump(2), blob);
        }
    }
}

/**
 * An old-format fixture — written against the std::map-backed
 * serialization by hand — must restore into the rebuilt table and
 * answer exactly as the old implementation did, including continuing
 * the PID sequence. Guards the chex-snapshot-v1 compatibility
 * promise from the store side.
 */
TEST(CapStoreEquivalence, RestoresOldFormatFixture)
{
    // pid 1: live [0x1000, 0x1040); pid 2: freed [0x2000, 0x2020);
    // pid 1 has its first 8 words marked initialized.
    const char *fixture = R"({
      "caps": [
        {"pid": 1, "base": 4096, "bounds": 64, "perms": 51},
        {"pid": 2, "base": 8192, "bounds": 32, "perms": 35}
      ],
      "liveByBase": [[4096, 1]],
      "freedByBase": [[8192, 2]],
      "initBits": [{"pid": 1, "words": [255, 0]}],
      "nextPid": 3,
      "liveCount": 1
    })";

    json::Value parsed;
    std::string err;
    ASSERT_TRUE(json::Value::parse(fixture, parsed, &err)) << err;

    CapabilityTable t;
    t.setTrackInitialization(true);
    ASSERT_TRUE(t.restoreState(parsed));

    EXPECT_EQ(t.totalCapabilities(), 2u);
    EXPECT_EQ(t.liveCapabilities(), 1u);
    EXPECT_TRUE(t.check(1, 4096, 8, true).ok());
    EXPECT_EQ(t.check(2, 8192, 8, false).violation,
              Violation::UseAfterFree);
    EXPECT_EQ(t.pidForAddress(4096 + 10), 1u);
    EXPECT_EQ(t.pidForAddress(8192 + 10), 2u);
    EXPECT_EQ(t.pidForAddress(4096 + 64), NoPid);
    // Words 0..7 initialized, word 8 not.
    EXPECT_TRUE(t.isInitialized(1, 4096, 64));
    EXPECT_FALSE(t.isInitialized(1, 4096 + 64, 8));

    // The PID sequence continues from the restored nextPid.
    Violation v;
    EXPECT_EQ(t.beginGeneration(16, &v), 3u);

    // And the re-serialized document is identical modulo the new
    // capability just created.
    t.endGeneration(3, 0); // failed alloc: caps entry, no index entry
    json::Value out = t.saveState();
    uint64_t next_pid = 0, live = 0;
    ASSERT_TRUE(json::require(out, "nextPid", next_pid));
    ASSERT_TRUE(json::require(out, "liveCount", live));
    EXPECT_EQ(next_pid, 4u);
    EXPECT_EQ(live, 1u);
}

/** Satellite: clear-then-reuse must fully reset the PID allocator
 * and live count, and a snapshot taken after reuse must restore. */
TEST(CapStoreEquivalence, ClearThenReuseResetsAllocatorState)
{
    CapabilityTable t;
    Violation v;
    for (int i = 0; i < 100; ++i) {
        Pid pid = t.beginGeneration(64, &v);
        t.endGeneration(pid, 0x1000 + i * 0x100);
    }
    EXPECT_EQ(t.totalCapabilities(), 100u);
    EXPECT_EQ(t.liveCapabilities(), 100u);

    t.clear();
    EXPECT_EQ(t.totalCapabilities(), 0u);
    EXPECT_EQ(t.liveCapabilities(), 0u);
    EXPECT_EQ(t.pidForAddress(0x1000), NoPid);
    EXPECT_EQ(t.storageBytes(), 0u);

    // PID numbering restarts at 1 and the table is fully usable.
    Pid pid = t.beginGeneration(32, &v);
    EXPECT_EQ(pid, 1u);
    t.endGeneration(pid, 0x5000);
    EXPECT_EQ(t.liveCapabilities(), 1u);
    EXPECT_EQ(t.pidForAddress(0x5000), 1u);

    // Snapshot after clear-then-reuse round-trips with the same
    // nextPid/liveCount.
    json::Value snap = t.saveState();
    CapabilityTable u;
    ASSERT_TRUE(u.restoreState(snap));
    EXPECT_EQ(u.saveState().dump(2), snap.dump(2));
    EXPECT_EQ(u.beginGeneration(8, &v), 2u);
    EXPECT_EQ(u.liveCapabilities(), 1u);

    // restoreState clears pre-existing contents before loading.
    CapabilityTable w;
    for (int i = 0; i < 50; ++i) {
        Pid p = w.beginGeneration(16, &v);
        w.endGeneration(p, 0x9000 + i * 0x40);
    }
    ASSERT_TRUE(w.restoreState(snap));
    EXPECT_EQ(w.totalCapabilities(), 1u);
    EXPECT_EQ(w.liveCapabilities(), 1u);
    EXPECT_EQ(w.pidForAddress(0x9000), NoPid);
}

} // anonymous namespace
} // namespace chex
