/**
 * @file
 * Memory-substrate tests: sparse memory, the generic set-associative
 * cache + victim cache, the 5-level shadow alias table and its
 * walker, the page-granular alias-hosting filter, and the cache
 * hierarchy's latency/traffic model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/alias_table.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/sparse_memory.hh"

namespace chex
{
namespace
{

TEST(SparseMemory, ReadWriteRoundTrip)
{
    SparseMemory m;
    m.write(0x1000, 0xdeadbeefcafebabe, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0xdeadbeefcafebabeull);
    EXPECT_EQ(m.read(0x1000, 4), 0xcafebabeull);
    EXPECT_EQ(m.read(0x1000, 1), 0xbeull);
}

TEST(SparseMemory, UnmappedReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.read(0x99999000, 8), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    uint64_t addr = 4096 - 4; // straddles a page boundary
    m.write(addr, 0x1122334455667788, 8);
    EXPECT_EQ(m.read(addr, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(SparseMemory, BlockOpsAndFill)
{
    SparseMemory m;
    uint8_t out[16] = {};
    m.fill(0x2000, 0xAB, 16);
    m.readBlock(0x2000, out, 16);
    for (uint8_t b : out)
        EXPECT_EQ(b, 0xAB);
    const char msg[] = "hello";
    m.writeBlock(0x3000, msg, sizeof(msg));
    char back[sizeof(msg)];
    m.readBlock(0x3000, back, sizeof(msg));
    EXPECT_STREQ(back, "hello");
}

TEST(SparseMemory, ResidentBytesTrackTouchedPages)
{
    SparseMemory m;
    m.write(0, 1, 1);
    m.write(4096 * 10, 1, 1);
    EXPECT_EQ(m.residentBytes(), 2u * 4096);
}

TEST(SparseMemory, ReadsNeverAllocatePages)
{
    // residentPages() counts pages allocated by writes/fills only:
    // reads of unmapped memory return zero without allocating, so a
    // read-heavy program cannot inflate the reported resident set
    // (Figure 9 depends on this).
    SparseMemory m;
    m.write(0x1000, 0xff, 1);
    ASSERT_EQ(m.residentPages(), 1u);

    EXPECT_EQ(m.read(0x200000, 8), 0u);
    uint8_t buf[64] = {};
    m.readBlock(0x300ff0, buf, sizeof(buf)); // crosses a page boundary
    EXPECT_EQ(m.residentPages(), 1u);

    // Repeated reads of the page that IS resident don't add pages
    // either (guards the last-page translation cache).
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(m.read(0x1000, 1), 0xffu);
    EXPECT_EQ(m.residentPages(), 1u);

    m.fill(0x400000, 0, 1);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(SparseMemory, PageBoundaryBlockOps)
{
    SparseMemory m;
    constexpr uint64_t PageBytes = SparseMemory::PageBytes;

    // writeBlock spanning four pages: the tail of page 0, all of
    // pages 1 and 2, and the head of page 3.
    std::vector<uint8_t> data(PageBytes * 2 + 128);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i * 7 + 1);
    uint64_t start = PageBytes - 64;
    m.writeBlock(start, data.data(), data.size());
    EXPECT_EQ(m.residentPages(), 4u);

    std::vector<uint8_t> back(data.size());
    m.readBlock(start, back.data(), back.size());
    EXPECT_EQ(back, data);

    // fill spanning a boundary, then read straddling it.
    m.fill(2 * PageBytes - 8, 0x5A, 16);
    uint8_t straddle[16];
    m.readBlock(2 * PageBytes - 8, straddle, sizeof(straddle));
    for (uint8_t b : straddle)
        EXPECT_EQ(b, 0x5A);

    // A cross-page read where only the first page is resident
    // zero-fills the unmapped tail.
    SparseMemory m2;
    m2.fill(PageBytes - 4, 0x11, 4); // last 4 bytes of page 0 only
    uint8_t mix[8];
    m2.readBlock(PageBytes - 4, mix, sizeof(mix));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(mix[i], 0x11);
    for (int i = 4; i < 8; ++i)
        EXPECT_EQ(mix[i], 0);
    EXPECT_EQ(m2.residentPages(), 1u);
}

TEST(SparseMemory, ClearAndRestoreInvalidateTranslationCache)
{
    SparseMemory m;
    m.write(0x5000, 0xabcd, 8);
    ASSERT_EQ(m.read(0x5000, 8), 0xabcdu); // primes the memo

    m.clear();
    EXPECT_EQ(m.read(0x5000, 8), 0u);
    EXPECT_EQ(m.residentPages(), 0u);

    m.write(0x5000, 0x1111, 8);
    ASSERT_EQ(m.read(0x5000, 8), 0x1111u); // primes the memo again
    SparseMemory other;
    other.write(0x5000, 0x2222, 8);
    ASSERT_TRUE(json::read(json::write(other), m));
    EXPECT_EQ(m.read(0x5000, 8), 0x2222u);
}

TEST(Cache, HitAfterInsert)
{
    SetAssocCache c("c", 4, 2);
    EXPECT_FALSE(c.access(0x10));
    c.insert(0x10);
    EXPECT_TRUE(c.access(0x10));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    SetAssocCache c("c", 1, 2); // fully associative, 2 entries
    c.insert(1);
    c.insert(2);
    c.access(1);       // 2 becomes LRU
    auto ev = c.insert(3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*ev, 2u);
    EXPECT_TRUE(c.probe(1));
    EXPECT_FALSE(c.probe(2));
}

TEST(Cache, InvalidateRemoves)
{
    SetAssocCache c("c", 2, 2);
    c.insert(5);
    EXPECT_TRUE(c.invalidate(5));
    EXPECT_FALSE(c.probe(5));
    EXPECT_FALSE(c.invalidate(5));
}

TEST(Cache, OccupancyAndClear)
{
    SetAssocCache c("c", 4, 4);
    for (uint64_t k = 0; k < 10; ++k)
        c.insert(k);
    EXPECT_GT(c.occupancy(), 0u);
    EXPECT_LE(c.occupancy(), 16u);
    c.clear();
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(VictimCache, EvictionFallsIntoVictim)
{
    VictimAugmentedCache c("vc", 1, 1, 4);
    c.insert(1);
    c.insert(2); // 1 spills to victim
    EXPECT_TRUE(c.access(1)); // victim hit, promoted back
    EXPECT_EQ(c.victimHits(), 1u);
    // 2 must have swapped into the victim.
    EXPECT_TRUE(c.access(2));
}

TEST(VictimCache, MissRate)
{
    VictimAugmentedCache c("vc", 2, 2, 2);
    for (uint64_t k = 0; k < 100; ++k) {
        c.access(k % 3);
        c.insert(k % 3);
    }
    EXPECT_LT(c.missRate(), 0.1);
}

TEST(AliasTable, SetGetClear)
{
    AliasTable t;
    t.set(0x7000, 42);
    EXPECT_EQ(t.get(0x7000), 42u);
    EXPECT_EQ(t.get(0x7008), 0u);
    // Word-aligned storage: unaligned lookups resolve to the word.
    EXPECT_EQ(t.get(0x7003), 42u);
    t.set(0x7000, 0);
    EXPECT_EQ(t.get(0x7000), 0u);
    EXPECT_EQ(t.liveEntries(), 0u);
}

TEST(AliasTable, WalkTouchesFiveLevels)
{
    AliasTable t;
    t.set(0x12345678, 9);
    AliasWalkResult r = t.walk(0x12345678);
    EXPECT_EQ(r.pid, 9u);
    EXPECT_EQ(r.levelsTouched, AliasTable::Levels);
    // A walk into an unpopulated region terminates early.
    AliasWalkResult miss = t.walk(0xffff00000000);
    EXPECT_EQ(miss.pid, 0u);
    EXPECT_LT(miss.levelsTouched, AliasTable::Levels);
}

TEST(AliasTable, PageHostingFilter)
{
    AliasTable t;
    EXPECT_FALSE(t.pageHostsAliases(0x5000));
    t.set(0x5010, 7);
    EXPECT_TRUE(t.pageHostsAliases(0x5000));
    EXPECT_TRUE(t.pageHostsAliases(0x5ff8));
    EXPECT_FALSE(t.pageHostsAliases(0x6000));
    t.set(0x5010, 0);
    EXPECT_FALSE(t.pageHostsAliases(0x5000));
}

TEST(AliasTable, PageBitTracksLiveCountPrecisely)
{
    // Pins the reconciled Section V-C semantics: the page-granular
    // alias-hosting bit is *precise*, reflecting whether the page
    // currently hosts at least one alias — it is NOT sticky across
    // the erasure of the last alias. A page whose aliases have all
    // been overwritten filters lookups again, exactly as before the
    // first spill.
    AliasTable t;
    uint64_t page = 0x9000;
    t.set(page + 0x10, 1);
    t.set(page + 0x20, 2);
    t.set(page + 0x30, 3);
    EXPECT_TRUE(t.pageHostsAliases(page));

    // Erasing some but not all aliases keeps the bit set.
    t.set(page + 0x10, 0);
    t.set(page + 0x20, 0);
    EXPECT_TRUE(t.pageHostsAliases(page));

    // Erasing the last alias clears it.
    t.set(page + 0x30, 0);
    EXPECT_FALSE(t.pageHostsAliases(page));

    // And re-spilling sets it again — the count survives the
    // tombstone left by the erase.
    t.set(page + 0x40, 9);
    EXPECT_TRUE(t.pageHostsAliases(page));

    // Overwriting an alias with a different PID is count-neutral.
    t.set(page + 0x40, 5);
    EXPECT_TRUE(t.pageHostsAliases(page));
    t.set(page + 0x40, 0);
    EXPECT_FALSE(t.pageHostsAliases(page));
}

TEST(AliasTable, PageBitScalesAcrossManyPages)
{
    // Exercises the flat page-count table through growth/rehash:
    // enough distinct pages to force several table resizes, then
    // erase half and verify precision is retained for every page.
    AliasTable t;
    constexpr uint64_t N = 1000;
    for (uint64_t i = 0; i < N; ++i)
        t.set(i * 4096 + 8, static_cast<uint32_t>(i + 1));
    for (uint64_t i = 0; i < N; ++i)
        EXPECT_TRUE(t.pageHostsAliases(i * 4096));
    for (uint64_t i = 0; i < N; i += 2)
        t.set(i * 4096 + 8, 0);
    for (uint64_t i = 0; i < N; ++i)
        EXPECT_EQ(t.pageHostsAliases(i * 4096), i % 2 == 1);
    EXPECT_EQ(t.liveEntries(), N / 2);
}

TEST(AliasTable, MemoizedLookupsStayCoherent)
{
    // get()/walk() share a one-entry memo; any set() must invalidate
    // it, including interior-node allocation that deepens walks for
    // *other* words on a shared path.
    AliasTable t;
    t.set(0x7000, 4);
    EXPECT_EQ(t.get(0x7000), 4u);
    EXPECT_EQ(t.get(0x7000), 4u); // memo hit
    t.set(0x7000, 8);
    EXPECT_EQ(t.get(0x7000), 8u); // must see the update
    t.set(0x7000, 0);
    EXPECT_EQ(t.get(0x7000), 0u);

    // A walk that terminates early, then an allocation on the same
    // subtree path: the re-walk must go deeper.
    AliasWalkResult before = t.walk(0x8008);
    EXPECT_EQ(before.pid, 0u);
    t.set(0x8000, 3); // same leaf node as 0x8008
    AliasWalkResult after = t.walk(0x8008);
    EXPECT_EQ(after.pid, 0u);
    EXPECT_EQ(after.levelsTouched, AliasTable::Levels);
    EXPECT_GE(after.levelsTouched, before.levelsTouched);
}

TEST(AliasTable, StorageGrowsWithSpread)
{
    AliasTable t;
    uint64_t base_storage = t.storageBytes();
    // Entries spread across distant regions need distinct subtrees.
    t.set(0x10000000, 1);
    t.set(0x20000000, 2);
    t.set(0x7fff0000, 3);
    EXPECT_GT(t.storageBytes(), base_storage);
    EXPECT_EQ(t.liveEntries(), 3u);
    t.clear();
    EXPECT_EQ(t.liveEntries(), 0u);
    EXPECT_EQ(t.get(0x10000000), 0u);
}

TEST(AliasTable, DenseRegionSharesNodes)
{
    AliasTable t;
    t.set(0x8000, 1);
    uint64_t one = t.storageBytes();
    for (uint64_t a = 0x8000; a < 0x8100; a += 8)
        t.set(a, 2);
    // Same leaf node: no new allocations.
    EXPECT_EQ(t.storageBytes(), one);
}

TEST(Hierarchy, L1HitIsCheap)
{
    MemoryHierarchy h;
    unsigned first = h.dataAccess(0x1000, false);
    unsigned second = h.dataAccess(0x1000, false);
    EXPECT_GT(first, second);
    EXPECT_EQ(second, h.config().l1Latency);
}

TEST(Hierarchy, MissTraffic)
{
    MemoryHierarchy h;
    h.dataAccess(0x1000, false);
    EXPECT_EQ(h.traffic().bytesRead, h.config().lineBytes);
    h.dataAccess(0x1000, false); // hit: no extra traffic
    EXPECT_EQ(h.traffic().bytesRead, h.config().lineBytes);
    h.dataAccess(0x200000, true); // write miss
    EXPECT_EQ(h.traffic().bytesWritten, h.config().lineBytes);
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    MemoryHierarchy h;
    // Fill L1 far past capacity within one L2 working set.
    for (uint64_t i = 0; i < 4096; ++i)
        h.dataAccess(i * 64, false);
    // Re-access: should be L2 hits (latency below DRAM).
    unsigned lat = h.dataAccess(0, false);
    EXPECT_LE(lat, h.config().l1Latency + h.config().l2Latency);
}

TEST(Hierarchy, SeparateInstructionPath)
{
    MemoryHierarchy h;
    unsigned first = h.fetchAccess(0x400000);
    unsigned second = h.fetchAccess(0x400000);
    EXPECT_GT(first, second);
}

TEST(Hierarchy, ShadowAccessBypassesL1)
{
    MemoryHierarchy h;
    unsigned first = h.shadowAccess(0xffff800000000000ull);
    unsigned second = h.shadowAccess(0xffff800000000000ull);
    EXPECT_GT(first, second);
    EXPECT_EQ(second, h.config().l2Latency);
}

} // namespace
} // namespace chex
