/**
 * @file
 * Sparse 64-bit simulated physical/virtual memory backed by 4 KiB
 * pages allocated on first touch. Tracks the resident page count so
 * the harness can report resident-set-size growth (Figure 9 top).
 */

#ifndef CHEX_MEM_SPARSE_MEMORY_HH
#define CHEX_MEM_SPARSE_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "base/json.hh"

namespace chex
{

/** Byte-addressable sparse memory. Unmapped reads return zero. */
class SparseMemory
{
  public:
    static constexpr uint64_t PageBytes = 4096;

    /** Read @p size bytes (1/2/4/8) little-endian from @p addr. */
    uint64_t read(uint64_t addr, unsigned size) const;

    /** Write the low @p size bytes of @p value at @p addr. */
    void write(uint64_t addr, uint64_t value, unsigned size);

    /** Bulk copy out of simulated memory. */
    void readBlock(uint64_t addr, void *buf, uint64_t len) const;

    /** Bulk copy into simulated memory. */
    void writeBlock(uint64_t addr, const void *buf, uint64_t len);

    /** Fill [addr, addr+len) with @p byte. */
    void fill(uint64_t addr, uint8_t byte, uint64_t len);

    /**
     * Number of distinct pages allocated by writes/fills. Reads of
     * unmapped addresses return zero without allocating, so reads
     * never grow the resident set.
     */
    uint64_t residentPages() const { return pages.size(); }

    /** Resident bytes (pages * 4 KiB). */
    uint64_t residentBytes() const { return pages.size() * PageBytes; }

    /** Drop all contents. */
    void
    clear()
    {
        pages.clear();
        lastPageNum = NoPage;
        lastPage = nullptr;
    }

  private:
    /** Snapshots (chex-snapshot-v1, json::write/read) hold every
     * resident page, sorted by page number, contents as base64. */
    friend struct json::Codec<SparseMemory>;

    using Page = std::array<uint8_t, PageBytes>;

    Page *findPage(uint64_t addr) const;
    Page &touchPage(uint64_t addr);

    std::unordered_map<uint64_t, std::unique_ptr<Page>> pages;

    // One-entry translation cache over the page map. Nearly every
    // access in the fetch->retire loop lands on the same page as its
    // predecessor (sequential code, stack traffic), so this memo
    // turns the common-case hash lookup into a compare. Positive
    // entries only — Page objects are heap-allocated, so the pointer
    // stays valid across map rehashes; entries are only dropped by
    // clear() and snapshot restores, which reset the memo.
    static constexpr uint64_t NoPage = ~0ull;
    mutable uint64_t lastPageNum = NoPage;
    mutable Page *lastPage = nullptr;
};

namespace json
{

template <>
struct Codec<SparseMemory>
{
    static Value write(const SparseMemory &mem);
    static bool read(const Value &v, SparseMemory &mem, Error &err);
};

} // namespace json
} // namespace chex

#endif // CHEX_MEM_SPARSE_MEMORY_HH
