#include "sparse_memory.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace chex
{

SparseMemory::Page *
SparseMemory::findPage(uint64_t addr) const
{
    uint64_t num = addr / PageBytes;
    if (num == lastPageNum)
        return lastPage;
    auto it = pages.find(num);
    if (it == pages.end())
        return nullptr;
    lastPageNum = num;
    lastPage = it->second.get();
    return lastPage;
}

SparseMemory::Page &
SparseMemory::touchPage(uint64_t addr)
{
    uint64_t num = addr / PageBytes;
    if (num == lastPageNum)
        return *lastPage;
    auto &slot = pages[num];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    lastPageNum = num;
    lastPage = slot.get();
    return *slot;
}

uint64_t
SparseMemory::read(uint64_t addr, unsigned size) const
{
    chex_assert(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size");
    uint64_t value = 0;
    readBlock(addr, &value, size);
    return value;
}

void
SparseMemory::write(uint64_t addr, uint64_t value, unsigned size)
{
    chex_assert(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size");
    writeBlock(addr, &value, size);
}

void
SparseMemory::readBlock(uint64_t addr, void *buf, uint64_t len) const
{
    auto *out = static_cast<uint8_t *>(buf);
    // Fast path: nearly every access is a 1-8 byte read that stays
    // within one page.
    uint64_t off = addr % PageBytes;
    if (off + len <= PageBytes) {
        if (const Page *page = findPage(addr))
            std::memcpy(out, page->data() + off, len);
        else
            std::memset(out, 0, len);
        return;
    }
    while (len > 0) {
        off = addr % PageBytes;
        uint64_t chunk = std::min(len, PageBytes - off);
        if (const Page *page = findPage(addr))
            std::memcpy(out, page->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
SparseMemory::writeBlock(uint64_t addr, const void *buf, uint64_t len)
{
    auto *in = static_cast<const uint8_t *>(buf);
    uint64_t off = addr % PageBytes;
    if (off + len <= PageBytes) {
        std::memcpy(touchPage(addr).data() + off, in, len);
        return;
    }
    while (len > 0) {
        off = addr % PageBytes;
        uint64_t chunk = std::min(len, PageBytes - off);
        Page &page = touchPage(addr);
        std::memcpy(page.data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

namespace json
{

namespace
{

/** One resident page: its number and its bytes. */
template <class Num, class Page, class F>
void
pageFields(Num &num, Page &page, F &f)
{
    f("page", num);
    f("data", Base64{page});
}

} // namespace

Value
Codec<SparseMemory>::write(const SparseMemory &mem)
{
    std::vector<uint64_t> nums;
    nums.reserve(mem.pages.size());
    for (const auto &[num, page] : mem.pages)
        nums.push_back(num);
    std::sort(nums.begin(), nums.end());

    Value out = Value::array();
    for (uint64_t num : nums) {
        out.push(writeObject([&](Writer &w) {
            pageFields(num, *mem.pages.at(num), w);
        }));
    }
    return out;
}

bool
Codec<SparseMemory>::read(const Value &v, SparseMemory &mem, Error &err)
{
    mem.clear();
    return readEach(v, err, [&](const Value &item) {
        uint64_t num = 0;
        auto page = std::make_unique<SparseMemory::Page>();
        bool ok = readObject(item, err, [&](Reader &r) {
            pageFields(num, *page, r);
            r.check(!mem.pages.count(num), "repeats a page");
        });
        if (ok)
            mem.pages.emplace(num, std::move(page));
        return ok;
    });
}

} // namespace json


void
SparseMemory::fill(uint64_t addr, uint8_t byte, uint64_t len)
{
    while (len > 0) {
        uint64_t off = addr % PageBytes;
        uint64_t chunk = std::min(len, PageBytes - off);
        Page &page = touchPage(addr);
        std::memset(page.data() + off, byte, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace chex
