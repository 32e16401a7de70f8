#include "alias_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace chex
{

AliasTable::AliasTable()
{
    root = allocNode();
}

AliasTable::~AliasTable()
{
    freeSubtree(root, 0);
    for (Node *node : pool)
        delete node;
}

AliasTable::Node *
AliasTable::allocNode()
{
    ++_nodeCount;
    if (!pool.empty()) {
        Node *node = pool.back();
        pool.pop_back();
        node->slots.fill(0);
        node->liveSlots = 0;
        return node;
    }
    return new Node();
}

void
AliasTable::releaseNode(Node *node)
{
    --_nodeCount;
    pool.push_back(node);
}

void
AliasTable::freeSubtree(Node *node, unsigned level)
{
    if (level + 1 < Levels) {
        for (uint64_t slot : node->slots)
            if (slot)
                freeSubtree(reinterpret_cast<Node *>(slot), level + 1);
    }
    releaseNode(node);
}

unsigned
AliasTable::levelIndex(uint64_t addr, unsigned level)
{
    // Word index = VA[47:3]; level 0 uses the top 9 bits of it.
    uint64_t word = (addr >> 3) & ((1ull << 45) - 1);
    unsigned shift = BitsPerLevel * (Levels - 1 - level);
    return static_cast<unsigned>((word >> shift) & (Fanout - 1));
}

void
AliasTable::set(uint64_t addr, uint32_t pid)
{
    addr &= ~7ull;
    // Any mutation can change a memoized walk result — including
    // interior-node allocation or reclamation, which changes walk
    // depth for *other* words sharing the path — so drop the memo up
    // front.
    lastLookupWord = ~0ull;
    Node *path[Levels];
    unsigned indices[Levels];
    Node *node = root;
    for (unsigned level = 0; level + 1 < Levels; ++level) {
        path[level] = node;
        indices[level] = levelIndex(addr, level);
        uint64_t &slot = node->slots[indices[level]];
        if (!slot) {
            if (pid == 0)
                return; // nothing to erase
            slot = reinterpret_cast<uint64_t>(allocNode());
            ++node->liveSlots;
        }
        node = reinterpret_cast<Node *>(slot);
    }
    path[Levels - 1] = node;
    indices[Levels - 1] = levelIndex(addr, Levels - 1);
    uint64_t &leaf = node->slots[indices[Levels - 1]];
    uint64_t page = addr / 4096;
    auto was = static_cast<uint32_t>(leaf);
    if (was == pid)
        return;
    if (was == 0 && pid != 0) {
        ++_liveEntries;
        ++node->liveSlots;
        aliasPages.increment(page);
    } else if (was != 0 && pid == 0) {
        --_liveEntries;
        --node->liveSlots;
        aliasPages.decrement(page);
    }
    leaf = pid;
    if (pid != 0)
        return;
    // Reclaim the emptied tail of the path: a leaf whose last entry
    // was erased goes back to the pool, and the cascade walks up
    // through interior nodes emptied by that release. The root is
    // never released.
    for (unsigned level = Levels - 1;
         level > 0 && path[level]->liveSlots == 0; --level) {
        releaseNode(path[level]);
        path[level - 1]->slots[indices[level - 1]] = 0;
        --path[level - 1]->liveSlots;
    }
}

AliasWalkResult
AliasTable::lookup(uint64_t addr) const
{
    if (addr == lastLookupWord)
        return lastLookup;
    AliasWalkResult result;
    const Node *node = root;
    for (unsigned level = 0; level + 1 < Levels; ++level) {
        ++result.levelsTouched;
        uint64_t slot = node->slots[levelIndex(addr, level)];
        if (!slot) {
            lastLookupWord = addr;
            lastLookup = result;
            return result;
        }
        node = reinterpret_cast<const Node *>(slot);
    }
    ++result.levelsTouched;
    result.pid = static_cast<uint32_t>(
        node->slots[levelIndex(addr, Levels - 1)]);
    lastLookupWord = addr;
    lastLookup = result;
    return result;
}

uint32_t
AliasTable::get(uint64_t addr) const
{
    return lookup(addr & ~7ull).pid;
}

AliasWalkResult
AliasTable::walk(uint64_t addr) const
{
    return lookup(addr & ~7ull);
}

bool
AliasTable::pageHostsAliases(uint64_t addr) const
{
    return aliasPages.hosts(addr / 4096);
}

void
AliasTable::clear()
{
    freeSubtree(root, 0);
    chex_assert(_nodeCount == 0, "alias table leak");
    root = allocNode();
    _liveEntries = 0;
    aliasPages.clear();
    lastLookupWord = ~0ull;
}

namespace
{

/**
 * One node as a sorted [slot, payload] pair list; the payload is a
 * child node (interior levels) or the stored PID (leaf level). The
 * node's slot array is its first member, so the stored child pointer
 * doubles as a pointer to the child's array.
 */
json::Value
saveNode(const std::array<uint64_t, 512> &slots, unsigned level,
         unsigned levels)
{
    json::Value out = json::Value::array();
    for (size_t i = 0; i < slots.size(); ++i) {
        if (!slots[i])
            continue;
        json::Value pair = json::Value::array();
        pair.push(static_cast<uint64_t>(i));
        if (level + 1 < levels) {
            const auto *child =
                reinterpret_cast<const std::array<uint64_t, 512> *>(
                    slots[i]);
            pair.push(saveNode(*child, level + 1, levels));
        } else {
            pair.push(slots[i]);
        }
        out.push(std::move(pair));
    }
    return out;
}

/** The per-page alias counts as [page, count] pairs by page. */
json::Value
savePages(const AliasPageCounts &counts)
{
    std::vector<std::pair<uint64_t, uint32_t>> pages;
    counts.forEachNonzero([&](uint64_t page, uint32_t count) {
        pages.emplace_back(page, count);
    });
    std::sort(pages.begin(), pages.end());
    return json::write(pages);
}

bool
restorePages(AliasPageCounts &counts, const json::Value &v,
             json::Error &err)
{
    return json::readPairs<uint64_t, uint32_t>(
        v, err, [&](uint64_t page, uint32_t count) {
            counts.setCount(page, count);
        });
}

} // namespace

template <class Self, class F>
void
AliasTable::fields(Self &self, F &f)
{
    // The tree goes first: restoring it starts from clear(), which
    // also empties the page counts and the entry count read next.
    f("tree", json::Custom{
                  self,
                  [](const AliasTable &t) {
                      return saveNode(t.root->slots, 0, Levels);
                  },
                  [](AliasTable &t, const json::Value &v,
                     json::Error &err) {
                      t.clear();
                      return t.restoreNode(t.root, v, 0, err);
                  }});
    f("pages", json::Custom{self.aliasPages, savePages, restorePages});
    f("liveEntries", self._liveEntries);
}

CHEX_JSON_FIELDS(AliasTable);

bool
AliasTable::restoreNode(Node *node, const json::Value &v, unsigned level,
                        json::Error &err)
{
    return json::readEach(v, err, [&](const json::Value &pair) {
        uint64_t idx = 0;
        if (!json::readSize(pair, 2, err))
            return false;
        if (!json::Below<uint64_t>{idx, Fanout}.read(pair.items()[0], err)) {
            err.within(size_t{0});
            return false;
        }
        // Overwriting a repeated slot would orphan the child already
        // hanging there.
        if (node->slots[idx])
            return err.fail("repeats a slot");
        const json::Value &payload = pair.items()[1];
        bool ok = false;
        if (level + 1 < Levels) {
            Node *child = allocNode();
            node->slots[idx] = reinterpret_cast<uint64_t>(child);
            ++node->liveSlots;
            // An empty subtree ([k, []]) breaks the reclamation
            // invariant that every interior node hosts an entry; the
            // saver never emits one. The child stays linked, so
            // clear() reclaims it.
            ok = restoreNode(child, payload, level + 1, err) &&
                 (child->liveSlots || err.fail("is an empty subtree"));
        } else {
            // Leaf payloads are PIDs: nonzero (zero slots are never
            // serialized) and 32-bit (get() would truncate wider).
            uint64_t pid = 0;
            ok = json::readUint(payload, UINT32_MAX, pid, err) &&
                 (pid || err.fail("is not a PID"));
            if (ok) {
                node->slots[idx] = pid;
                ++node->liveSlots;
            }
        }
        if (!ok)
            err.within(size_t{1});
        return ok;
    });
}

} // namespace chex
