/**
 * @file
 * Register-tag-file tests: the committed + transient PID tags of
 * Section V-D, including squash recovery by sequence number, commit
 * folding, strict snapshot restore, and a seeded differential check
 * of the seq-ordered write log against a per-register-vector
 * reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/random.hh"
#include "tracker/reg_tags.hh"

namespace chex
{
namespace
{

/**
 * Reference model: each register holds its finalized PID and a
 * vector of (seq, pid) transients; commit and squash scan every
 * register. Slow but obviously right, and it serializes the same
 * chex-snapshot-v1 layout.
 */
class RefRegTagFile
{
  public:
    Pid
    current(RegId reg) const
    {
        const RegTag &t = tags[reg];
        return t.transients.empty() ? t.finalized
                                    : t.transients.back().pid;
    }

    Pid committed(RegId reg) const { return tags[reg].finalized; }

    void
    write(RegId reg, Pid pid, uint64_t seq)
    {
        RegTag &t = tags[reg];
        ASSERT_TRUE(t.transients.empty() || t.transients.back().seq < seq);
        t.transients.push_back({seq, pid});
    }

    void
    commitUpTo(uint64_t seq)
    {
        for (RegTag &t : tags) {
            size_t n = 0;
            while (n < t.transients.size() && t.transients[n].seq <= seq)
                ++n;
            if (n > 0) {
                t.finalized = t.transients[n - 1].pid;
                t.transients.erase(t.transients.begin(),
                                   t.transients.begin() + n);
            }
        }
    }

    void
    squashAfter(uint64_t seq)
    {
        for (RegTag &t : tags)
            while (!t.transients.empty() && t.transients.back().seq > seq)
                t.transients.pop_back();
    }

    size_t
    transientCount() const
    {
        size_t n = 0;
        for (const RegTag &t : tags)
            n += t.transients.size();
        return n;
    }

    json::Value
    saveState() const
    {
        json::Value out = json::Value::array();
        for (const RegTag &t : tags) {
            json::Value jt = json::Value::object();
            jt.set("finalized", t.finalized);
            json::Value jtr = json::Value::array();
            for (const TransientTag &tt : t.transients) {
                json::Value pair = json::Value::array();
                pair.push(tt.seq);
                pair.push(tt.pid);
                jtr.push(std::move(pair));
            }
            jt.set("transients", std::move(jtr));
            out.push(std::move(jt));
        }
        return out;
    }

    void
    restoreState(const json::Value &v)
    {
        for (size_t r = 0; r < NumArchRegs; ++r) {
            const json::Value &jt = v.at(r);
            RegTag &t = tags[r];
            t.finalized = static_cast<Pid>(jt.at("finalized").asUint64());
            t.transients.clear();
            for (const json::Value &pair : jt.at("transients").items())
                t.transients.push_back(
                    {pair.at(size_t(0)).asUint64(),
                     static_cast<Pid>(pair.at(size_t(1)).asUint64())});
        }
    }

  private:
    struct TransientTag
    {
        uint64_t seq;
        Pid pid;
    };
    struct RegTag
    {
        Pid finalized = NoPid;
        std::vector<TransientTag> transients; // ascending seq
    };

    RegTag tags[NumArchRegs];
};

void
expectSameState(const RegTagFile &dut, const RefRegTagFile &ref,
                const std::string &where)
{
    SCOPED_TRACE(where);
    for (unsigned r = 0; r < NumArchRegs; ++r) {
        RegId reg = static_cast<RegId>(r);
        ASSERT_EQ(dut.current(reg), ref.current(reg)) << regName(reg);
        ASSERT_EQ(dut.committed(reg), ref.committed(reg)) << regName(reg);
    }
    ASSERT_EQ(dut.transientCount(), ref.transientCount());
    ASSERT_EQ(dut.saveState().dump(), ref.saveState().dump());
}

/** A snapshot document built from per-register (finalized, pairs). */
json::Value
tagDoc(const std::vector<std::pair<RegId, std::vector<std::pair<
           uint64_t, Pid>>>> &transients,
       Pid finalized = NoPid)
{
    json::Value out = json::Value::array();
    for (unsigned r = 0; r < NumArchRegs; ++r) {
        json::Value jtr = json::Value::array();
        for (const auto &[reg, pairs] : transients) {
            if (reg != r)
                continue;
            for (const auto &[seq, pid] : pairs) {
                json::Value pair = json::Value::array();
                pair.push(seq);
                pair.push(pid);
                jtr.push(std::move(pair));
            }
        }
        json::Value jt = json::Value::object();
        jt.set("finalized", finalized);
        jt.set("transients", std::move(jtr));
        out.push(std::move(jt));
    }
    return out;
}

/** @p doc with register @p reg's object replaced by @p jt. */
json::Value
withReg(const json::Value &doc, RegId reg, const json::Value &jt)
{
    json::Value out = json::Value::array();
    for (size_t r = 0; r < NumArchRegs; ++r)
        out.push(r == reg ? jt : doc.at(r));
    return out;
}

TEST(RegTags, FreshFileIsUntagged)
{
    RegTagFile tags;
    for (unsigned r = 0; r < NumArchRegs; ++r)
        EXPECT_EQ(tags.current(static_cast<RegId>(r)), NoPid);
}

TEST(RegTags, YoungestTransientWins)
{
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    EXPECT_EQ(tags.current(RAX), 2u);
    EXPECT_EQ(tags.committed(RAX), NoPid);
}

TEST(RegTags, CommitFoldsIntoFinalized)
{
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    tags.commitUpTo(15);
    EXPECT_EQ(tags.committed(RAX), 1u);
    EXPECT_EQ(tags.current(RAX), 2u); // transient 20 still pending
    tags.commitUpTo(20);
    EXPECT_EQ(tags.committed(RAX), 2u);
    EXPECT_EQ(tags.transientCount(), 0u);
}

TEST(RegTags, SquashDiscardsYoungerOnly)
{
    // The recovery protocol: on a squash at sequence number S, every
    // transient tag with seq > S is removed (Section V-D).
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    tags.write(RBX, 3, 25);
    tags.squashAfter(15);
    EXPECT_EQ(tags.current(RAX), 1u);
    EXPECT_EQ(tags.current(RBX), NoPid);
    EXPECT_EQ(tags.transientCount(), 1u);
}

TEST(RegTags, SquashThenRetagReplaysCorrectly)
{
    RegTagFile tags;
    tags.write(RAX, 1, 10);
    tags.write(RAX, 2, 20);
    tags.squashAfter(10);
    // Refetched path writes a different tag at a new seq.
    tags.write(RAX, 5, 21);
    EXPECT_EQ(tags.current(RAX), 5u);
    tags.commitUpTo(21);
    EXPECT_EQ(tags.committed(RAX), 5u);
}

TEST(RegTags, CommittedSurvivesSquash)
{
    RegTagFile tags;
    tags.write(RAX, 7, 5);
    tags.commitUpTo(5);
    tags.write(RAX, 9, 10);
    tags.squashAfter(6);
    EXPECT_EQ(tags.current(RAX), 7u); // falls back to finalized
}

TEST(RegTags, IndependentRegisters)
{
    RegTagFile tags;
    tags.write(RAX, 1, 1);
    tags.write(RBX, 2, 2);
    tags.write(R15, 3, 3);
    EXPECT_EQ(tags.current(RAX), 1u);
    EXPECT_EQ(tags.current(RBX), 2u);
    EXPECT_EQ(tags.current(R15), 3u);
    EXPECT_EQ(tags.current(RCX), NoPid);
}

TEST(RegTags, ClearResets)
{
    RegTagFile tags;
    tags.write(RAX, 1, 1);
    tags.commitUpTo(1);
    tags.write(RAX, 2, 2);
    tags.clear();
    EXPECT_EQ(tags.current(RAX), NoPid);
    EXPECT_EQ(tags.committed(RAX), NoPid);
    EXPECT_EQ(tags.transientCount(), 0u);
}

TEST(RegTags, MatchesReferenceModelUnderRandomOps)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Random rng(seed);
        RegTagFile dut;
        RefRegTagFile ref;
        // Narrow register sets keep several writes per register in
        // flight at once; the widest covers every register.
        unsigned regs = seed % 4 == 0 ? NumArchRegs : 4 + 4 * (seed % 4);
        uint64_t seq = 0, committed = 0;
        for (unsigned step = 0; step < 2000; ++step) {
            std::string where = "seed " + std::to_string(seed) +
                                " step " + std::to_string(step);
            uint64_t op = rng.uniform(0, 99);
            if (op < 55) {
                // One µop's writes: usually one register, sometimes
                // several distinct registers at the same seq.
                seq += rng.uniform(1, 3);
                unsigned n = rng.chance(0.1) ? 3 : 1;
                unsigned first = static_cast<unsigned>(
                    rng.uniform(0, regs - 1));
                for (unsigned k = 0; k < n && k < regs; ++k) {
                    RegId reg = static_cast<RegId>((first + k) % regs);
                    Pid pid = static_cast<Pid>(rng.uniform(0, 50));
                    dut.write(reg, pid, seq);
                    ref.write(reg, pid, seq);
                }
            } else if (op < 85) {
                // Commit the oldest writes, sometimes re-committing a
                // point already passed.
                uint64_t to = rng.chance(0.1)
                                  ? rng.uniform(0, committed)
                                  : rng.uniform(committed, seq);
                committed = std::max(committed, to);
                dut.commitUpTo(to);
                ref.commitUpTo(to);
            } else if (op < 97) {
                uint64_t to = rng.uniform(committed, seq);
                dut.squashAfter(to);
                ref.squashAfter(to);
                seq = to;
            } else {
                // Round-trip through a snapshot into fresh files.
                json::Value doc;
                ASSERT_TRUE(json::Value::parse(dut.saveState().dump(), doc));
                dut = RegTagFile();
                ASSERT_TRUE(dut.restoreState(doc));
                ref = RefRegTagFile();
                ref.restoreState(doc);
            }
            expectSameState(dut, ref, where);
        }
    }
}

TEST(RegTags, RestoreInterleavedTransientsMatchesReference)
{
    // Transients interleaved by seq across three registers, with a
    // seq shared by two registers.
    json::Value doc = tagDoc({{RAX, {{1, 5}, {4, 6}, {7, 7}}},
                              {RBX, {{2, 8}, {4, 9}}},
                              {RCX, {{3, 10}, {9, 11}}}},
                             3);
    RegTagFile dut;
    RefRegTagFile ref;
    ASSERT_TRUE(dut.restoreState(doc));
    ref.restoreState(doc);
    EXPECT_EQ(dut.saveState().dump(), doc.dump());
    expectSameState(dut, ref, "restored");
    EXPECT_EQ(dut.current(RAX), 7u);
    EXPECT_EQ(dut.current(RDX), 3u);

    dut.squashAfter(4);
    ref.squashAfter(4);
    expectSameState(dut, ref, "squash 4");
    EXPECT_EQ(dut.current(RAX), 6u);
    EXPECT_EQ(dut.current(RCX), 10u);

    dut.commitUpTo(2);
    ref.commitUpTo(2);
    expectSameState(dut, ref, "commit 2");
    dut.squashAfter(2);
    ref.squashAfter(2);
    expectSameState(dut, ref, "squash 2");
    EXPECT_EQ(dut.current(RAX), 5u);
    EXPECT_EQ(dut.current(RBX), 8u);
    EXPECT_EQ(dut.current(RCX), 3u); // back to finalized

    dut.write(RCX, 12, 5);
    ref.write(RCX, 12, 5);
    dut.commitUpTo(5);
    ref.commitUpTo(5);
    expectSameState(dut, ref, "commit 5");
    EXPECT_EQ(dut.transientCount(), 0u);
}

TEST(RegTags, LogGrowsPastInitialCapacity)
{
    // ~190 writes in flight at the peak, with commits moving the
    // ring's head first, so the log grows while wrapped.
    RegTagFile dut;
    RefRegTagFile ref;
    for (uint64_t seq = 1; seq <= 1000; ++seq) {
        RegId reg = static_cast<RegId>(seq % 16);
        dut.write(reg, static_cast<Pid>(seq), seq);
        ref.write(reg, static_cast<Pid>(seq), seq);
        if (seq % 100 == 0) {
            dut.commitUpTo(seq - 90);
            ref.commitUpTo(seq - 90);
        }
        if (seq % 97 == 0)
            expectSameState(dut, ref, "seq " + std::to_string(seq));
    }
    expectSameState(dut, ref, "grown");
    dut.squashAfter(500);
    ref.squashAfter(500);
    expectSameState(dut, ref, "squashed");
}

TEST(RegTags, RestoreRejectsMissingOrMistypedFinalized)
{
    RegTagFile tags;
    tags.write(RAX, 4, 1);
    std::string before = tags.saveState().dump();

    json::Value no_fin = json::Value::object();
    no_fin.set("transients", json::Value::array());
    EXPECT_FALSE(tags.restoreState(withReg(tagDoc({}), RCX, no_fin)));

    json::Value str_fin = json::Value::object();
    str_fin.set("finalized", "7");
    str_fin.set("transients", json::Value::array());
    EXPECT_FALSE(tags.restoreState(withReg(tagDoc({}), RBX, str_fin)));

    // A PID wider than 32 bits would be silently truncated.
    json::Value wide_fin = json::Value::object();
    wide_fin.set("finalized", uint64_t(1) << 32);
    wide_fin.set("transients", json::Value::array());
    EXPECT_FALSE(tags.restoreState(withReg(tagDoc({}), RSI, wide_fin)));

    // A rejected document leaves the file untouched.
    EXPECT_EQ(tags.saveState().dump(), before);
    EXPECT_EQ(tags.current(RAX), 4u);
}

TEST(RegTags, RestoreRejectsNonAscendingTransients)
{
    RegTagFile tags;
    EXPECT_FALSE(tags.restoreState(tagDoc({{RAX, {{5, 1}, {3, 2}}}})));
    EXPECT_FALSE(tags.restoreState(tagDoc({{RBX, {{4, 1}, {4, 2}}}})));
    EXPECT_FALSE(tags.restoreState(
        tagDoc({{RCX, {{4, 1}}}, {RDX, {{1, 1}, {9, 1}, {2, 2}}}})));
    EXPECT_EQ(tags.transientCount(), 0u);
    // Equal seqs on different registers are fine.
    EXPECT_TRUE(
        tags.restoreState(tagDoc({{RAX, {{4, 1}}}, {RBX, {{4, 2}}}})));
    EXPECT_EQ(tags.transientCount(), 2u);
}

TEST(RegTags, RestoreRejectsMalformedPairs)
{
    RegTagFile tags;
    json::Value pair = json::Value::array();
    pair.push(uint64_t(1));
    pair.push("x");
    json::Value jtr = json::Value::array();
    jtr.push(std::move(pair));
    json::Value jt = json::Value::object();
    jt.set("finalized", uint64_t(0));
    jt.set("transients", std::move(jtr));
    EXPECT_FALSE(tags.restoreState(withReg(tagDoc({}), RAX, jt)));
    EXPECT_FALSE(tags.restoreState(json::Value::array()));
}

} // namespace
} // namespace chex
