/**
 * @file
 * Timing-core tests: dataflow-limited latency, structural limits
 * (ROB/issue width), cache-latency exposure, branch-mispredict
 * redirects, zero-idiom handling, alias-flush charging, and strict
 * snapshot restore of the resource calendars and occupancy windows.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "cpu/resource.hh"
#include "isa/assembler.hh"
#include "mem/hierarchy.hh"

namespace chex
{
namespace
{

StaticUop
aluUop(RegId dst, RegId src1, RegId src2)
{
    StaticUop u;
    u.type = UopType::IntAlu;
    u.op = AluOp::Add;
    u.dst = dst;
    u.src1 = src1;
    u.src2 = src2;
    return u;
}

class CoreTest : public ::testing::Test
{
  protected:
    CoreTest() : hier(), core(CoreConfig{}, hier) {}

    uint64_t
    add(const StaticUop &u, uint64_t ea = 0, unsigned extra = 0,
        bool zero_idiom = false)
    {
        UopTimingIn in;
        in.uop = &u;
        in.effAddr = ea;
        in.extraLatency = extra;
        in.zeroIdiom = zero_idiom;
        return core.addUop(in);
    }

    void
    macro(uint64_t pc)
    {
        core.beginMacro(pc, DecodePath::Simple, MacroBranchInfo{});
    }

    MemoryHierarchy hier;
    Core core;
};

TEST_F(CoreTest, DependentChainSerializes)
{
    macro(0x400000);
    StaticUop u = aluUop(RAX, RAX, RAX);
    uint64_t c1 = add(u);
    uint64_t c2 = add(u);
    uint64_t c3 = add(u);
    EXPECT_GT(c2, c1);
    EXPECT_GT(c3, c2);
    core.endMacro(false, 0);
    EXPECT_EQ(core.uops(), 3u);
}

TEST_F(CoreTest, IndependentUopsOverlap)
{
    macro(0x400000);
    uint64_t done[4];
    RegId dsts[4] = {RAX, RBX, RCX, RDX};
    for (int i = 0; i < 4; ++i)
        done[i] = add(aluUop(dsts[i], RSI, RDI));
    // All four issue in the same window: completions within 1 cycle.
    EXPECT_LE(done[3] - done[0], 1u);
    core.endMacro(false, 0);
}

TEST_F(CoreTest, IssueWidthLimitsThroughput)
{
    // 60 independent single-cycle uops through a 6-wide issue:
    // at least 10 cycles of issue are needed.
    macro(0x400000);
    uint64_t first = 0, last = 0;
    for (int i = 0; i < 60; ++i) {
        uint64_t c = add(aluUop(static_cast<RegId>(i % 8), RSI, RDI));
        if (i == 0)
            first = c;
        last = c;
    }
    EXPECT_GE(last - first, 9u);
    core.endMacro(false, 0);
}

TEST_F(CoreTest, ExtraLatencyDelaysCompletion)
{
    macro(0x400000);
    StaticUop u = aluUop(RAX, RBX, RCX);
    uint64_t base = add(u);
    macro(0x400004);
    uint64_t slowed = add(aluUop(RDX, RBX, RCX), 0, 50);
    EXPECT_GE(slowed, base + 50);
    core.endMacro(false, 0);
}

TEST_F(CoreTest, LoadLatencyIncludesCache)
{
    macro(0x400000);
    StaticUop ld;
    ld.type = UopType::Load;
    ld.dst = RAX;
    ld.mem = memAt(RBX, 0);
    ld.hasMem = true;
    uint64_t miss = add(ld, 0x10000);
    macro(0x400004);
    uint64_t hit = add(ld, 0x10000);
    EXPECT_GT(miss, hit); // first access pays the DRAM fill
    core.endMacro(false, 0);
}

TEST_F(CoreTest, StoreToLoadForwarding)
{
    macro(0x400000);
    StaticUop st;
    st.type = UopType::Store;
    st.src1 = RCX;
    st.mem = memAt(RBX, 0);
    st.hasMem = true;
    uint64_t store_done = add(st, 0x20000);
    StaticUop ld;
    ld.type = UopType::Load;
    ld.dst = RAX;
    ld.mem = memAt(RBX, 0);
    ld.hasMem = true;
    uint64_t fwd = add(ld, 0x20000);
    // Forwarded out of the store queue: completes right after the
    // store's data is ready, far cheaper than the cold DRAM fill.
    EXPECT_LE(fwd, store_done + 3);
    macro(0x400004);
    uint64_t unrelated = add(ld, 0x80000); // cold line: full fill
    EXPECT_GT(unrelated, fwd + 100);
    core.endMacro(false, 0);
}

TEST_F(CoreTest, ZeroIdiomSkipsExecution)
{
    macro(0x400000);
    StaticUop chk;
    chk.type = UopType::CapCheck;
    add(chk, 0, 0, true);
    EXPECT_EQ(core.zeroIdiomUops(), 1u);
    core.endMacro(false, 0);
}

TEST_F(CoreTest, BranchMispredictChargesSquash)
{
    // Train: a conditional branch alternating taken/not-taken with
    // no warmup is guaranteed to mispredict sometimes.
    StaticUop br;
    br.type = UopType::Branch;
    br.cc = CondCode::NE;
    br.src1 = FLAGS;

    for (int i = 0; i < 40; ++i) {
        MacroBranchInfo bi;
        bi.isBranch = true;
        bi.isConditional = true;
        bi.fallthrough = 0x400004;
        core.beginMacro(0x400000, DecodePath::Simple, bi);
        add(br);
        bool taken = (i / 3) % 2 == 0; // irregular-ish
        core.endMacro(taken, 0x400800);
    }
    EXPECT_GT(core.branchMispredicts(), 0u);
    EXPECT_GT(core.squashCyclesBranch(), 0u);
    EXPECT_EQ(core.squashCyclesAlias(), 0u);
}

TEST_F(CoreTest, AliasFlushChargesSeparateBucket)
{
    macro(0x400000);
    uint64_t c = add(aluUop(RAX, RBX, RCX));
    core.chargeAliasFlush(c);
    core.endMacro(false, 0);
    EXPECT_GT(core.squashCyclesAlias(), 0u);
    EXPECT_EQ(core.squashCyclesBranch(), 0u);
}

TEST_F(CoreTest, RobLimitsInFlightWindow)
{
    // A very long latency uop at the head plus > ROB-size younger
    // uops: the younger ones cannot commit past the window.
    CoreConfig small;
    small.robEntries = 16;
    Core tiny(small, hier);
    auto addTo = [&](Core &c, const StaticUop &u, unsigned extra) {
        UopTimingIn in;
        in.uop = &u;
        in.extraLatency = extra;
        return c.addUop(in);
    };
    tiny.beginMacro(0x400000, DecodePath::Simple, MacroBranchInfo{});
    StaticUop slow = aluUop(RAX, RBX, RCX);
    addTo(tiny, slow, 500);
    StaticUop fast = aluUop(RDX, RSI, RDI);
    uint64_t last = 0;
    for (int i = 0; i < 40; ++i)
        last = addTo(tiny, fast, 0);
    // uop 17+ must wait for ROB entries freed after the slow head
    // commits (cycle > 500).
    EXPECT_GT(last, 500u);
}

TEST_F(CoreTest, MsromPathStallsFetch)
{
    macro(0x400000);
    add(aluUop(RAX, RBX, RCX));
    core.endMacro(false, 0);
    uint64_t before = core.cycles();

    core.beginMacro(0x400004, DecodePath::Msrom, MacroBranchInfo{});
    add(aluUop(RDX, RBX, RCX));
    core.endMacro(false, 0);
    EXPECT_GT(core.cycles(), before);
}

TEST_F(CoreTest, StallFetchDelaysNextMacro)
{
    macro(0x400000);
    add(aluUop(RAX, RBX, RCX));
    core.endMacro(false, 0);
    core.stallFetch(1000);
    macro(0x400004);
    uint64_t c = add(aluUop(RDX, RBX, RCX));
    EXPECT_GT(c, 1000u);
    core.endMacro(false, 0);
}

TEST_F(CoreTest, IpcWithinPhysicalLimits)
{
    // A stream of independent ALU work cannot exceed issue width.
    for (int m = 0; m < 200; ++m) {
        macro(0x400000 + m * 4);
        for (int u = 0; u < 3; ++u)
            add(aluUop(static_cast<RegId>((m * 3 + u) % 12), RSI,
                       RDI));
        core.endMacro(false, 0);
    }
    EXPECT_GT(core.ipc(), 0.5);
    EXPECT_LE(core.ipc(), 6.0);
}

/** @p doc without member @p drop, or with it replaced by @p with. */
json::Value
editMember(const json::Value &doc, const std::string &drop,
           const json::Value *with = nullptr)
{
    json::Value out = json::Value::object();
    for (const auto &[key, val] : doc.members()) {
        if (key != drop)
            out.set(key, val);
        else if (with)
            out.set(key, *with);
    }
    return out;
}

TEST(ResourceCalendar, RestoreRoundTripsAndRejectsBadBase)
{
    ResourceCalendar cal(2, 16);
    for (uint64_t c : {3, 3, 3, 40, 41})
        cal.reserve(c);
    json::Value doc = cal.saveState();
    ResourceCalendar again(2, 16);
    ASSERT_TRUE(again.restoreState(doc));
    EXPECT_EQ(again.saveState().dump(), doc.dump());

    json::Value str("26");
    ResourceCalendar other(2, 16);
    EXPECT_FALSE(other.restoreState(editMember(doc, "base")));
    EXPECT_FALSE(other.restoreState(editMember(doc, "base", &str)));
    EXPECT_EQ(other.saveState().dump(), ResourceCalendar(2, 16)
                                            .saveState()
                                            .dump());
}

TEST(OccupancyWindow, RestoreRoundTripsAndRejectsBadHead)
{
    OccupancyWindow win(5);
    for (uint64_t c = 1; c <= 7; ++c)
        win.push(c * 10);
    json::Value doc = win.saveState();
    OccupancyWindow again(5);
    ASSERT_TRUE(again.restoreState(doc));
    EXPECT_EQ(again.saveState().dump(), doc.dump());
    EXPECT_EQ(again.allocBound(), win.allocBound());

    json::Value str("7");
    json::Value bad_release = json::Value::array();
    for (int i = 0; i < 5; ++i)
        bad_release.push(i == 2 ? json::Value("x") : json::Value(1));
    OccupancyWindow other(5);
    EXPECT_FALSE(other.restoreState(editMember(doc, "head")));
    EXPECT_FALSE(other.restoreState(editMember(doc, "head", &str)));
    EXPECT_FALSE(
        other.restoreState(editMember(doc, "release", &bad_release)));
    EXPECT_EQ(other.saveState().dump(),
              OccupancyWindow(5).saveState().dump());
}

} // namespace
} // namespace chex
