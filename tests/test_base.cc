/**
 * @file
 * Unit tests for the base utilities: logging formatters, the
 * deterministic RNG, integer math, statistics, table rendering, and
 * base64.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/base64.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/table.hh"

namespace chex
{
namespace
{

TEST(Logging, CsprintfFormats)
{
    EXPECT_EQ(csprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(csprintf("%06x", 0xabc), "000abc");
}

TEST(Random, DeterministicFromSeed)
{
    Random a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Random, UniformWithinBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        uint64_t v = r.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Random, SkewedSizeWithinBounds)
{
    Random r(7);
    uint64_t below_mid = 0;
    for (int i = 0; i < 2000; ++i) {
        uint64_t v = r.skewedSize(32, 65536);
        EXPECT_GE(v, 32u);
        EXPECT_LE(v, 65536u);
        if (v < 2048)
            ++below_mid;
    }
    // The log-uniform draw skews heavily toward small sizes.
    EXPECT_GT(below_mid, 800u);
}

TEST(Random, ChanceExtremes)
{
    Random r(9);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Random, WeightedIndexRespectsWeights)
{
    Random r(11);
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 3000; ++i)
        ++counts[r.weightedIndex({1.0, 0.0, 9.0})];
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0] * 4);
}

TEST(IntMath, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(ceilLog2(48), 6u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(roundUp(17, 16), 32u);
    EXPECT_EQ(roundDown(17, 16), 16u);
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffull);
}

TEST(Stats, ScalarArithmetic)
{
    stats::StatGroup g("g");
    auto &s = g.addScalar("s", "test");
    s += 2;
    ++s;
    s++;
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.value(), 4.0);
    EXPECT_DOUBLE_EQ(g.get("s"), 4.0);
    s = 7;
    EXPECT_EQ(s.count(), 7u);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Stats, ScalarCountsPastDoublePrecisionCliff)
{
    // 2^53 is the first integer a double cannot distinguish from its
    // successor: 9007199254740992.0 + 1.0 == 9007199254740992.0, so
    // a double-backed counter silently stops counting there. The
    // integer Scalar must keep exact counts across the cliff.
    constexpr uint64_t cliff = 1ull << 53;
    stats::StatGroup g("g");
    auto &s = g.addScalar("s", "test");
    s = cliff;
    ++s;
    EXPECT_EQ(s.count(), cliff + 1);
    s += 1;
    EXPECT_EQ(s.count(), cliff + 2);

    // The same arithmetic through doubles is a silent no-op — the
    // failure mode this test pins down.
    double d = static_cast<double>(cliff);
    EXPECT_EQ(d + 1.0, d);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    stats::StatGroup g("g");
    auto &a = g.addScalar("a", "");
    g.addFormula("double_a", "", [&a]() { return a.value() * 2; });
    a = 21;
    EXPECT_DOUBLE_EQ(g.get("double_a"), 42.0);
}

TEST(Stats, NestedLookup)
{
    stats::StatGroup parent("parent");
    stats::StatGroup child("child");
    auto &s = child.addScalar("x", "");
    parent.addChild(&child);
    s = 7;
    EXPECT_DOUBLE_EQ(parent.get("child.x"), 7.0);
    EXPECT_TRUE(parent.has("child.x"));
    EXPECT_FALSE(parent.has("child.y"));
}

TEST(Stats, HistogramBucketsAndMoments)
{
    stats::Histogram h(0, 100, 10);
    h.sample(5);
    h.sample(5);
    h.sample(95);
    h.sample(-1);  // underflow
    h.sample(101); // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.minSample(), -1.0);
    EXPECT_DOUBLE_EQ(h.maxSample(), 101.0);
}

TEST(Stats, ResetClearsEverything)
{
    stats::StatGroup g("g");
    auto &s = g.addScalar("s", "");
    auto &h = g.addHistogram("h", "", 0, 10, 5);
    s = 3;
    h.sample(1);
    g.resetAll();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, DumpContainsEntries)
{
    stats::StatGroup g("sys");
    auto &s = g.addScalar("cycles", "total cycles");
    s = 100;
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("sys.cycles = 100"), std::string::npos);
}

TEST(Table, RendersAlignedRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find("+"), std::string::npos);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(Base64, RoundTripsEveryLength)
{
    // RFC 4648 vectors, then every tail length over all byte values.
    EXPECT_EQ(base64Encode("", 0), "");
    EXPECT_EQ(base64Encode("f", 1), "Zg==");
    EXPECT_EQ(base64Encode("fo", 2), "Zm8=");
    EXPECT_EQ(base64Encode("foo", 3), "Zm9v");
    EXPECT_EQ(base64Encode("foobar", 6), "Zm9vYmFy");
    Random rng(7);
    for (size_t n = 0; n < 70; ++n) {
        std::vector<uint8_t> data(n);
        for (uint8_t &b : data)
            b = static_cast<uint8_t>(rng.next());
        std::string text = base64Encode(data);
        EXPECT_EQ(text.size(), (n + 2) / 3 * 4);
        std::vector<uint8_t> back{1, 2, 3};
        ASSERT_TRUE(base64Decode(text, back)) << text;
        EXPECT_EQ(back, data);
    }
}

TEST(Base64, RejectsMalformedText)
{
    std::vector<uint8_t> out;
    for (const char *bad :
         {"Zg=", "Zg===", "Z===", "====", "Zm=v", "Zg==Zg==", "Zm9*",
          "Zm9\n", "Zm 9"})
        EXPECT_FALSE(base64Decode(bad, out)) << bad;
    EXPECT_TRUE(base64Decode("Zm9vYg==", out));
    EXPECT_EQ(std::string(out.begin(), out.end()), "foob");
}

} // namespace
} // namespace chex
