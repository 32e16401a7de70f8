/**
 * @file
 * JSON value type tests: construction, the strict parser's grammar,
 * nesting cap and duplicate-key rejection, and byte-for-byte
 * agreement of the buffer writer with the stream writer it replaced
 * (kept here as a reference) on seeded random documents and on every
 * committed benchmark record.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"

using namespace chex;

namespace
{

static_assert(sizeof(json::Value) <= 16, "json::Value must stay compact");

// ---- Reference writer: the ostream writer the buffer writer replaced.

void
refEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

void
refNumber(std::ostream &os, double d)
{
    if (!std::isfinite(d)) {
        os << "null";
        return;
    }
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < 9007199254740992.0)
        std::snprintf(buf, sizeof(buf), "%.0f", d);
    else
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    os << buf;
}

void
refNewline(std::ostream &os, unsigned indent, unsigned depth)
{
    os << '\n';
    for (unsigned i = 0; i < indent * depth; ++i)
        os << ' ';
}

void
refWrite(std::ostream &os, const json::Value &v, unsigned indent,
         unsigned depth)
{
    using Kind = json::Value::Kind;
    switch (v.kind()) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (v.boolean() ? "true" : "false");
        break;
      case Kind::Number:
        if (v.isExactUint()) {
            char buf[24];
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(v.asUint64()));
            os << buf;
        } else {
            refNumber(os, v.number());
        }
        break;
      case Kind::String:
        refEscaped(os, v.str());
        break;
      case Kind::Array:
        if (v.items().empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (size_t i = 0; i < v.items().size(); ++i) {
            if (i)
                os << ',';
            if (indent)
                refNewline(os, indent, depth + 1);
            refWrite(os, v.items()[i], indent, depth + 1);
        }
        if (indent)
            refNewline(os, indent, depth);
        os << ']';
        break;
      case Kind::Object:
        if (v.members().empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (size_t i = 0; i < v.members().size(); ++i) {
            if (i)
                os << ',';
            if (indent)
                refNewline(os, indent, depth + 1);
            refEscaped(os, v.members()[i].first);
            os << (indent ? ": " : ":");
            refWrite(os, v.members()[i].second, indent, depth + 1);
        }
        if (indent)
            refNewline(os, indent, depth);
        os << '}';
        break;
    }
}

std::string
refDump(const json::Value &v, unsigned indent)
{
    std::ostringstream ss;
    refWrite(ss, v, indent, 0);
    return ss.str();
}

std::string
streamed(const json::Value &v, unsigned indent)
{
    std::ostringstream ss;
    v.write(ss, indent);
    return ss.str();
}

/** Every writer path agrees with the reference at both indents. */
void
expectMatchesReference(const json::Value &v)
{
    for (unsigned indent : {0u, 2u}) {
        SCOPED_TRACE(indent);
        std::string ref = refDump(v, indent);
        EXPECT_EQ(v.dump(indent), ref);
        EXPECT_EQ(streamed(v, indent), ref);
        json::Value back;
        std::string err;
        ASSERT_TRUE(json::Value::parse(ref, back, &err)) << err;
        EXPECT_EQ(back.dump(indent), ref);
    }
}

/** Numbers at the edges of both representations. */
std::vector<json::Value>
edgeNumbers()
{
    const double inf = std::numeric_limits<double>::infinity();
    const double dmin = std::numeric_limits<double>::denorm_min();
    return {
        json::Value(uint64_t{0}),
        json::Value(UINT64_MAX),
        json::Value(UINT64_MAX - 1),
        json::Value(uint64_t{1} << 53),
        json::Value((uint64_t{1} << 53) + 1),
        json::Value(9007199254740991.0), // 2^53 - 1
        json::Value(9007199254740992.0), // 2^53: "%.17g" side
        json::Value(-9007199254740992.0),
        json::Value(18446744073709551616.0), // 2^64 as a double
        json::Value(-1),
        json::Value(INT64_MIN),
        json::Value(-0.0),
        json::Value(0.0),
        json::Value(0.1),
        json::Value(-3.5),
        json::Value(1e21),
        json::Value(1e-7),
        json::Value(dmin),
        json::Value(-dmin),
        json::Value(std::numeric_limits<double>::min()),
        json::Value(std::numeric_limits<double>::max()),
        json::Value(std::numeric_limits<double>::quiet_NaN()),
        json::Value(inf),
        json::Value(-inf),
    };
}

/** Seeded random documents over every kind and awkward byte. */
class DocGen
{
  public:
    explicit DocGen(uint64_t seed) : rng(seed) {}

    json::Value
    value(unsigned depth)
    {
        switch (pick(depth >= 4 ? 4 : 7)) {
          case 0: return json::Value();
          case 1: return json::Value(pick(2) == 1);
          case 2: return number();
          case 3: return json::Value(text());
          case 4: return number();
          case 5: {
            json::Value a = json::Value::array();
            for (unsigned i = 0, n = pick(6); i < n; ++i)
                a.push(value(depth + 1));
            return a;
          }
          default: {
            json::Value o = json::Value::object();
            for (unsigned i = 0, n = pick(6); i < n; ++i)
                o.set(text(), value(depth + 1));
            return o;
          }
        }
    }

  private:
    unsigned
    pick(unsigned n)
    {
        return static_cast<unsigned>(rng() % n);
    }

    json::Value
    number()
    {
        static const std::vector<json::Value> edges = edgeNumbers();
        switch (pick(6)) {
          case 0: return edges[pick(edges.size())];
          case 1: return json::Value(static_cast<uint64_t>(rng()));
          case 2: return json::Value(-static_cast<int64_t>(rng() >> 1) - 1);
          case 3: return json::Value(std::bit_cast<double>(rng()));
          case 4:
            return json::Value(static_cast<double>(
                static_cast<int64_t>(rng()) >> pick(64)));
          default: return json::Value(static_cast<uint64_t>(pick(1000)));
        }
    }

    std::string
    text()
    {
        static const char *const pieces[] = {
            "\"", "\\", "/", "\x7f", "\xc3\xa9", "\xe2\x82\xac",
            "\xf0\x9f\x98\x80", "ab", " ", "\\u0041",
        };
        std::string s;
        for (unsigned i = 0, n = pick(10); i < n; ++i) {
            switch (pick(4)) {
              case 0: s += static_cast<char>(pick(0x20)); break;
              case 1: s += static_cast<char>(0x20 + pick(0x60)); break;
              case 2: s += static_cast<char>(0x80 + pick(0x80)); break;
              default: s += pieces[pick(std::size(pieces))]; break;
            }
        }
        return s;
    }

    std::mt19937_64 rng;
};

/** parse() of @p text fails with exactly @p want. */
void
expectRejected(const std::string &text, const std::string &want)
{
    SCOPED_TRACE(text.size() > 40 ? text.substr(0, 40) + "..." : text);
    json::Value out;
    std::string err;
    EXPECT_FALSE(json::Value::parse(text, out, &err));
    EXPECT_EQ(err, want);
}

} // namespace

TEST(Json, WriteParseRoundTrip)
{
    json::Value v = json::Value::object()
                        .set("int", uint64_t(1234567890123ull))
                        .set("neg", -3.5)
                        .set("flag", true)
                        .set("none", json::Value())
                        .set("text", "line\n\"quoted\"\ttab")
                        .set("arr", json::Value::array()
                                        .push(1)
                                        .push("two")
                                        .push(false));
    std::string text = v.dump(2);

    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(text, back, &err)) << err;
    EXPECT_EQ(back.at("int").number(), 1234567890123.0);
    EXPECT_EQ(back.at("neg").number(), -3.5);
    EXPECT_TRUE(back.at("flag").boolean());
    EXPECT_TRUE(back.at("none").isNull());
    EXPECT_EQ(back.at("text").str(), "line\n\"quoted\"\ttab");
    ASSERT_EQ(back.at("arr").size(), 3u);
    EXPECT_EQ(back.at("arr").at(size_t(1)).str(), "two");
    // Canonical re-dump is stable.
    EXPECT_EQ(back.dump(2), text);
}

TEST(Json, Uint64RoundTripsExactly)
{
    // Values above 2^53 (e.g. derived seeds) must not be flattened
    // through a double on the way to disk or back.
    const uint64_t big = 10451216379200823296ull;
    json::Value v = json::Value::object().set("seed", big);
    std::string text = v.dump();
    EXPECT_NE(text.find("10451216379200823296"), std::string::npos)
        << text;

    json::Value back;
    ASSERT_TRUE(json::Value::parse(text, back, nullptr));
    EXPECT_EQ(back.at("seed").asUint64(), big);
}

TEST(Json, IntConstructionIsExact)
{
    // int-constructed non-negative numbers carry the exact-uint flag
    // just like uint64_t-constructed ones, so asUint64() never
    // detours through the double approximation.
    EXPECT_EQ(json::Value(42).dump(), "42");
    EXPECT_EQ(json::Value(42).asUint64(), 42u);
    EXPECT_EQ(json::Value(0).asUint64(), 0u);
    EXPECT_EQ(json::Value(int64_t(99)).asUint64(), 99u);
    EXPECT_EQ(json::Value(-3).dump(), "-3");
    EXPECT_EQ(json::Value(-3).number(), -3.0);
}

TEST(Json, Uint64MaxRoundTrips)
{
    const uint64_t max = UINT64_MAX;
    json::Value v = json::Value::object().set("m", max);
    std::string text = v.dump();
    EXPECT_NE(text.find("18446744073709551615"), std::string::npos)
        << text;

    json::Value back;
    ASSERT_TRUE(json::Value::parse(text, back, nullptr));
    EXPECT_EQ(back.at("m").asUint64(), max);
    // And the canonical re-dump keeps the exact digits.
    EXPECT_EQ(back.dump(), text);
}

TEST(Json, RequireReadsIntegersExactly)
{
    json::Value v;
    ASSERT_TRUE(json::Value::parse(
        R"({"u": 5, "neg": -1, "big": 1e30, "frac": 2.5, "i": -7,
            "max": 18446744073709551615, "wide": 2147483648,
            "s": "x", "n": null})",
        v, nullptr));
    uint64_t u = 0;
    unsigned w = 0;
    int i = 0;
    double d = 0;
    std::string err;
    EXPECT_TRUE(json::require(v, "u", u, &err) && u == 5u) << err;
    EXPECT_TRUE(json::require(v, "max", u, &err) && u == UINT64_MAX);
    EXPECT_TRUE(json::require(v, "i", i, &err) && i == -7) << err;
    // Negative, fractional, exponent-form and too-wide numbers are
    // refused by name instead of being cast.
    for (const char *key : {"neg", "big", "frac", "s"}) {
        EXPECT_FALSE(json::require(v, key, u, &err)) << key;
        EXPECT_EQ(err, csprintf("member '%s' is not an unsigned integer",
                                key));
    }
    EXPECT_FALSE(json::require(v, "max", w, &err));
    EXPECT_EQ(err, "member 'max' is out of range");
    EXPECT_FALSE(json::require(v, "frac", i, &err));
    EXPECT_EQ(err, "member 'frac' is not an integer");
    for (const char *key : {"big", "wide", "max"}) {
        EXPECT_FALSE(json::require(v, key, i, &err)) << key;
        EXPECT_EQ(err, csprintf("member '%s' is out of range", key));
    }
    EXPECT_TRUE(json::require(v, "u", d, &err) && d == 5.0);
    EXPECT_TRUE(json::require(v, "n", d, &err) && std::isnan(d));
    EXPECT_FALSE(json::require(v, "zz", u, &err));
    EXPECT_EQ(err, "member 'zz' is missing");
    EXPECT_FALSE(json::require(json::Value(3.0), "u", u, &err));
    EXPECT_EQ(err, "value is not an object");
}

/** A record exercising the binder's codecs and adapters. */
struct BoundRecord
{
    struct Slot
    {
        uint64_t tag = 0;
        bool valid = false;
    };
    uint64_t count = 0;
    int8_t delta = 0;
    std::string name;
    uint64_t regs[2] = {};
    std::vector<std::pair<uint64_t, uint32_t>> pairs;
    std::vector<uint8_t> image = std::vector<uint8_t>(4);
    std::vector<Slot> slots = std::vector<Slot>(3);
    unsigned geometry = 3;

    template <class Self, class F>
    static void
    fields(Self &self, F &f)
    {
        f("count", self.count);
        f("inner", json::Group{self, [](auto &s, auto &g) {
                  g("delta", s.delta);
                  g("name", s.name);
              }});
        f("regs", self.regs);
        f("pairs", self.pairs);
        f("image", json::Base64{self.image});
        f("slots", json::Slots{self.slots, [](auto &e, auto &g) {
                  g("tag", e.tag);
              }});
        f("geometry", json::Match{self.geometry});
    }
};

TEST(Json, BinderRoundTripsAndNamesPaths)
{
    BoundRecord rec;
    rec.count = 7;
    rec.delta = -2;
    rec.name = "n";
    rec.regs[1] = 9;
    rec.pairs = {{1, 2}, {3, 4}};
    rec.image[0] = 0xff;
    rec.slots[1] = {5, true};
    const std::string text = json::write(rec).dump();
    EXPECT_EQ(text, R"({"count":7,"inner":{"delta":-2,"name":"n"},)"
                    R"("regs":[0,9],"pairs":[[1,2],[3,4]],)"
                    R"("image":"/wAAAA==","slots":[{"slot":1,"tag":5}],)"
                    R"("geometry":3})");

    json::Value doc;
    ASSERT_TRUE(json::Value::parse(text, doc, nullptr));
    BoundRecord back;
    std::string err;
    ASSERT_TRUE(json::read(doc, back, &err)) << err;
    EXPECT_EQ(json::write(back).dump(), text);

    // Each refusal names the member and where it sits.
    auto refuses = [&](const char *edited, const std::string &want) {
        json::Value bad;
        ASSERT_TRUE(json::Value::parse(edited, bad, nullptr)) << edited;
        BoundRecord out;
        EXPECT_FALSE(json::read(bad, out, &err)) << edited;
        EXPECT_EQ(err, want);
    };
    refuses(R"({"inner": {}})", "member 'count' is missing");
    refuses(R"({"count": 1, "inner": {"delta": -200}})",
            "member 'delta' is out of range at inner.delta");
    refuses(R"({"count": 1, "inner": {"delta": 0, "name": ""},
                "regs": [1]})",
            "member 'regs' has 1 items, want 2");
}

TEST(Json, BinderRefusesBadItemsByPath)
{
    const std::string good = json::write(BoundRecord{}).dump();
    auto with = [&](const std::string &key, const std::string &value) {
        json::Value doc, v;
        EXPECT_TRUE(json::Value::parse(good, doc, nullptr));
        EXPECT_TRUE(json::Value::parse(value, v, nullptr)) << value;
        doc.set(key, v);
        BoundRecord out;
        std::string err;
        EXPECT_FALSE(json::read(doc, out, &err)) << key << value;
        return err;
    };
    EXPECT_EQ(with("regs", "[1, -1]"),
              "item regs[1] is not an unsigned integer");
    EXPECT_EQ(with("pairs", "[[1, 2], [3, 4294967296]]"),
              "item pairs[1][1] is out of range");
    EXPECT_EQ(with("pairs", "[[1, 2, 3]]"),
              "item pairs[0] has 3 items, want 2");
    EXPECT_EQ(with("image", "\"AAAA\""),
              "member 'image' is not base64 of 4 bytes");
    EXPECT_EQ(with("slots", "[{\"slot\": 3, \"tag\": 1}]"),
              "member 'slot' is out of range at slots[0].slot");
    EXPECT_EQ(with("slots", "[{\"slot\": 0, \"tag\": 1}, "
                            "{\"slot\": 0, \"tag\": 2}]"),
              "item slots[1] repeats a slot");
    EXPECT_EQ(with("slots", "[{\"slot\": 0}]"),
              "member 'tag' is missing at slots[0].tag");
    EXPECT_EQ(with("geometry", "4"), "member 'geometry' is 4, want 3");
}

TEST(Json, ParserRejectsMalformed)
{
    json::Value out;
    EXPECT_FALSE(json::Value::parse("{", out));
    EXPECT_FALSE(json::Value::parse("[1,]", out));
    EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing", out));
    EXPECT_FALSE(json::Value::parse("\"unterminated", out));
    EXPECT_TRUE(json::Value::parse(" [ ] ", out));
    EXPECT_TRUE(json::Value::parse("{\"u\":\"\\u0041\"}", out));
    EXPECT_EQ(out.at("u").str(), "A");
}

TEST(Json, WriterMatchesReferenceOnEdgeValues)
{
    for (const json::Value &n : edgeNumbers())
        expectMatchesReference(n);
    EXPECT_EQ(json::Value(UINT64_MAX).dump(), "18446744073709551615");
    EXPECT_EQ(json::Value(-0.0).dump(), "-0");
    EXPECT_EQ(json::Value(9007199254740992.0).dump(), "9007199254740992");
    EXPECT_EQ(json::Value(std::numeric_limits<double>::denorm_min())
                  .dump(),
              "4.9406564584124654e-324");
    EXPECT_EQ(json::Value(std::nan("")).dump(), "null");

    // Empty aggregates, empty strings and every escaped byte, as
    // values and as keys.
    std::string all;
    for (int c = 1; c < 256; ++c)
        all += static_cast<char>(c);
    json::Value doc = json::Value::object()
                          .set("", "")
                          .set("a", json::Value::array())
                          .set("o", json::Value::object())
                          .set(all, all)
                          .set("nested", json::Value::array().push(
                                             json::Value::object()));
    expectMatchesReference(doc);
    EXPECT_EQ(json::Value::object().dump(2), "{}");
    EXPECT_EQ(json::Value::array().dump(2), "[]");
}

TEST(Json, WriterMatchesReferenceOnRandomDocuments)
{
    for (uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE(seed);
        DocGen gen(seed);
        expectMatchesReference(gen.value(0));
        if (HasFatalFailure())
            return;
    }
}

TEST(Json, CommittedRecordsReserialiseIdentically)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files{fs::path(CHEX_SOURCE_DIR) /
                                "BENCHMARK.json"};
    for (const auto &e : fs::directory_iterator(CHEX_SOURCE_DIR)) {
        std::string name = e.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && e.path().extension() == ".json")
            files.push_back(e.path());
    }
    ASSERT_GE(files.size(), 5u);
    for (const fs::path &path : files) {
        SCOPED_TRACE(path.string());
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        json::Value doc;
        std::string err;
        ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
        expectMatchesReference(doc);
    }
}

TEST(Json, ParserRejectsNonRfcNumbers)
{
    expectRejected("[+5]", "json: expected value at byte 1");
    expectRejected("[01]", "json: leading zero in number at byte 2");
    expectRejected("[-01]", "json: leading zero in number at byte 3");
    expectRejected("[.5]", "json: expected value at byte 1");
    expectRejected("[1.]", "json: expected digit after '.' at byte 3");
    expectRejected("[1e]", "json: expected exponent digit at byte 3");
    expectRejected("[1e+]", "json: expected exponent digit at byte 4");
    expectRejected("[-]", "json: expected value at byte 1");
    expectRejected("[1e400]", "json: number out of range at byte 1");
    expectRejected("[-1e400]", "json: number out of range at byte 1");
    expectRejected("[-0x10]", "json: bad number at byte 3");
    expectRejected("[0x10]", "json: expected ',' or ']' at byte 2");

    // What RFC 8259 allows still parses, integers exactly.
    json::Value out;
    std::string err;
    ASSERT_TRUE(json::Value::parse(
        "[0,-0,1.5e3,2E-2,-7,18446744073709551615,18446744073709551616]",
        out, &err))
        << err;
    EXPECT_EQ(out.dump(),
              "[0,-0,1500,0.02,-7,18446744073709551615,"
              "1.8446744073709552e+19]");
    EXPECT_TRUE(out.at(size_t{5}).isExactUint());
    EXPECT_FALSE(out.at(size_t{6}).isExactUint());
}

TEST(Json, ParserRejectsDuplicateKeys)
{
    expectRejected("{\"a\":1,\"a\":2}",
                   "json: duplicate object key at byte 7");
    // Keys compare decoded, and large objects are checked too.
    expectRejected("{\"A\":1,\"\\u0041\":2}",
                   "json: duplicate object key at byte 7");
    std::string big = "{";
    for (int i = 0; i < 100; ++i)
        big += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    size_t at = big.size();
    json::Value out;
    std::string err;
    ASSERT_TRUE(json::Value::parse(big + "\"k100\":0}", out, &err)) << err;
    EXPECT_EQ(out.size(), 101u);
    expectRejected(big + "\"k57\":0}",
                   "json: duplicate object key at byte " +
                       std::to_string(at));
}

TEST(Json, ParserCapsNesting)
{
    const unsigned cap = json::kMaxDepth;
    json::Value out;
    std::string err;
    std::string ok = std::string(cap, '[') + std::string(cap, ']');
    ASSERT_TRUE(json::Value::parse(ok, out, &err)) << err;
    EXPECT_EQ(out.dump(), ok);
    std::string deeper = "[" + ok + "]";
    expectRejected(deeper, "json: nesting deeper than 512 at byte 512");
    expectRejected(std::string(100000, '[') + std::string(100000, ']'),
                   "json: nesting deeper than 512 at byte 512");
    expectRejected(std::string(cap, '[') + "{\"a\":1}" +
                       std::string(cap, ']'),
                   "json: nesting deeper than 512 at byte 512");
}

TEST(Json, ParserRejectsRawControlBytesAndBadEscapes)
{
    expectRejected("[\"a\tb\"]",
                   "json: control character in string at byte 3");
    expectRejected("[\"\\x\"]", "json: bad escape at byte 3");
    expectRejected("[\"\\u00g0\"]", "json: bad \\u escape at byte 6");
    expectRejected("[\"\\u00", "json: bad \\u escape at byte 4");
    expectRejected("[\"abc", "json: unterminated string at byte 5");
    expectRejected("[nul]", "json: bad literal at byte 1");
    expectRejected("", "json: unexpected end of input at byte 0");
    expectRejected("[1] x", "json: trailing garbage at byte 4");
}

TEST(Json, CopiesShareAndWritesDetach)
{
    const json::Value orig =
        json::Value::object()
            .set("list", json::Value::array().push("x").push(
                             json::Value::object().set("k", 1)))
            .set("name", "n");
    const std::string before = orig.dump();

    // A copy shares the payload instead of copying it.
    json::Value a = orig;
    EXPECT_EQ(&a.members(), &orig.members());

    // set and push on the copy leave the original as it was; the
    // write detaches one level, so untouched members stay shared.
    a.set("name", "changed").set("extra", true);
    EXPECT_EQ(orig.dump(), before);
    EXPECT_NE(&a.members(), &orig.members());
    EXPECT_EQ(&a.at("list").items(), &orig.at("list").items());
    json::Value list = orig.at("list");
    list.push(3);
    EXPECT_EQ(orig.at("list").size(), 2u);
    EXPECT_EQ(list.size(), 3u);

    // A write on the first side leaves the copy as it was.
    json::Value b = orig;
    json::Value c = b;
    b.set("name", "b");
    EXPECT_EQ(c.dump(), before);
    EXPECT_EQ(b.at("name").str(), "b");

    // Nested: rebuilding a copy's inner object leaves both the
    // original and every other copy of it unchanged.
    json::Value d = orig;
    json::Value inner = d.at("list").at(size_t{1});
    inner.set("k", 2);
    json::Value dlist = d.at("list");
    dlist.push(inner);
    d.set("list", dlist);
    EXPECT_EQ(d.at("list").size(), 3u);
    EXPECT_EQ(orig.dump(), before);
    EXPECT_EQ(c.dump(), before);
    EXPECT_EQ(inner.dump(), "{\"k\":2}");
    EXPECT_EQ(orig.at("list").at(size_t{1}).dump(), "{\"k\":1}");

    // Assignment shares too, and a later write detaches.
    json::Value e = json::Value::array().push(1);
    e = orig;
    EXPECT_EQ(&e.members(), &orig.members());
    e.set("name", "e");
    EXPECT_EQ(orig.dump(), before);
    e = e.at("list"); // a value its own shared subtree
    EXPECT_EQ(e.dump(), "[\"x\",{\"k\":1}]");
    EXPECT_EQ(orig.dump(), before);

    // Copies of one value made, written and dropped from 4 threads
    // at once: the count stays exact (ASan sees any early free).
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&orig, t] {
            for (int i = 0; i < 20000; ++i) {
                json::Value mine = orig;
                json::Value theirs = mine;
                if (i % 2)
                    mine.set("name", t);
                else
                    theirs = mine.at("list");
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(orig.dump(), before);
}

TEST(Json, CopiesOwnTheirPayloads)
{
    json::Value a = json::Value::object().set(
        "list", json::Value::array().push("x").push(uint64_t{7}));
    json::Value b = a;
    b.set("list", "replaced");
    EXPECT_EQ(a.at("list").size(), 2u);
    EXPECT_EQ(b.at("list").str(), "replaced");

    json::Value c = std::move(a);
    EXPECT_TRUE(a.isNull()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.at("list").at(size_t{1}).asUint64(), 7u);

    // Assigning a value its own subtree is safe.
    c = c.at("list");
    EXPECT_EQ(c.dump(), "[\"x\",7]");
    c = c.at(size_t{0});
    EXPECT_EQ(c.str(), "x");

    // Other kinds read as empty aggregates.
    EXPECT_TRUE(json::Value(3.0).items().empty());
    EXPECT_TRUE(json::Value("s").members().empty());
    EXPECT_EQ(json::Value(std::string()).str(), "");
    EXPECT_EQ(json::Value().find("k"), nullptr);
}
