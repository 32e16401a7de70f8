/**
 * @file
 * Tests for the generic perf-record diff behind bench-compare
 * (tools/bench_diff.hh), run against the committed BENCH_*.json
 * records: a record is clean against itself; any deterministic
 * drift — a changed count at any depth, an added or removed member
 * or row, a changed schema tag — is fatal and names its JSON path;
 * a `*PerSecond` drop only warns; `bestWallSeconds` is ignored.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "base/json.hh"
#include "bench_diff.hh"

namespace chex
{
namespace
{

const char *const Records[] = {
    "BENCH_throughput.json",
    "BENCH_capscale.json",
    "BENCH_aliasscale.json",
    "BENCH_security.json",
};

std::string
readRecord(const std::string &name)
{
    std::ifstream in(std::string(CHEX_SOURCE_DIR) + "/" + name);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

json::Value
parse(const std::string &text)
{
    json::Value doc;
    std::string err;
    EXPECT_TRUE(json::Value::parse(text, doc, &err)) << err;
    return doc;
}

/** @p text with the first @p from replaced by @p to. */
std::string
replaceFirst(std::string text, const std::string &from,
             const std::string &to)
{
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text
                                   : text.replace(at, from.size(), to);
}

/** @p obj without its member @p key. */
json::Value
without(const json::Value &obj, const std::string &key)
{
    json::Value out = json::Value::object();
    for (const auto &[k, v] : obj.members())
        if (k != key)
            out.set(k, v);
    return out;
}

/** True when @p diff has exactly one fatal line, naming @p path. */
::testing::AssertionResult
fatalAt(const bench::RecordDiff &diff, const std::string &path)
{
    if (diff.fatal.size() != 1)
        return ::testing::AssertionFailure()
               << diff.fatal.size() << " fatal lines";
    if (diff.fatal[0].rfind(path + ":", 0) != 0)
        return ::testing::AssertionFailure() << diff.fatal[0];
    return ::testing::AssertionSuccess();
}

TEST(BenchCompare, CommittedRecordsMatchThemselves)
{
    for (const char *name : Records) {
        SCOPED_TRACE(name);
        json::Value doc = parse(readRecord(name));
        ASSERT_TRUE(doc.isObject());
        bench::RecordDiff diff = bench::diffRecords(doc, doc);
        EXPECT_TRUE(diff.fatal.empty()) << diff.fatal[0];
        EXPECT_TRUE(diff.warnings.empty());
    }
}

TEST(BenchCompare, ChangedCountAtAnyDepthIsFatalByPath)
{
    struct Case
    {
        const char *record, *from, *to, *path;
    };
    const Case cases[] = {
        {"BENCH_capscale.json", R"("churnOps": 2000000)",
         R"("churnOps": 2000001)", "churnOps"},
        {"BENCH_throughput.json", R"("cycles": 449997)",
         R"("cycles": 449998)", "variants[1].cycles"},
        {"BENCH_aliasscale.json", R"("checksum": 181533259270254814)",
         R"("checksum": 181533259270254815)", "rows[1].checksum"},
        {"BENCH_security.json", R"("double-free": 27)",
         R"("double-free": 26)", "variants[0].byClass.double-free"},
        {"BENCH_security.json", R"("validityRate": 1)",
         R"("validityRate": 0.99)", "baseline.validityRate"},
        {"BENCH_throughput.json", R"("variant": "ASan")",
         R"("variant": "asan")", "variants[5].variant"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.path);
        std::string text = readRecord(c.record);
        bench::RecordDiff diff = bench::diffRecords(
            parse(text), parse(replaceFirst(text, c.from, c.to)));
        EXPECT_TRUE(fatalAt(diff, c.path));
        EXPECT_TRUE(diff.warnings.empty());
    }
}

TEST(BenchCompare, AddedOrRemovedMemberOrRowIsFatal)
{
    json::Value base = parse(readRecord("BENCH_capscale.json"));
    const json::Value &rows = base.at("rows");

    json::Value added = base;
    added.set("extra", 1);
    EXPECT_TRUE(fatalAt(bench::diffRecords(base, added), "extra"));
    EXPECT_TRUE(fatalAt(bench::diffRecords(added, base), "extra"));

    json::Value fewer_rows = json::Value::array();
    json::Value trimmed_row = json::Value::array();
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i + 1 < rows.size())
            fewer_rows.push(rows.at(i));
        trimmed_row.push(i == 2 ? without(rows.at(i), "checksum")
                                : rows.at(i));
    }
    json::Value removed_row = base;
    removed_row.set("rows", fewer_rows);
    EXPECT_TRUE(fatalAt(bench::diffRecords(base, removed_row), "rows"));
    EXPECT_TRUE(fatalAt(bench::diffRecords(removed_row, base), "rows"));

    json::Value removed_member = base;
    removed_member.set("rows", trimmed_row);
    EXPECT_TRUE(fatalAt(bench::diffRecords(base, removed_member),
                        "rows[2].checksum"));
    EXPECT_TRUE(fatalAt(bench::diffRecords(removed_member, base),
                        "rows[2].checksum"));

    json::Value security = parse(readRecord("BENCH_security.json"));
    json::Value escaped = security;
    escaped.set("escaped", json::Value::array().push("gen/uaf#3"));
    EXPECT_TRUE(fatalAt(bench::diffRecords(security, escaped), "escaped"));
}

TEST(BenchCompare, ChangedSchemaTagIsFatal)
{
    std::string text = readRecord("BENCH_throughput.json");
    bench::RecordDiff diff = bench::diffRecords(
        parse(text), parse(replaceFirst(text, "chex-bench-throughput-v1",
                                        "chex-bench-throughput-v2")));
    EXPECT_TRUE(fatalAt(diff, "schema"));

    // Two different records never compare, whatever their contents.
    diff = bench::diffRecords(parse(text),
                              parse(readRecord("BENCH_capscale.json")));
    EXPECT_TRUE(fatalAt(diff, "schema"));
}

TEST(BenchCompare, HalvedRateWarnsAndStaysClean)
{
    std::string text = readRecord("BENCH_throughput.json");
    bench::RecordDiff diff = bench::diffRecords(
        parse(text),
        parse(replaceFirst(text, R"("uopsPerSecond": 18510340.666108407)",
                           R"("uopsPerSecond": 9255170.333054203)")));
    EXPECT_TRUE(diff.fatal.empty());
    ASSERT_EQ(diff.warnings.size(), 1u);
    EXPECT_EQ(diff.warnings[0].rfind("variants[0].uopsPerSecond:", 0), 0u)
        << diff.warnings[0];

    // A rate within the tolerance, or a faster one, says nothing.
    for (const char *rate : {R"("uopsPerSecond": 15000000)",
                             R"("uopsPerSecond": 99999999)"}) {
        diff = bench::diffRecords(
            parse(text),
            parse(replaceFirst(
                text, R"("uopsPerSecond": 18510340.666108407)", rate)));
        EXPECT_TRUE(diff.fatal.empty());
        EXPECT_TRUE(diff.warnings.empty()) << rate;
    }
}

TEST(BenchCompare, BestWallSecondsIsIgnored)
{
    std::string text = readRecord("BENCH_aliasscale.json");
    bench::RecordDiff diff = bench::diffRecords(
        parse(text),
        parse(replaceFirst(text, R"("bestWallSeconds": 0.11319927)",
                           R"("bestWallSeconds": 99.5)")));
    EXPECT_TRUE(diff.fatal.empty());
    EXPECT_TRUE(diff.warnings.empty());
}

} // namespace
} // namespace chex
