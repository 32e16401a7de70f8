/**
 * @file
 * The generic perf-record diff behind `bench-compare`: one rule for
 * every committed benchmark document (BENCH_throughput.json,
 * BENCH_capscale.json, BENCH_aliasscale.json, BENCH_security.json),
 * whatever its schema.
 *
 *  - The `schema` tags must match, or nothing else is compared.
 *  - `bestWallSeconds` is ignored: host wall clock.
 *  - A member whose key ends in `PerSecond` is a host rate: a drop
 *    of more than RateTolerance is a warning, never fatal, since a
 *    shared CI runner cannot gate on wall clock.
 *  - Every other leaf, every object member and every array length
 *    must match exactly. These are deterministic functions of the
 *    record's inputs and seed, so any drift is fatal and names its
 *    JSON path (e.g. `variants[2].cycles`).
 */

#ifndef CHEX_TOOLS_BENCH_DIFF_HH
#define CHEX_TOOLS_BENCH_DIFF_HH

#include <string>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"

namespace chex
{
namespace bench
{

/** A `*PerSecond` rate that drops by more than this fraction warns. */
constexpr double RateTolerance = 0.25;

struct RecordDiff
{
    std::vector<std::string> fatal;
    std::vector<std::string> warnings;
};

inline std::string
memberPath(const std::string &path, const std::string &key)
{
    return path.empty() ? key : path + "." + key;
}

inline bool
isRate(const std::string &key)
{
    const std::string suffix = "PerSecond";
    return key.size() >= suffix.size() &&
           key.compare(key.size() - suffix.size(), suffix.size(),
                       suffix) == 0;
}

inline void
diffValue(const std::string &path, const json::Value &b,
          const json::Value &n, RecordDiff &out)
{
    if (b.kind() != n.kind()) {
        out.fatal.push_back(path + ": " + b.dump() + " -> " + n.dump());
    } else if (b.isObject()) {
        for (const auto &[key, bv] : b.members()) {
            std::string at = memberPath(path, key);
            const json::Value *nv = n.find(key);
            if (!nv) {
                out.fatal.push_back(at + ": removed");
            } else if (key == "bestWallSeconds") {
                // Host wall clock: never compared.
            } else if (isRate(key) && bv.isNumber() && nv->isNumber()) {
                double was = bv.number(), now = nv->number();
                if (now < was * (1.0 - RateTolerance))
                    out.warnings.push_back(
                        csprintf("%s: dropped %.0f -> %.0f (-%.1f%%)",
                                 at.c_str(), was, now,
                                 100.0 * (1.0 - now / was)));
            } else {
                diffValue(at, bv, *nv, out);
            }
        }
        for (const auto &[key, nv] : n.members())
            if (!b.find(key))
                out.fatal.push_back(memberPath(path, key) + ": added");
    } else if (b.isArray()) {
        if (b.size() != n.size()) {
            out.fatal.push_back(csprintf("%s: %zu -> %zu elements",
                                         path.c_str(), b.size(),
                                         n.size()));
            return;
        }
        for (size_t i = 0; i < b.size(); ++i)
            diffValue(csprintf("%s[%zu]", path.c_str(), i), b.at(i),
                      n.at(i), out);
    } else if (b.dump() != n.dump()) {
        out.fatal.push_back(path + ": " + b.dump() + " -> " + n.dump());
    }
}

/** Diff two benchmark documents under the rule in the file comment. */
inline RecordDiff
diffRecords(const json::Value &base, const json::Value &fresh)
{
    RecordDiff out;
    std::string b, n, err;
    if (!json::require(base, "schema", b, &err) ||
        !json::require(fresh, "schema", n, &err))
        out.fatal.push_back(err == "value is not an object"
                                ? "record is not an object"
                                : "record: " + err);
    else if (b.empty() || b != n)
        out.fatal.push_back("schema: '" + b + "' -> '" + n + "'");
    else
        diffValue("", base, fresh, out);
    return out;
}

} // namespace bench
} // namespace chex

#endif // CHEX_TOOLS_BENCH_DIFF_HH
