/**
 * @file
 * Perf-record comparator for CI: `bench-compare BASELINE NEW` diffs
 * two benchmark documents of the same schema with the generic rule
 * in bench_diff.hh — deterministic counts must match exactly (fatal,
 * by JSON path), `*PerSecond` host rates only warn when they drop
 * past 25%, and `bestWallSeconds` is ignored.
 *
 * Exit status: 0 on match (warnings included), 1 on fatal drift or
 * unreadable inputs.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "base/json.hh"
#include "bench_diff.hh"

namespace
{

bool
readDoc(const char *path, chex::json::Value &doc)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench-compare: cannot open %s\n", path);
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string err;
    if (!chex::json::Value::parse(ss.str(), doc, &err)) {
        std::fprintf(stderr, "bench-compare: %s: %s\n", path,
                     err.c_str());
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: bench-compare BASELINE.json NEW.json\n");
        return 1;
    }
    chex::json::Value base_doc, new_doc;
    if (!readDoc(argv[1], base_doc) || !readDoc(argv[2], new_doc))
        return 1;

    chex::bench::RecordDiff diff =
        chex::bench::diffRecords(base_doc, new_doc);
    for (const std::string &w : diff.warnings)
        std::fprintf(stderr, "WARNING: %s\n", w.c_str());
    for (const std::string &f : diff.fatal)
        std::fprintf(stderr, "FATAL: %s\n", f.c_str());
    if (!diff.fatal.empty())
        return 1;
    std::fprintf(stderr,
                 "bench-compare: %s: deterministic fields match "
                 "(%zu wall-clock warning(s))\n",
                 base_doc.at("schema").str().c_str(),
                 diff.warnings.size());
    return 0;
}
