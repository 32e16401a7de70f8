/**
 * @file
 * Campaign-report serialization: RunResult, JobResult, and
 * CampaignReport → JSON (schema "chex-campaign-report-v6", described
 * in DESIGN.md §8) and back. The RunResult serializer is also what
 * single runs use to emit structured stats next to
 * System::dumpStatsJson, and the fromJson direction is how
 * fork-isolated workers stream results to the campaign parent and
 * how cache sources and report consumers (the merge subcommand,
 * diff tools) load v6 files. Reports are regenerated, never stored
 * across versions, so no other tag parses.
 */

#ifndef CHEX_DRIVER_REPORT_HH
#define CHEX_DRIVER_REPORT_HH

#include <ostream>

#include "base/json.hh"
#include "driver/campaign.hh"

namespace chex
{
namespace driver
{

/** Every RunResult field as a flat JSON object. */
json::Value toJson(const RunResult &r);

/** One violation record as {kind, pc, addr, pid}. */
json::Value toJson(const ViolationRecord &v);

/** One job outcome; includes the RunResult unless the job failed. */
json::Value toJson(const JobResult &jr);

/** The whole campaign: schema tag, summary block, per-job array. */
json::Value toJson(const CampaignReport &report);

/** Pretty-print the campaign report JSON to @p os (with newline). */
void writeReport(const CampaignReport &report, std::ostream &os);

/**
 * @{ @name JSON → struct (the parse direction)
 *
 * Rebuild the structs from parsed report documents. The schema tag
 * must be chex-campaign-report-v6, and the members v6 always writes
 * are required: the `shard` block, each job's `specHash`, `cached`,
 * `fromSnapshot` and `status` ("ok", "failed" or "skipped"), and a
 * failed job's `cause`, `exitCode` and `signal`. Unknown members are
 * ignored. Returns false and fills @p err (if non-null) when @p v is
 * structurally wrong: not an object, a bad schema tag, a required
 * member missing or mistyped (@p err names it), jobs not an array.
 */
bool fromJson(const json::Value &v, RunResult &out,
              std::string *err = nullptr);
bool fromJson(const json::Value &v, ViolationRecord &out,
              std::string *err = nullptr);
bool fromJson(const json::Value &v, JobResult &out,
              std::string *err = nullptr);
bool fromJson(const json::Value &v, CampaignReport &out,
              std::string *err = nullptr);
/** @} */

/**
 * Read + parse a report file in one step (the common prologue of
 * every report consumer: the CLI's --cache and merge inputs, the
 * bench harnesses' CHEX_BENCH_CACHE). Returns false and fills
 * @p err (if non-null) when the file is unreadable or not a
 * campaign report; the *policy* for that (hard error vs warn and
 * skip) stays with the caller.
 */
bool loadReportFile(const std::string &path, CampaignReport &out,
                    std::string *err = nullptr);

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_REPORT_HH
