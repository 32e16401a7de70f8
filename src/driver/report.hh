/**
 * @file
 * Campaign-report serialization: CampaignReport → JSON (schema
 * "chex-campaign-report-v6", described in DESIGN.md §8) and back.
 * Each record (violation, RunResult, job row, summary) declares its
 * members once as a json.hh field list that drives both directions.
 * The RunResult list is also what single runs use to emit
 * structured stats and what fork-isolated workers stream to the
 * campaign parent; the fromJson direction is how cache sources and
 * report consumers (the merge subcommand, diff tools) load v6
 * files. Reports are regenerated, never stored across versions, so
 * no other tag parses.
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

/**
 * The field list of a RunResult (json.hh record binder): the
 * `result` object of report rows and of worker payloads.
 */
template <class R, class F>
void runFields(R &r, F &f);

/** Every RunResult field as a flat JSON object. */
json::Value toJson(const RunResult &r);

/** One job row; includes the RunResult unless the job failed. */
json::Value toJson(const JobResult &jr);

/** The whole campaign: schema tag, summary block, per-job array. */
json::Value toJson(const CampaignReport &report);

/** Pretty-print the campaign report JSON to @p os (with newline). */
void writeReport(const CampaignReport &report, std::ostream &os);

/**
 * @{ @name JSON → struct (the parse direction)
 *
 * Rebuild a report from a parsed document. The schema tag must be
 * chex-campaign-report-v6 and every member the writer emits is
 * required with its kind and range; a row's `attack` is read when
 * present, and its `status` ("ok", "failed" or "skipped") decides
 * whether `result` or `error`/`cause`/`exitCode`/`signal` follow.
 * Unknown members are ignored. Returns false and fills @p err (if
 * non-null) naming the first member that is missing, mistyped or
 * out of range, with its path.
 */
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
