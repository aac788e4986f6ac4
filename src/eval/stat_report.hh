/**
 * @file
 * The versioned lva-stats-v1 JSON export: one labelled registry
 * snapshot per sweep point, rendered byte-deterministically and
 * written under <resultsDir()>/stats/.
 */

#ifndef LVA_EVAL_STAT_REPORT_HH
#define LVA_EVAL_STAT_REPORT_HH

#include <string>
#include <vector>

#include "util/stat_registry.hh"

namespace lva {

struct PointFailure; // eval/sweep.hh

/** One sweep point's snapshot, labelled for the JSON export. */
struct NamedSnapshot
{
    std::string label;    ///< sweep-point label (config description)
    std::string workload; ///< workload name; may be empty
    StatSnapshot stats;
};

/**
 * Render the versioned stats export: schema tag, driver name, and one
 * object per sweep point. Byte-deterministic for a given input.
 */
std::string renderStatsJson(const std::string &driver,
                            const std::vector<NamedSnapshot> &snaps);

/**
 * As above, plus a "failures" section listing every point a checked
 * sweep could not complete. With @p failures empty the bytes are
 * identical to the failure-less overload, so clean runs — including
 * resumed ones — export exactly the historical shape.
 */
std::string renderStatsJson(const std::string &driver,
                            const std::vector<NamedSnapshot> &snaps,
                            const std::vector<PointFailure> &failures);

/**
 * Guard against silently truncating an export written by a different
 * schema version: if @p path exists and carries a schema tag other
 * than statsJsonSchema(), throw std::runtime_error. A missing file,
 * or one with the current tag, passes.
 */
void checkStatsFileSchema(const std::string &path);

/**
 * Write the export for @p driver to
 * "<resultsDir()>/stats/<driver>.json" (LVA_RESULTS_DIR honored).
 * Errors out — it does not truncate — when the existing file has a
 * different schema version.
 *
 * @return the path written
 */
std::string writeStatsJson(const std::string &driver,
                           const std::vector<NamedSnapshot> &snaps);

/** writeStatsJson with a "failures" section (partial sweeps). */
std::string writeStatsJson(const std::string &driver,
                           const std::vector<NamedSnapshot> &snaps,
                           const std::vector<PointFailure> &failures);

} // namespace lva

#endif // LVA_EVAL_STAT_REPORT_HH
