/**
 * @file
 * lva_audit rules: cross-file analyses over the project model.
 *
 * Seven analysis families (DESIGN.md §17), each enforcing an invariant
 * that no single-file linter can see:
 *
 *   layering    include edges may only point sideways or toward
 *               lower layers (util -> sim core -> eval -> tools);
 *               back-edges and include cycles are findings
 *   stats       every StatRegistry path literal in src/ must match a
 *               docs/metrics.md catalog row, and every catalog row
 *               must be backed by a literal (the static mirror of
 *               stats_test's runtime registry self-dump gate, which
 *               alone sees exact joinPath-built paths)
 *   faults      every `site=kind` fault spec in tests/scripts/docs
 *               must name a faultPoint() that exists, and every
 *               defined site must be exercised somewhere
 *   knobs       every LVA_* literal must appear in the README knob
 *               table (and vice versa), and getenv("LVA_*") outside
 *               util/env_knob.cc must be explicitly annotated
 *   drivers     every bench/<name>.cc driver must have a row in the
 *               docs/reproducing.md driver map, and vice versa
 *   hot-path    every file with an `lva-hot-path: begin` fence under
 *               src/, tools/ or bench/ must be listed in the
 *               docs/performance.md fenced-file table, and vice versa
 *   locks       the cross-TU mutex acquisition graph must be acyclic,
 *               and no condition_variable wait may happen while a
 *               second mutex is held
 *
 * Findings reuse lint::Finding and the lva_lint ergonomics: stable
 * rule ids, `// lva-audit: allow(<rule>)` suppressions, and a
 * committed baseline file (rule<TAB>file<TAB>key per line) for
 * grandfathered hits — where stale entries are themselves findings,
 * so the baseline can only shrink.
 */

#ifndef LVA_TOOLS_ANALYZE_AUDIT_HH
#define LVA_TOOLS_ANALYZE_AUDIT_HH

#include <set>
#include <string>
#include <vector>

#include "analyze/project_model.hh"
#include "lint/lint_core.hh"

namespace lva::audit {

/** Rule ids (named constants so tests cannot typo them). */
inline constexpr char kLayerBackEdge[] = "layer-back-edge";
inline constexpr char kLayerCycle[] = "layer-cycle";
inline constexpr char kStatUndocumented[] = "stat-undocumented";
inline constexpr char kStatStaleDoc[] = "stat-stale-doc";
inline constexpr char kFaultUnknownSite[] = "fault-unknown-site";
inline constexpr char kFaultOrphanSite[] = "fault-orphan-site";
inline constexpr char kKnobUndocumented[] = "knob-undocumented";
inline constexpr char kKnobStaleDoc[] = "knob-stale-doc";
inline constexpr char kKnobUnvalidated[] = "knob-unvalidated";
inline constexpr char kDriverUndocumented[] = "driver-undocumented";
inline constexpr char kDriverStaleDoc[] = "driver-stale-doc";
inline constexpr char kHotPathUndocumented[] = "hotpath-undocumented";
inline constexpr char kHotPathStaleDoc[] = "hotpath-stale-doc";
inline constexpr char kLockCycle[] = "lock-cycle";
inline constexpr char kLockWaitHeld[] = "lock-wait-held";
inline constexpr char kStaleBaseline[] = "stale-baseline";

/** One first-cell `code` entry of a doc table row. */
struct DocRow
{
    std::string text;
    int line = 0; ///< 1-based line in the doc
};

/**
 * The first-cell `code` entries of the markdown table rows between
 * `<!-- <marker>:begin -->` and `<!-- <marker>:end -->` in @p content;
 * empty when the markers are absent.  The repo's one doc-table
 * reader, behind the audit's doc rules and tableDrift().
 */
std::vector<DocRow> tableRows(const std::string &content,
                              const std::string &marker);

/**
 * The gtest doc gates' comparison: "" when @p code lists exactly the
 * entries of the @p marker table in the file @p docPath, otherwise
 * one line per undocumented entry or stale row.
 */
std::string tableDrift(const std::set<std::string> &code,
                       const std::string &docPath,
                       const std::string &marker);

/** thread7 / core12 / bank3 / worker0 -> thread<N> etc (the
 *  metric catalog's form). */
std::string normalizeIndices(const std::string &path);

/** The audit rule catalog (includes lint's bad-allow-fence). */
const std::vector<lint::RuleInfo> &auditRuleCatalog();

/** One grandfathered finding: rule<TAB>file<TAB>key. */
struct BaselineEntry
{
    std::string rule;
    std::string file;
    std::string key;
    int line = 0;      ///< line in the baseline file
    bool used = false; ///< matched at least one finding this run
};

struct Baseline
{
    std::string path; ///< repo-relative baseline file path
    std::vector<BaselineEntry> entries;
};

/** Parse a baseline file ('#' comments and blank lines ignored). */
Baseline parseBaseline(const std::string &relPath,
                       const std::string &content);

/**
 * Run every audit rule over @p project.  Findings suppressed by an
 * in-source `lva-audit: allow()` or matched by @p baseline are
 * dropped; unused baseline entries surface as stale-baseline
 * findings.  Results are sorted by (file, line, rule).
 */
std::vector<lint::Finding> runAudit(const Project &project,
                                    Baseline *baseline = nullptr);

} // namespace lva::audit

#endif // LVA_TOOLS_ANALYZE_AUDIT_HH
