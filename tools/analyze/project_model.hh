/**
 * @file
 * lva_audit project model: one parsed view of the whole repository.
 *
 * lva_lint (tools/lint) judges files one at a time; every hazard it
 * hunts is visible inside a single translation unit.  The properties
 * that actually rot in this repo are *cross-file*: an eval header
 * leaking into src/mem, a stat path registered in C++ but missing
 * from docs/metrics.md, a fault site named in a CI script that no
 * faultPoint() call defines anymore, a getenv("LVA_*") knob that
 * bypasses util/env_knob.hh validation, or two mutexes acquired in
 * opposite orders by two different TUs.  Catching those needs one
 * model of the whole project, not a per-file scan.
 *
 * This header defines that model.  parseSource() lexes one file with
 * the same comment/string-stripping machinery lva_lint uses
 * (lint::stripComments) and extracts what the audit rules consume:
 *
 *   - quoted #include directives (resolved to repo-relative paths by
 *     buildModel, which also assigns layer numbers),
 *   - StatRegistry path literals (counter/gauge/histogram first
 *     arguments, joinPath leaves, `prefix + ".leaf"` concatenations,
 *     and EvalMetricDef initializer tables),
 *   - LVA_* knob literals plus whether each read flows through the
 *     validated env_knob.hh parsers,
 *   - fault-injection sites: faultPoint() definitions (exact or
 *     prefix) and `site=kind` spec references in any text,
 *   - mutex acquisition order: which locks are taken while which
 *     other locks are held, per function, with owner-qualified mutex
 *     identities so ServeStats::mutex_ and ServeLoop::mutex_ stay
 *     distinct,
 *   - the first `// lva-hot-path: begin` fence, if any.
 *
 * Suppressions use the lva_lint grammar under the "lva-audit" tag:
 * `// lva-audit: allow(<rule>)` on or above the line, or
 * begin-allow/end-allow fences.  The analyses themselves live in
 * audit.hh.
 */

#ifndef LVA_TOOLS_ANALYZE_PROJECT_MODEL_HH
#define LVA_TOOLS_ANALYZE_PROJECT_MODEL_HH

#include <string>
#include <vector>

#include "lint/lint_core.hh"

namespace lva::audit {

/** One quoted #include directive. */
struct Include
{
    std::string target;   ///< raw include text, e.g. "util/logging.hh"
    std::string resolved; ///< repo-relative path, empty if unresolved
    int line = 0;
};

/** One stat-path literal reaching a StatRegistry registration. */
struct StatLiteral
{
    std::string text; ///< the literal, e.g. "serve.requests" or "misses"
    int line = 0;
    /**
     * true when the literal is a path fragment (a joinPath() leaf or
     * a `+ ".leaf"` concatenation) that suffix-matches catalog rows
     * at segment boundaries; false for a complete dotted path.
     */
    bool fragment = false;
};

/** One LVA_* environment-knob literal in source. */
struct KnobUse
{
    std::string name; ///< e.g. "LVA_SEEDS"
    int line = 0;
    /** Literal is the direct argument of a getenv() call. */
    bool directGetenv = false;
};

/** One faultPoint() call: a defined fault site. */
struct FaultDef
{
    std::string site; ///< exact site, or prefix when prefix=true
    int line = 0;
    bool prefix = false; ///< site built as "lit." + runtime suffix
};

/** One `site=kind[:ms][@trigger]` fault-spec reference in any text. */
struct FaultRef
{
    std::string site; ///< without the trailing '*' for prefix refs
    int line = 0;
    bool prefix = false; ///< spec ended in '*'
};

/** One lock acquisition performed while another lock is held. */
struct LockEdge
{
    std::string held;     ///< owner-qualified mutex id already held
    std::string acquired; ///< owner-qualified mutex id being taken
    int line = 0;         ///< line of the acquisition
};

/** One condition_variable wait performed while other locks are held. */
struct CvWait
{
    std::string waited; ///< mutex id released by the wait
    std::string held;   ///< some *other* mutex id still held
    int line = 0;
};

/** Everything extracted from one C++ source file. */
struct SourceFile
{
    std::string path; ///< repo-relative, '/'-separated
    int layer = -1;   ///< from layerOf(); -1 = outside the layer map
    std::vector<Include> includes;
    std::vector<StatLiteral> stats;
    std::vector<KnobUse> knobs;
    std::vector<FaultDef> faultDefs;
    std::vector<FaultRef> faultRefs;
    std::vector<LockEdge> lockEdges;
    std::vector<CvWait> cvWaits;
    /** First line of the first lva-hot-path fence (lint's
     *  hotPathFenceLines()); 0 = the file has none. */
    int hotPathFence = 0;
    lint::Suppressions suppressions; ///< tag "lva-audit"
};

/** A non-C++ input (script, workflow, doc) scanned for references. */
struct TextFile
{
    std::string path;
    std::string content;
    std::vector<FaultRef> faultRefs;
};

/** The whole-project model the audit rules run against. */
struct Project
{
    std::vector<SourceFile> sources; ///< sorted by path
    std::vector<TextFile> texts;     ///< sorted by path
};

/**
 * Architectural layer of a repo-relative path (DESIGN.md §17):
 * 0 = src/util, 1 = the simulation core (core/cpu/mem/noc/sim/
 * prefetch/energy/workloads), 2 = src/eval, 3 = tools/bench/tests.
 * Returns -1 for paths outside the layered tree (docs, scripts).
 * Includes may only point sideways or *down* (toward 0).
 */
int layerOf(const std::string &path);

/** Parse one C++ file into its extracted registries. */
SourceFile parseSource(const std::string &relPath,
                       const std::string &content);

/** Scan one text file (script/doc) for fault-spec references. */
TextFile parseText(const std::string &relPath,
                   const std::string &content);

/**
 * Resolve include targets against the registered source set and sort
 * both file lists; call once after the last parseSource()/parseText().
 * Resolution tries, in order: src/<target>, tools/<target>, and
 * <including dir>/<target>.
 */
void finalizeModel(Project &project);

} // namespace lva::audit

#endif // LVA_TOOLS_ANALYZE_PROJECT_MODEL_HH
