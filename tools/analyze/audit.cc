#include "analyze/audit.hh"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace lva::audit {
namespace {

/** A finding plus its baseline key (stable across line churn). */
struct Hit
{
    lint::Finding finding;
    std::string key;
};

/**
 * Collector that resolves suppressions and baseline entries at emit
 * time, so individual rule passes stay simple.
 */
struct Sink
{
    const Project &project;
    Baseline *baseline;
    std::vector<lint::Finding> out;

    const SourceFile *
    sourceOf(const std::string &path) const
    {
        for (const SourceFile &f : project.sources)
            if (f.path == path)
                return &f;
        return nullptr;
    }

    void
    emit(const std::string &file, int line, const char *rule,
         const std::string &key, std::string message)
    {
        if (const SourceFile *src = sourceOf(file))
            if (src->suppressions.allows(line, rule))
                return;
        if (baseline) {
            for (BaselineEntry &e : baseline->entries) {
                if (e.rule == rule && e.file == file && e.key == key) {
                    e.used = true;
                    return;
                }
            }
        }
        out.push_back({file, line, rule, std::move(message)});
    }
};

// ---------------------------------------------------------------------
// Doc tables: the marker-delimited tables the doc rules compare.
// ---------------------------------------------------------------------

/**
 * tableRows() of the loaded doc whose path ends in @p pathSuffix,
 * whose path lands in @p docPath; both stay empty when it is absent.
 */
std::vector<DocRow>
docTable(const Project &project, const std::string &pathSuffix,
         const std::string &marker, std::string &docPath)
{
    for (const TextFile &t : project.texts) {
        if (t.path.size() >= pathSuffix.size() &&
            t.path.compare(t.path.size() - pathSuffix.size(),
                           pathSuffix.size(), pathSuffix) == 0) {
            docPath = t.path;
            return tableRows(t.content, marker);
        }
    }
    return {};
}

/** One entry a doc table must list, and where to report it. */
struct Listed
{
    std::string name; ///< the doc table's first-cell entry
    const SourceFile *file;
    int line;
};

/**
 * Two-way check of a list against a doc table: every listed entry
 * needs a row and every row an entry.  Skipped when the doc is not
 * part of the project, so fixture trees only carry the docs they
 * exercise.
 */
void
auditDocList(const Project &project, Sink &sink,
             const std::string &docSuffix, const std::string &marker,
             const std::vector<Listed> &listed, const char *undocRule,
             const char *staleRule, const std::string &what)
{
    std::string docPath;
    const std::vector<DocRow> rows =
        docTable(project, docSuffix, marker, docPath);
    if (docPath.empty())
        return;

    std::set<std::string> documented, present;
    for (const DocRow &r : rows)
        documented.insert(r.text);
    for (const Listed &l : listed) {
        present.insert(l.name);
        if (!documented.count(l.name))
            sink.emit(l.file->path, l.line, undocRule, l.name,
                      what + " " + l.name + " has no row in the " +
                          marker + " table of " + docPath);
    }
    for (const DocRow &r : rows)
        if (!present.count(r.text))
            sink.emit(docPath, r.line, staleRule, r.text,
                      docPath + " lists " + what + " " + r.text +
                          " that the tree does not have; stale "
                          "documentation");
}

// ---------------------------------------------------------------------
// 1. Include layering.
// ---------------------------------------------------------------------

void
auditLayering(const Project &project, Sink &sink)
{
    static const char *layerName[] = {"src/util", "sim core",
                                      "src/eval", "tools/bench/tests"};
    // Back-edges: an include pointing at a strictly higher layer.
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < project.sources.size(); ++i)
        index[project.sources[i].path] = i;

    for (const SourceFile &f : project.sources) {
        if (f.layer < 0)
            continue;
        for (const Include &inc : f.includes) {
            if (inc.resolved.empty())
                continue;
            const int to = layerOf(inc.resolved);
            if (to > f.layer) {
                sink.emit(
                    f.path, inc.line, kLayerBackEdge, inc.resolved,
                    std::string("layering back-edge: ") +
                        layerName[f.layer] + " (layer " +
                        std::to_string(f.layer) + ") includes '" +
                        inc.resolved + "' from " + layerName[to] +
                        " (layer " + std::to_string(to) +
                        "); includes may only point sideways or "
                        "toward src/util");
            }
        }
    }

    // Include cycles at file granularity (iterative DFS over the
    // resolved include graph; guards make cycles compile, so only
    // this audit sees them).
    const std::size_t n = project.sources.size();
    std::vector<int> state(n, 0); // 0 new, 1 on stack, 2 done
    std::vector<std::size_t> stack, path;
    std::set<std::string> reported;
    for (std::size_t root = 0; root < n; ++root) {
        if (state[root])
            continue;
        // (node, next-edge) explicit DFS to avoid deep recursion.
        std::vector<std::pair<std::size_t, std::size_t>> work;
        work.push_back({root, 0});
        state[root] = 1;
        path.push_back(root);
        while (!work.empty()) {
            auto &[node, edge] = work.back();
            const SourceFile &f = project.sources[node];
            if (edge >= f.includes.size()) {
                state[node] = 2;
                path.pop_back();
                work.pop_back();
                continue;
            }
            const Include &inc = f.includes[edge++];
            if (inc.resolved.empty())
                continue;
            const auto it = index.find(inc.resolved);
            if (it == index.end())
                continue;
            const std::size_t to = it->second;
            if (state[to] == 1) {
                // Found a cycle: path from `to` to `node`.
                std::vector<std::string> members;
                bool in = false;
                for (std::size_t p : path) {
                    if (p == to)
                        in = true;
                    if (in)
                        members.push_back(project.sources[p].path);
                }
                std::string key;
                std::vector<std::string> sorted = members;
                std::sort(sorted.begin(), sorted.end());
                for (const std::string &m : sorted)
                    key += (key.empty() ? "" : "|") + m;
                if (reported.insert(key).second) {
                    std::string chain;
                    for (const std::string &m : members)
                        chain += (chain.empty() ? "" : " -> ") + m;
                    chain += " -> " + inc.resolved;
                    sink.emit(f.path, inc.line, kLayerCycle, key,
                              "include cycle: " + chain);
                }
            } else if (state[to] == 0) {
                state[to] = 1;
                path.push_back(to);
                work.push_back({to, 0});
            }
        }
    }
    (void)stack;
}

// ---------------------------------------------------------------------
// 2. Stat-path conformance.
// ---------------------------------------------------------------------

bool
statMatches(const std::string &row, const StatLiteral &lit)
{
    if (!lit.fragment)
        return row == normalizeIndices(lit.text);
    if (lit.text.empty())
        return false;
    if (lit.text[0] == '.') // "+ \".leaf\"" concatenation
        return row.size() > lit.text.size() &&
               row.compare(row.size() - lit.text.size(),
                           lit.text.size(), lit.text) == 0;
    // joinPath leaf: match a whole trailing segment (or the row).
    if (row == lit.text)
        return true;
    const std::string dotted = "." + lit.text;
    return row.size() > dotted.size() &&
           row.compare(row.size() - dotted.size(), dotted.size(),
                       dotted) == 0;
}

void
auditStats(const Project &project, Sink &sink)
{
    std::string docPath;
    const std::vector<DocRow> rows =
        docTable(project, "docs/metrics.md", "catalog", docPath);
    if (rows.empty())
        return; // no catalog to audit against (e.g. bare fixture)

    std::vector<bool> rowUsed(rows.size(), false);
    for (const SourceFile &f : project.sources) {
        if (f.path.rfind("src/", 0) != 0)
            continue;
        for (const StatLiteral &lit : f.stats) {
            bool matched = false;
            for (std::size_t i = 0; i < rows.size(); ++i) {
                if (statMatches(rows[i].text, lit)) {
                    rowUsed[i] = true;
                    matched = true;
                }
            }
            if (!matched) {
                sink.emit(f.path, lit.line, kStatUndocumented,
                          lit.text,
                          "stat path " +
                              std::string(lit.fragment ? "fragment '"
                                                       : "'") +
                              lit.text +
                              "' matches no row of the metric "
                              "catalog in " +
                              docPath + "; document it");
            }
        }
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (!rowUsed[i])
            sink.emit(docPath, rows[i].line, kStatStaleDoc,
                      rows[i].text,
                      "catalog row '" + rows[i].text +
                          "' is backed by no stat registration "
                          "literal in src/; stale documentation");
    }
}

// ---------------------------------------------------------------------
// 3. Fault-site registry.
// ---------------------------------------------------------------------

bool
faultMatches(const FaultDef &def, const FaultRef &ref)
{
    if (!def.prefix && !ref.prefix)
        return def.site == ref.site;
    if (def.prefix && !ref.prefix)
        return ref.site.rfind(def.site, 0) == 0;
    if (!def.prefix && ref.prefix)
        return def.site.rfind(ref.site, 0) == 0;
    return def.site.rfind(ref.site, 0) == 0 ||
           ref.site.rfind(def.site, 0) == 0;
}

void
auditFaults(const Project &project, Sink &sink)
{
    struct DefAt
    {
        const SourceFile *file;
        const FaultDef *def;
        bool used = false;
    };
    struct RefAt
    {
        std::string path;
        const FaultRef *ref;
        bool known = false;
    };
    std::vector<DefAt> defs;
    std::vector<RefAt> refs;
    for (const SourceFile &f : project.sources) {
        // Tests define throwaway sites (faultPoint("p")) to exercise
        // the injection machinery itself; only production definitions
        // need an external consumer.
        if (f.path.rfind("tests/", 0) != 0)
            for (const FaultDef &d : f.faultDefs)
                defs.push_back({&f, &d});
        for (const FaultRef &r : f.faultRefs)
            refs.push_back({f.path, &r});
    }
    for (const TextFile &t : project.texts)
        for (const FaultRef &r : t.faultRefs)
            refs.push_back({t.path, &r});

    for (RefAt &r : refs)
        for (DefAt &d : defs)
            if (faultMatches(*d.def, *r.ref)) {
                r.known = true;
                d.used = true;
            }

    for (const RefAt &r : refs) {
        if (r.known)
            continue;
        const std::string spec =
            r.ref->site + (r.ref->prefix ? "*" : "");
        sink.emit(r.path, r.ref->line, kFaultUnknownSite, spec,
                  "fault spec arms site '" + spec +
                      "' but no faultPoint() defines it; the "
                      "injection would silently never fire");
    }
    for (const DefAt &d : defs) {
        if (d.used)
            continue;
        sink.emit(d.file->path, d.def->line, kFaultOrphanSite,
                  d.def->site,
                  "fault site '" + d.def->site +
                      (d.def->prefix ? "...'" : "'") +
                      " is defined here but no test, script or doc "
                      "ever arms it; dead injection point");
    }
}

// ---------------------------------------------------------------------
// 4. Knob audit.
// ---------------------------------------------------------------------

bool
knobScope(const std::string &path)
{
    return path.rfind("src/", 0) == 0 ||
           path.rfind("tools/", 0) == 0 ||
           path.rfind("bench/", 0) == 0;
}

void
auditKnobs(const Project &project, Sink &sink)
{
    std::vector<Listed> uses;
    for (const SourceFile &f : project.sources) {
        if (!knobScope(f.path))
            continue;
        for (const KnobUse &k : f.knobs) {
            uses.push_back({k.name, &f, k.line});
            if (k.directGetenv &&
                f.path != "src/util/env_knob.cc") {
                sink.emit(
                    f.path, k.line, kKnobUnvalidated, k.name,
                    "direct getenv(\"" + k.name +
                        "\") bypasses util/env_knob.hh validation; "
                        "use envKnobU64/envKnobF64, or annotate a "
                        "string-valued knob with lva-audit: "
                        "allow(knob-unvalidated)");
            }
        }
    }
    auditDocList(project, sink, "README.md", "knobs", uses,
                 kKnobUndocumented, kKnobStaleDoc, "environment knob");
}

// ---------------------------------------------------------------------
// 5. Bench drivers and hot-path fences.
// ---------------------------------------------------------------------

void
auditDocLists(const Project &project, Sink &sink)
{
    std::vector<Listed> drivers, fenced;
    for (const SourceFile &f : project.sources) {
        // One driver per bench/<name>.cc; subdirectories hold helpers.
        const std::string &p = f.path;
        if (p.rfind("bench/", 0) == 0 &&
            p.find('/', 6) == std::string::npos && p.size() > 9 &&
            p.compare(p.size() - 3, 3, ".cc") == 0)
            drivers.push_back({p.substr(6, p.size() - 9), &f, 1});
        if (knobScope(p) && f.hotPathFence > 0)
            fenced.push_back({p, &f, f.hotPathFence});
    }
    auditDocList(project, sink, "docs/reproducing.md", "drivers",
                 drivers, kDriverUndocumented, kDriverStaleDoc,
                 "bench driver");
    auditDocList(project, sink, "docs/performance.md", "hotpath",
                 fenced, kHotPathUndocumented, kHotPathStaleDoc,
                 "hot-path fenced file");
}

// ---------------------------------------------------------------------
// 6. Lock-order graph.
// ---------------------------------------------------------------------

void
auditLocks(const Project &project, Sink &sink)
{
    struct Edge
    {
        std::string file;
        int line;
    };
    // (held -> acquired) with the first site that created the edge.
    std::map<std::pair<std::string, std::string>, Edge> edges;
    for (const SourceFile &f : project.sources) {
        for (const LockEdge &e : f.lockEdges)
            edges.emplace(std::make_pair(e.held, e.acquired),
                          Edge{f.path, e.line});
        for (const CvWait &w : f.cvWaits) {
            sink.emit(f.path, w.line, kLockWaitHeld,
                      w.waited + "<-" + w.held,
                      "condition_variable wait on " + w.waited +
                          " while still holding " + w.held +
                          "; the notifier can deadlock against this "
                          "thread");
        }
    }

    // Cycle detection over the mutex graph (DFS with colors).
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto &[pair, at] : edges)
        adj[pair.first].push_back(pair.second);
    std::map<std::string, int> color;
    std::set<std::string> reported;

    std::vector<std::string> path;
    std::function<void(const std::string &)> dfs =
        [&](const std::string &node) {
            color[node] = 1;
            path.push_back(node);
            for (const std::string &next : adj[node]) {
                if (color[next] == 1) {
                    std::vector<std::string> members;
                    bool in = false;
                    for (const std::string &p : path) {
                        if (p == next)
                            in = true;
                        if (in)
                            members.push_back(p);
                    }
                    std::vector<std::string> sorted = members;
                    std::sort(sorted.begin(), sorted.end());
                    std::string key;
                    for (const std::string &m : sorted)
                        key += (key.empty() ? "" : "|") + m;
                    if (reported.insert(key).second) {
                        std::string chain;
                        for (const std::string &m : members)
                            chain += (chain.empty() ? "" : " -> ") + m;
                        chain += " -> " + next;
                        const Edge &at =
                            edges.at({path.back(), next});
                        sink.emit(at.file, at.line, kLockCycle, key,
                                  "lock-order cycle: " + chain +
                                      "; two threads taking these "
                                      "in opposite order deadlock");
                    }
                } else if (color[next] == 0) {
                    dfs(next);
                }
            }
            path.pop_back();
            color[node] = 2;
        };
    for (const auto &[node, _] : adj)
        if (color[node] == 0)
            dfs(node);
}

// ---------------------------------------------------------------------
// Suppression-fence hygiene from the per-file parse.
// ---------------------------------------------------------------------

void
auditFences(const Project &project, Sink &sink)
{
    for (const SourceFile &f : project.sources)
        for (const lint::Finding &fence :
             f.suppressions.fenceFindings)
            sink.emit(fence.file, fence.line, lint::kBadAllowFence,
                      "fence", fence.message);
}

} // namespace

std::vector<DocRow>
tableRows(const std::string &content, const std::string &marker)
{
    std::vector<DocRow> rows;
    const std::string beginMarker = "<!-- " + marker + ":begin -->";
    const std::string endMarker = "<!-- " + marker + ":end -->";
    static const std::regex rowRe(R"(^\|\s*`([^`]+)`)");
    bool inTable = false;
    std::size_t pos = 0;
    int line = 1;
    while (pos <= content.size()) {
        std::size_t eol = content.find('\n', pos);
        if (eol == std::string::npos)
            eol = content.size();
        const std::string text = content.substr(pos, eol - pos);
        if (text.find(beginMarker) != std::string::npos)
            inTable = true;
        else if (text.find(endMarker) != std::string::npos)
            inTable = false;
        std::smatch m;
        if (inTable && std::regex_search(text, m, rowRe))
            rows.push_back({m[1].str(), line});
        if (eol == content.size())
            break;
        pos = eol + 1;
        ++line;
    }
    return rows;
}

std::string
tableDrift(const std::set<std::string> &code, const std::string &docPath,
           const std::string &marker)
{
    std::ifstream in(docPath);
    std::ostringstream doc;
    doc << in.rdbuf();
    std::string out;
    std::set<std::string> documented;
    for (const DocRow &r : tableRows(doc.str(), marker)) {
        documented.insert(r.text);
        if (!code.count(r.text))
            out += docPath + ":" + std::to_string(r.line) +
                   ": stale row '" + r.text + "'\n";
    }
    for (const std::string &c : code)
        if (!documented.count(c))
            out += "undocumented: '" + c + "' has no row in the " +
                   marker + " table of " + docPath + "\n";
    return out;
}

std::string
normalizeIndices(const std::string &path)
{
    static const std::regex re(R"((thread|core|bank|worker)[0-9]+)");
    return std::regex_replace(path, re, "$1<N>");
}

const std::vector<lint::RuleInfo> &
auditRuleCatalog()
{
    static const std::vector<lint::RuleInfo> catalog = {
        {kLayerBackEdge, "src/, tools/, bench/, tests/",
         "include edges may only point sideways or toward lower "
         "layers (util -> sim core -> eval -> tools/bench/tests)"},
        {kLayerCycle, "src/, tools/, bench/, tests/",
         "the quoted-include graph must be acyclic at file "
         "granularity"},
        {kStatUndocumented, "src/",
         "every StatRegistry path literal must match a row of the "
         "docs/metrics.md catalog"},
        {kStatStaleDoc, "docs/metrics.md",
         "every catalog row must be backed by a registration literal "
         "in src/"},
        {kFaultUnknownSite, "everywhere + scripts/docs",
         "every site=kind fault spec must name a site some "
         "faultPoint() call defines"},
        {kFaultOrphanSite, "everywhere",
         "every faultPoint() site must be armed by at least one "
         "test, script or doc"},
        {kKnobUndocumented, "src/, tools/, bench/",
         "every \"LVA_*\" literal must appear in the README knob "
         "table"},
        {kKnobStaleDoc, "README.md",
         "every README knob row must be referenced under src/, "
         "tools/ or bench/"},
        {kKnobUnvalidated, "src/, tools/, bench/",
         "getenv(\"LVA_*\") outside util/env_knob.cc must use the "
         "validated envKnobU64/envKnobF64 parsers or carry an "
         "explicit allow annotation"},
        {kDriverUndocumented, "bench/",
         "every bench/*.cc driver must have a row in the "
         "docs/reproducing.md driver map"},
        {kDriverStaleDoc, "docs/reproducing.md",
         "every driver-map row must name an existing bench/*.cc"},
        {kHotPathUndocumented, "src/, tools/, bench/",
         "every file with an lva-hot-path: begin fence must be listed "
         "in the docs/performance.md fenced-file table"},
        {kHotPathStaleDoc, "docs/performance.md",
         "every fenced-file row must name a file that carries an "
         "lva-hot-path: begin fence"},
        {kLockCycle, "everywhere",
         "the cross-TU mutex acquisition graph (held -> acquired "
         "edges) must be acyclic"},
        {kLockWaitHeld, "everywhere",
         "no condition_variable wait while holding a second mutex"},
        {lint::kBadAllowFence, "everywhere",
         "unbalanced lva-audit begin-allow/end-allow fences"},
        {kStaleBaseline, "the baseline file",
         "every baseline entry must still match a live finding; "
         "fixed findings must be removed from the baseline"},
    };
    return catalog;
}

Baseline
parseBaseline(const std::string &relPath, const std::string &content)
{
    Baseline out;
    out.path = relPath;
    std::size_t pos = 0;
    int line = 1;
    while (pos <= content.size()) {
        std::size_t eol = content.find('\n', pos);
        if (eol == std::string::npos)
            eol = content.size();
        const std::string text = content.substr(pos, eol - pos);
        if (!text.empty() && text[0] != '#') {
            const std::size_t t1 = text.find('\t');
            const std::size_t t2 =
                t1 == std::string::npos ? t1 : text.find('\t', t1 + 1);
            if (t2 != std::string::npos) {
                out.entries.push_back(
                    {text.substr(0, t1),
                     text.substr(t1 + 1, t2 - t1 - 1),
                     text.substr(t2 + 1), line, false});
            }
        }
        if (eol == content.size())
            break;
        pos = eol + 1;
        ++line;
    }
    return out;
}

std::vector<lint::Finding>
runAudit(const Project &project, Baseline *baseline)
{
    Sink sink{project, baseline, {}};
    auditLayering(project, sink);
    auditStats(project, sink);
    auditFaults(project, sink);
    auditKnobs(project, sink);
    auditDocLists(project, sink);
    auditLocks(project, sink);
    auditFences(project, sink);

    if (baseline) {
        for (const BaselineEntry &e : baseline->entries) {
            if (!e.used)
                sink.out.push_back(
                    {baseline->path, e.line, kStaleBaseline,
                     "baseline entry '" + e.rule + "\\t" + e.file +
                         "\\t" + e.key +
                         "' matches no live finding; remove it"});
        }
    }

    std::sort(sink.out.begin(), sink.out.end(),
              [](const lint::Finding &a, const lint::Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return sink.out;
}

} // namespace lva::audit
