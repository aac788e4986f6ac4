/**
 * @file
 * lva-audit tests: every cross-file rule fires line-exactly on its
 * mini-tree under tests/audit_fixtures/, the clean tree comes back
 * empty (the binary's exit-0 path), suppressions and the baseline
 * remove findings, and stale baseline entries are themselves
 * findings.  Fixture trees mirror the real repo layout (src/, docs/,
 * scripts/, README.md) and load through the same loader the lva_audit
 * binary uses.
 */

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/audit.hh"
#include "analyze/loader.hh"
#include "analyze/project_model.hh"

namespace {

using lva::audit::Baseline;
using lva::audit::loadProject;
using lva::audit::Project;
using lva::audit::runAudit;
using lva::lint::Finding;

Project
fixtureProject(const std::string &name)
{
    lva::audit::LoadResult loaded =
        loadProject(std::string(LVA_AUDIT_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(loaded.errors.empty());
    EXPECT_FALSE(loaded.project.sources.empty())
        << "fixture tree " << name << " has no sources";
    return std::move(loaded.project);
}

/** (file, line, rule) triplets for line-exact whole-tree asserts. */
std::multiset<std::tuple<std::string, int, std::string>>
hits(const std::vector<Finding> &findings)
{
    std::multiset<std::tuple<std::string, int, std::string>> out;
    for (const Finding &f : findings)
        out.insert({f.file, f.line, f.rule});
    return out;
}

TEST(AuditCatalog, ListsEveryRuleExactlyOnce)
{
    std::set<std::string> ids;
    for (const auto &r : lva::audit::auditRuleCatalog()) {
        EXPECT_TRUE(ids.insert(r.id).second) << "duplicate " << r.id;
        EXPECT_FALSE(r.summary.empty());
        EXPECT_FALSE(r.scope.empty());
    }
    const std::set<std::string> expected = {
        lva::audit::kLayerBackEdge,    lva::audit::kLayerCycle,
        lva::audit::kStatUndocumented, lva::audit::kStatStaleDoc,
        lva::audit::kFaultUnknownSite, lva::audit::kFaultOrphanSite,
        lva::audit::kKnobUndocumented, lva::audit::kKnobStaleDoc,
        lva::audit::kKnobUnvalidated,  lva::audit::kDriverUndocumented,
        lva::audit::kDriverStaleDoc,   lva::audit::kHotPathUndocumented,
        lva::audit::kHotPathStaleDoc,  lva::audit::kLockCycle,
        lva::audit::kLockWaitHeld,     lva::audit::kStaleBaseline,
        lva::lint::kBadAllowFence};
    EXPECT_EQ(ids, expected);
}

TEST(AuditClean, CleanTreeHasNoFindings)
{
    // The clean tree exercises every extractor (stats, knobs with an
    // allow(knob-unvalidated) annotation, a fault site armed from
    // scripts/) and must come back empty — the binary's exit-0 path.
    const auto findings = runAudit(fixtureProject("clean"));
    EXPECT_TRUE(findings.empty())
        << findings.size() << " findings, first: " << findings[0].file
        << ":" << findings[0].line << " [" << findings[0].rule << "]";
}

TEST(AuditLayering, BackEdgeAndCycleFireLineExactly)
{
    const auto findings = runAudit(fixtureProject("layering"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"src/util/helper.hh", 5, lva::audit::kLayerBackEdge},
            // The cycle is reported once, on the include that closes
            // it (DFS order: a.hh discovered first, so b.hh's include
            // of a.hh closes the loop).
            {"src/core/b.hh", 4, lva::audit::kLayerCycle},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditStats, UndocumentedLiteralAndStaleRowFire)
{
    const auto findings = runAudit(fixtureProject("stats"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"src/core/engine.cc", 16, lva::audit::kStatUndocumented},
            {"docs/metrics.md", 9, lva::audit::kStatStaleDoc},
        };
    EXPECT_EQ(hits(findings), expected);
    // The documented full literal and the joinPath fragment backing
    // engine.pipe.stalls produce no findings — only the rogue one.
}

TEST(AuditFaults, OrphanDefAndUnknownRefFire)
{
    const auto findings = runAudit(fixtureProject("faults"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"src/core/worker.cc", 12, lva::audit::kFaultOrphanSite},
            {"scripts/chaos.sh", 4, lva::audit::kFaultUnknownSite},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditKnobs, UnvalidatedUndocumentedStaleAndFenceFire)
{
    const auto findings = runAudit(fixtureProject("knobs"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"src/core/knobs.cc", 12, lva::audit::kKnobUndocumented},
            {"src/core/knobs.cc", 12, lva::audit::kKnobUnvalidated},
            {"README.md", 8, lva::audit::kKnobStaleDoc},
            {"src/core/fence.cc", 2, lva::lint::kBadAllowFence},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditDrivers, UndocumentedDriverAndStaleRowFire)
{
    // bench/common/helper.cc is not a driver.
    const auto findings = runAudit(fixtureProject("drivers"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"bench/fig_rogue.cc", 1, lva::audit::kDriverUndocumented},
            {"docs/reproducing.md", 8, lva::audit::kDriverStaleDoc},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditHotPath, UndocumentedFenceAndStaleRowFire)
{
    const auto findings = runAudit(fixtureProject("hotpath"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"src/core/rogue.cc", 3, lva::audit::kHotPathUndocumented},
            {"docs/performance.md", 8, lva::audit::kHotPathStaleDoc},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditLocks, OrderingCycleAndWaitWhileHoldingFire)
{
    const auto findings = runAudit(fixtureProject("locks"));
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            // Reported on the edge that closes the cycle: backward()
            // acquiring a_ while holding b_.
            {"src/core/pipeline.cc", 33, lva::audit::kLockCycle},
            {"src/core/pipeline.cc", 42, lva::audit::kLockWaitHeld},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditSuppression, InlineAllowRemovesTheFinding)
{
    // Same content as the knobs fixture's offending line, but with an
    // allow annotation above it: the knob-unvalidated finding
    // disappears while knob-undocumented (not suppressed) stays.
    Project project = fixtureProject("knobs");
    for (lva::audit::SourceFile &f : project.sources) {
        if (f.path == "src/core/knobs.cc")
            f.suppressions.inlineAllow[12].insert(
                lva::audit::kKnobUnvalidated);
    }
    const auto findings = runAudit(project);
    for (const Finding &f : findings)
        EXPECT_NE(f.rule, std::string(lva::audit::kKnobUnvalidated));
    EXPECT_EQ(findings.size(), 3u);
}

TEST(AuditBaseline, EntriesSwallowFindingsAndStaleEntriesSurface)
{
    // Grandfather both knob findings on line 12; leave the stale-doc
    // row and the fence finding live, and add one entry that matches
    // nothing — it must surface as stale-baseline.
    const std::string text =
        "# comment\n"
        "knob-unvalidated\tsrc/core/knobs.cc\tLVA_FIX_RAW\n"
        "knob-undocumented\tsrc/core/knobs.cc\tLVA_FIX_RAW\n"
        "layer-back-edge\tsrc/util/gone.hh\tsrc/eval/gone.hh\n";
    Baseline baseline = lva::audit::parseBaseline(
        "tools/analyze/audit_baseline.txt", text);
    ASSERT_EQ(baseline.entries.size(), 3u);

    const auto findings =
        runAudit(fixtureProject("knobs"), &baseline);
    const std::multiset<std::tuple<std::string, int, std::string>>
        expected = {
            {"README.md", 8, lva::audit::kKnobStaleDoc},
            {"src/core/fence.cc", 2, lva::lint::kBadAllowFence},
            // The unmatched grandfather entry, at its baseline line.
            {"tools/analyze/audit_baseline.txt", 4,
             lva::audit::kStaleBaseline},
        };
    EXPECT_EQ(hits(findings), expected);
}

TEST(AuditModel, ExtractionDetails)
{
    using lva::audit::parseSource;

    // Fragment vs full stat literals.
    const lva::audit::SourceFile stats = parseSource(
        "src/core/s.cc",
        "void f(R &reg, const std::string &p) {\n"
        "    reg.counter(\"a.b\", \"d\", \"u\");\n"
        "    reg.gauge(SR::joinPath(p, \"leaf\"), \"d\", \"u\");\n"
        "    reg.histogram(p + \".tail\", 0.0, 1.0, 4, \"d\");\n"
        "}\n");
    ASSERT_EQ(stats.stats.size(), 3u);
    EXPECT_FALSE(stats.stats[0].fragment);
    EXPECT_EQ(stats.stats[0].text, "a.b");
    EXPECT_TRUE(stats.stats[1].fragment);
    EXPECT_EQ(stats.stats[1].text, "leaf");
    EXPECT_TRUE(stats.stats[2].fragment);
    EXPECT_EQ(stats.stats[2].text, ".tail");

    // Prefix fault definition through a local binding, and spec refs
    // in comments count as references.
    const lva::audit::SourceFile faults = parseSource(
        "src/core/f.cc",
        // The spec is split so this test file's own bytes don't
        // register as a fault reference when the audit scans tests/.
        "// arm with x.step.2=th" "row to test\n"
        "void g(int i) {\n"
        "    const std::string site = \"x.step.\" + str(i);\n"
        "    faultPoint(site);\n"
        "}\n");
    ASSERT_EQ(faults.faultDefs.size(), 1u);
    EXPECT_EQ(faults.faultDefs[0].site, "x.step.");
    EXPECT_TRUE(faults.faultDefs[0].prefix);
    ASSERT_EQ(faults.faultRefs.size(), 1u);
    EXPECT_EQ(faults.faultRefs[0].site, "x.step.2");

    // Owner-qualified mutexes: two classes in one file with the same
    // member name stay distinct (no false cycle).
    const lva::audit::SourceFile locks = parseSource(
        "src/eval/two.cc",
        "void A::f() {\n"
        "    std::lock_guard<std::mutex> l(mutex_);\n"
        "    std::lock_guard<std::mutex> m(other_);\n"
        "}\n"
        "void B::g() {\n"
        "    std::lock_guard<std::mutex> l(mutex_);\n"
        "}\n");
    ASSERT_EQ(locks.lockEdges.size(), 1u);
    EXPECT_EQ(locks.lockEdges[0].held, "A::mutex_");
    EXPECT_EQ(locks.lockEdges[0].acquired, "A::other_");

    // Layer map sanity.
    EXPECT_EQ(lva::audit::layerOf("src/util/x.hh"), 0);
    EXPECT_EQ(lva::audit::layerOf("src/mem/x.hh"), 1);
    EXPECT_EQ(lva::audit::layerOf("src/eval/x.hh"), 2);
    EXPECT_EQ(lva::audit::layerOf("tools/x.cc"), 3);
    EXPECT_EQ(lva::audit::layerOf("docs/metrics.md"), -1);
}

} // namespace
