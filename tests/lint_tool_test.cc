/**
 * @file
 * lva-lint rule engine tests: every rule fires on its fixture under
 * tests/lint_fixtures/, suppression comments silence findings, clean
 * files come back empty (the binary's exit-0 path), and the path
 * scoping matches the catalog.
 */

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint_core.hh"

namespace {

using lva::lint::Finding;
using lva::lint::lintSource;
using lva::lint::ruleCatalog;

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(LVA_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing fixture " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** (rule, line) pairs for compact whole-file assertions. */
std::multiset<std::pair<std::string, int>>
hits(const std::vector<Finding> &findings)
{
    std::multiset<std::pair<std::string, int>> out;
    for (const auto &f : findings)
        out.insert({f.rule, f.line});
    return out;
}

TEST(LintCatalog, ListsEveryRuleExactlyOnce)
{
    std::set<std::string> ids;
    for (const auto &r : ruleCatalog()) {
        EXPECT_TRUE(ids.insert(r.id).second) << "duplicate " << r.id;
        EXPECT_FALSE(r.summary.empty());
        EXPECT_FALSE(r.scope.empty());
    }
    const std::set<std::string> expected = {
        lva::lint::kNoRand, lva::lint::kNoWallClock,
        lva::lint::kNoUnorderedIteration,
        lva::lint::kNoPointerKeyedOrdered, lva::lint::kNoMutableGlobal,
        lva::lint::kHotPathAlloc, lva::lint::kBadAllowFence};
    EXPECT_EQ(ids, expected);
}

TEST(LintRules, RandFixtureFiresPerCallSite)
{
    const auto findings =
        lintSource("src/core/fixture.cc", readFixture("rand_hazards.cc"));
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoRand, 9},
        {lva::lint::kNoRand, 10},
        {lva::lint::kNoRand, 11},
        {lva::lint::kNoRand, 12},
    };
    EXPECT_EQ(hits(findings), expected);
}

TEST(LintRules, WallClockFixtureFiresPerReadButNotSteadyClock)
{
    const auto findings = lintSource("bench/fixture.cc",
                                     readFixture("wall_clock_hazards.cc"));
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoWallClock, 8},
        {lva::lint::kNoWallClock, 9},
        {lva::lint::kNoWallClock, 11},
        {lva::lint::kNoWallClock, 12},
    };
    EXPECT_EQ(hits(findings), expected);
}

TEST(LintRules, UnorderedIterationFiresOnlyOnExportPaths)
{
    const std::string src = readFixture("unordered_iteration.cc");

    // On an export path both iteration sites fire; the find()/end()
    // point lookup does not.
    const auto exported = lintSource("src/eval/fixture.cc", src);
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoUnorderedIteration, 18},
        {lva::lint::kNoUnorderedIteration, 26},
    };
    EXPECT_EQ(hits(exported), expected);

    // The same text elsewhere in the tree is out of the rule's scope.
    EXPECT_TRUE(lintSource("src/sim/fixture.cc", src).empty());

    // src/util/stat* export plumbing is in scope too.
    EXPECT_EQ(hits(lintSource("src/util/stats_json_fixture.cc", src)),
              expected);
}

TEST(LintRules, PointerKeyedOrderedFixture)
{
    const auto findings =
        lintSource("src/noc/fixture.cc", readFixture("pointer_keyed.cc"));
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoPointerKeyedOrdered, 11},
        {lva::lint::kNoPointerKeyedOrdered, 12},
        {lva::lint::kNoPointerKeyedOrdered, 13},
    };
    EXPECT_EQ(hits(findings), expected);
}

TEST(LintRules, MutableStaticFixtureSkipsConstAndFunctions)
{
    const std::string src = readFixture("mutable_static.cc");
    const auto findings = lintSource("src/mem/fixture.cc", src);
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoMutableGlobal, 6},
        {lva::lint::kNoMutableGlobal, 7},
        {lva::lint::kNoMutableGlobal, 12},
    };
    EXPECT_EQ(hits(findings), expected);

    // util/ owns its synchronisation; the rule is scoped out there.
    EXPECT_TRUE(lintSource("src/util/fixture.cc", src).empty());
}

TEST(LintRules, HotPathAllocFiresOnlyInsideFences)
{
    const auto findings = lintSource("src/core/fixture.cc",
                                     readFixture("hot_path_alloc.cc"));
    // Identical push_back calls outside the fence (lines 6 and 21)
    // never fire; line 18's is silenced by the allow comment.
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kHotPathAlloc, 10}, // push_back
        {lva::lint::kHotPathAlloc, 11}, // emplace_back
        {lva::lint::kHotPathAlloc, 12}, // std::deque
        {lva::lint::kHotPathAlloc, 13}, // std::string
        {lva::lint::kHotPathAlloc, 14}, // new
        {lva::lint::kHotPathAlloc, 15}, // snapshot()
    };
    EXPECT_EQ(hits(findings), expected);
}

TEST(LintRules, HotPathFenceWithoutEndRunsToEof)
{
    const std::string src = "// lva-hot-path: begin\n"
                            "void f(std::vector<int> &v) { v.push_back(1); }\n"
                            "void g(std::vector<int> &v) { v.resize(9); }\n";
    EXPECT_EQ(hits(lintSource("src/core/f.cc", src)),
              (std::multiset<std::pair<std::string, int>>{
                  {lva::lint::kHotPathAlloc, 2},
                  {lva::lint::kHotPathAlloc, 3}}));

    // No markers at all: the rule never looks at the file.
    EXPECT_TRUE(
        lintSource("src/core/g.cc",
                   "void h(std::vector<int> &v) { v.push_back(1); }\n")
            .empty());
}

TEST(LintSuppression, AllowCommentsSilenceEveryRule)
{
    // Linted on an export path so all five rules are in scope; the
    // fixture suppresses each finding (same-line, previous-line and
    // allow(all) forms) so the file must come back clean.
    const auto findings =
        lintSource("src/eval/fixture.cc", readFixture("suppressed.cc"));
    EXPECT_TRUE(findings.empty())
        << findings.size() << " unsuppressed, first: " << findings[0].rule
        << " at line " << findings[0].line;
}

TEST(LintSuppression, AllowOnlyCoversItsOwnRuleAndLine)
{
    const std::string src = "// lva-lint: allow(no-wall-clock)\n"
                            "int x = rand();\n"
                            "int y = rand();\n";
    const auto findings = lintSource("src/core/f.cc", src);
    // Wrong rule name in the allow → both call sites still fire.
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoRand, 2},
        {lva::lint::kNoRand, 3},
    };
    EXPECT_EQ(hits(findings), expected);

    // Right rule, but two lines above the second call site: only the
    // adjacent line is covered.
    const std::string src2 = "// lva-lint: allow(no-rand)\n"
                             "int x = rand();\n"
                             "int y = rand();\n";
    EXPECT_EQ(hits(lintSource("src/core/f.cc", src2)),
              (std::multiset<std::pair<std::string, int>>{
                  {lva::lint::kNoRand, 3}}));
}

TEST(LintSuppression, BlockFenceCoversOnlyTheFencedRegion)
{
    const auto findings = lintSource("src/core/fixture.cc",
                                     readFixture("block_allow.cc"));
    // Inside the begin-allow/end-allow fence the rand() is silenced;
    // the identical hazard after the fence still fires, and balanced
    // fences produce no hygiene findings.
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kNoRand, 16},
    };
    EXPECT_EQ(hits(findings), expected);
}

TEST(LintSuppression, UnbalancedFencesAreFindings)
{
    const auto findings = lintSource("src/core/fixture.cc",
                                     readFixture("bad_fence.cc"));
    // Stray end-allow (line 5) and unclosed begin-allow (line 7) are
    // both bad-allow-fence findings; an unclosed fence deliberately
    // suppresses nothing, so the rand() at line 11 fires too.
    const std::multiset<std::pair<std::string, int>> expected = {
        {lva::lint::kBadAllowFence, 5},
        {lva::lint::kBadAllowFence, 7},
        {lva::lint::kNoRand, 11},
    };
    EXPECT_EQ(hits(findings), expected);
}

TEST(LintSuppression, FencesNestAndTrackTheirOwnRules)
{
    const std::string src = "// lva-lint: begin-allow(no-rand)\n"
                            "// lva-lint: begin-allow(no-wall-clock)\n"
                            "int a = rand();\n"
                            "long b = time(nullptr);\n"
                            "// lva-lint: end-allow\n"
                            "long c = time(nullptr);\n"
                            "// lva-lint: end-allow\n";
    // The inner fence covers lines 2-5 (wall clock), the outer one
    // lines 1-7 (rand): line 6's wall-clock read is outside its
    // fence and fires.
    EXPECT_EQ(hits(lintSource("src/core/f.cc", src)),
              (std::multiset<std::pair<std::string, int>>{
                  {lva::lint::kNoWallClock, 6}}));
}

TEST(LintClean, CleanFixtureAndExitSemantics)
{
    // Empty findings <=> the lva_lint binary exits 0 for this file.
    EXPECT_TRUE(
        lintSource("src/eval/fixture.cc", readFixture("clean.cc")).empty());
    EXPECT_TRUE(lintSource("src/core/empty.cc", "").empty());
}

TEST(LintStripping, CommentsAndStringsNeverFire)
{
    const std::string src =
        "// rand() time(nullptr) system_clock\n"
        "/* std::random_device in a block comment\n"
        "   spanning lines */\n"
        "const char *a = \"rand() inside a string\";\n"
        "const char *b = R\"(raw rand() srand() string)\";\n"
        "char c = '\\'';\n";
    EXPECT_TRUE(lintSource("src/core/f.cc", src).empty());
}

TEST(LintStripping, CodeAfterCommentOnSameLineStillFires)
{
    const std::string src = "int x = rand(); // seeded below, honest\n";
    EXPECT_EQ(hits(lintSource("src/core/f.cc", src)),
              (std::multiset<std::pair<std::string, int>>{
                  {lva::lint::kNoRand, 1}}));
}

TEST(LintFindings, AreSortedAndCarryThePath)
{
    const std::string src = "int a = rand();\n"
                            "static int hits = 0;\n";
    const auto findings = lintSource("bench/f.cc", src);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].line, 1);
    EXPECT_EQ(findings[0].rule, lva::lint::kNoRand);
    EXPECT_EQ(findings[1].line, 2);
    EXPECT_EQ(findings[1].rule, lva::lint::kNoMutableGlobal);
    for (const auto &f : findings) {
        EXPECT_EQ(f.file, "bench/f.cc");
        EXPECT_FALSE(f.message.empty());
    }
}

} // namespace
