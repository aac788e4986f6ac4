/**
 * @file
 * Tests for the phase-1 design-space evaluator.
 */

#include <gtest/gtest.h>

#include "eval/evaluator.hh"
#include "sim/machine_config.hh"

namespace lva {
namespace {

TEST(Evaluator, PreciseBaselineIsUnity)
{
    Evaluator eval(1, 0.05);
    const EvalResult r = eval.evaluatePrecise("canneal");
    EXPECT_DOUBLE_EQ(r.normMpki, 1.0);
    EXPECT_DOUBLE_EQ(r.normFetches, 1.0);
    EXPECT_GT(r.mpki, 0.0);
    EXPECT_GT(r.instructions, 0.0);
}

TEST(Evaluator, PreciseConfigEvaluatesToUnity)
{
    Evaluator eval(1, 0.05);
    const EvalResult r =
        eval.evaluate("canneal", defaultMachine().phase1Precise());
    EXPECT_NEAR(r.normMpki, 1.0, 1e-9);
    EXPECT_NEAR(r.normFetches, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(r.outputError, 0.0);
    EXPECT_DOUBLE_EQ(r.instrVariation, 0.0);
}

TEST(Evaluator, LvaReducesEffectiveMpkiOnIntegerData)
{
    Evaluator eval(1, 0.05);
    const EvalResult r =
        eval.evaluate("canneal", defaultMachine().phase1Lva());
    EXPECT_LT(r.normMpki, 0.9);
    EXPECT_GT(r.coverage, 0.0);
}

TEST(Evaluator, GoldenRunsAreCachedAcrossCalls)
{
    Evaluator eval(1, 0.05);
    const EvalResult a = eval.evaluatePrecise("x264");
    const EvalResult b = eval.evaluatePrecise("x264");
    EXPECT_DOUBLE_EQ(a.mpki, b.mpki);
    EXPECT_DOUBLE_EQ(a.instructions, b.instructions);
}

TEST(Evaluator, SeedAveragingIsDeterministic)
{
    Evaluator a(2, 0.05);
    Evaluator b(2, 0.05);
    const EvalResult ra =
        a.evaluate("blackscholes", defaultMachine().phase1Lva());
    const EvalResult rb =
        b.evaluate("blackscholes", defaultMachine().phase1Lva());
    EXPECT_DOUBLE_EQ(ra.normMpki, rb.normMpki);
    EXPECT_DOUBLE_EQ(ra.outputError, rb.outputError);
}

TEST(Evaluator, DegreeReducesFetches)
{
    Evaluator eval(1, 0.05);
    ApproxMemory::Config deg0 = defaultMachine().phase1Lva();
    ApproxMemory::Config deg8 = defaultMachine().phase1Lva();
    deg8.approx.approxDegree = 8;
    const EvalResult r0 = eval.evaluate("canneal", deg0);
    const EvalResult r8 = eval.evaluate("canneal", deg8);
    EXPECT_LT(r8.normFetches, r0.normFetches);
}

TEST(Evaluator, BaselineConfigsMatchPaper)
{
    const ApproxMemory::Config lva = defaultMachine().phase1Lva();
    EXPECT_EQ(lva.mode, MemMode::Lva);
    EXPECT_EQ(lva.cache.sizeBytes, 64u * 1024);
    EXPECT_EQ(lva.approx.tableEntries, 512u);
    EXPECT_EQ(lva.approx.lhbEntries, 4u);
    EXPECT_EQ(lva.approx.ghbEntries, 0u);
    EXPECT_EQ(lva.approx.valueDelay, 4u);
    EXPECT_EQ(lva.approx.approxDegree, 0u);
    EXPECT_DOUBLE_EQ(lva.approx.confidenceWindow, 0.10);
    EXPECT_FALSE(lva.approx.confidenceForInts);
}

} // namespace
} // namespace lva
