/**
 * @file
 * End-to-end integration tests: workload -> trace -> full-system
 * timing, and cross-phase consistency properties.
 */

#include <gtest/gtest.h>

#include "cpu/trace.hh"
#include "eval/fullsystem_eval.hh"
#include "workloads/workload.hh"

namespace lva {
namespace {

TEST(Integration, TraceReplayIsDeterministic)
{
    const FsSweep a = runFullSystemSweep("canneal", {0}, 1, 0.05);
    const FsSweep b = runFullSystemSweep("canneal", {0}, 1, 0.05);
    EXPECT_DOUBLE_EQ(a.baseline.cycles, b.baseline.cycles);
    EXPECT_DOUBLE_EQ(a.lva[0].cycles, b.lva[0].cycles);
    EXPECT_EQ(a.baseline.flitHops, b.baseline.flitHops);
}

TEST(Integration, LvaNeverSlowsCannealMateriallyDown)
{
    const FsSweep sweep =
        runFullSystemSweep("canneal", {0, 16}, 1, 0.1);
    EXPECT_GT(sweep.speedup(0), -0.05);
    EXPECT_GT(sweep.speedup(1), 0.0);
}

TEST(Integration, HigherDegreeNeverFetchesMore)
{
    const FsSweep sweep =
        runFullSystemSweep("bodytrack", {0, 2, 8}, 1, 0.1);
    EXPECT_GE(sweep.lva[0].l2Accesses, sweep.lva[1].l2Accesses);
    EXPECT_GE(sweep.lva[1].l2Accesses, sweep.lva[2].l2Accesses);
    EXPECT_LE(sweep.lva[0].fetchesSkipped,
              sweep.lva[1].fetchesSkipped);
}

TEST(Integration, DegreeReducesTrafficAndEnergy)
{
    const FsSweep sweep =
        runFullSystemSweep("canneal", {0, 16}, 1, 0.1);
    EXPECT_LT(sweep.lva[1].flitHops, sweep.lva[0].flitHops);
    EXPECT_LT(sweep.lva[1].energy.total(),
              sweep.lva[0].energy.total());
}

TEST(Integration, MissLatencyDropsUnderLva)
{
    const FsSweep sweep =
        runFullSystemSweep("bodytrack", {0}, 1, 0.1);
    EXPECT_LT(sweep.lva[0].avgL1MissLatency,
              sweep.baseline.avgL1MissLatency);
    EXPECT_GT(sweep.missLatencyReduction(0), 0.0);
}

TEST(Integration, BaselineReplayMatchesTraceInstructionCount)
{
    WorkloadParams params;
    params.seed = 1;
    params.scale = 0.05;
    auto w = makeWorkload("ferret", params);
    w->generate();
    TraceRecorder rec(params.threads);
    w->run(rec);

    FullSystemSim sim(defaultMachine().fullSystem(false));
    const FullSystemResult r = sim.run(rec.traces());
    EXPECT_EQ(r.instructions, rec.totalInstructions());
}

TEST(Integration, NormalizedEdpBelowOneForAmenableWorkloads)
{
    const FsSweep sweep =
        runFullSystemSweep("bodytrack", {0, 16}, 1, 0.1);
    EXPECT_LT(sweep.normMissEdp(0), 1.0);
    EXPECT_LT(sweep.normMissEdp(1), sweep.normMissEdp(0));
}

} // namespace
} // namespace lva
