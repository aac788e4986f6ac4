/**
 * @file
 * Helper binary for sweep_resume_test: runs a small fixed sweep with
 * the standard robustness CLI so the test can kill it mid-sweep (via
 * LVA_FAULT=...=abort), restart it with --resume, and byte-compare
 * the stats export against an uninterrupted run. Not a gtest binary —
 * the injected abort must take the whole process down, exactly like a
 * real kill.
 */

#include "eval/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    // Fixed, cheap, deterministic grid: one workload, four degrees.
    std::vector<SweepPoint> points;
    for (const u32 degree : {0u, 2u, 4u, 8u}) {
        ApproxMemory::Config cfg = defaultMachine().phase1Lva();
        cfg.approx.approxDegree = degree;
        points.push_back(
            {"deg" + std::to_string(degree), "canneal", cfg});
    }

    const SweepOptions opts =
        sweepOptionsFromCli("sweep_crash_helper", argc, argv);
    Evaluator eval(1, 0.05);
    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    exportSweepStats("sweep_crash_helper", points, outcome);
    return reportSweepFailures(outcome);
}
