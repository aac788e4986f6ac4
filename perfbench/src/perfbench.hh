/**
 * @file
 * The four benchmark workloads (README.md in this package says why
 * each exists and which layers it stresses or bypasses).
 *
 * Each run function builds its inputs from RunOptions::seed, sets up
 * (several times, keeping the median), measures for
 * RunOptions::seconds, checks every output, and returns either the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run). Throughput is never read from one interval: each run times
 * many short units and summarises them by within-run medians.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <string>
#include <vector>

#include "reference.hh"
#include "summary.hh"

namespace perfbench {

/** Set-up repetitions per run; setup_s is their median. */
constexpr u32 kSetupReps = 7;

/**
 * Rounds a batch run completes even past its deadline: at least
 * three, and enough for 100 units, so the p90 has ten samples beyond
 * it.
 */
u32 minRounds(u32 unitsPerRound);

RunResult runPhase1(const RunOptions &opt, Reference &ref);
RunResult runPhase2(const RunOptions &opt, Reference &ref);
RunResult runServe(const RunOptions &opt, Reference &ref);
RunResult runCoord(const RunOptions &opt, Reference &ref);

/** Busy threads a workload runs: generator plus system under test. */
u32 busyThreads(const std::string &workload);

/** Name and unit of one reported metric. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Metrics of the untraced run, every one measured on every workload. */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of the traced run; see README.md for which workload
 *  measures each one (the others print 0). */
const std::vector<MetricDef> &perLayerMetrics();

/**
 * The result line: one JSON object with exactly the keys correct,
 * attempted, failed and metrics, holding every metric of the chosen
 * set (per-layer metrics a workload does not measure are 0). Throws
 * if an end-to-end metric is missing.
 */
std::string renderResult(const RunResult &r, bool trace);

/** Sum over units of each unit's median sample (one round's time). */
double sumOfMedians(const std::vector<std::vector<double>> &samples);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
