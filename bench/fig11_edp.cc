/**
 * @file
 * Regenerates paper Figure 11: the L1-miss energy-delay product of LVA
 * (normalized to precise execution) at approximation degrees 0, 2, 4,
 * 8 and 16. Paper: average reductions of 41.9%, 53.8% and 63.8% at
 * degrees 0, 4 and 16.
 */

#include <cstdio>

#include "eval/fullsystem_eval.hh"
#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"
#include "workloads/workload.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("fig11_edp");
    const std::vector<u32> degrees = {0, 2, 4, 8, 16};
    std::printf("Figure 11 reproduction (scale=%.2f)\n",
                fsScaleFromEnv());

    Table table({"benchmark", "approx-0", "approx-2", "approx-4",
                 "approx-8", "approx-16"});

    std::vector<double> edp_sum(degrees.size(), 0.0);

    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("fig11_edp", argc, argv);
    SweepRunner runner;
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            return runFullSystemSweep(names[i], degrees, 1, 0.0,
                                      sweepMachine(opts));
        },
        opts, [&names](u64 i) { return names[i]; });

    std::vector<FsSweep> sweeps;
    for (std::size_t w = 0; w < names.size(); ++w) {
        if (!outcome.results[w]) // listed in the failures section
            continue;
        const FsSweep &sweep = *outcome.results[w];
        sweeps.push_back(sweep);
        std::vector<std::string> row = {names[w]};
        for (std::size_t i = 0; i < degrees.size(); ++i) {
            row.push_back(fmtDouble(sweep.normMissEdp(i), 3));
            edp_sum[i] += sweep.normMissEdp(i);
        }
        table.addRow(row);
    }

    // Averages cover the workloads that completed.
    const double n = static_cast<double>(sweeps.size());
    std::vector<std::string> avg = {"average"};
    for (std::size_t i = 0; i < degrees.size(); ++i)
        avg.push_back(fmtDouble(edp_sum[i] / n, 3));
    table.addRow(avg);

    table.print("Figure 11: normalized L1-miss EDP by approximation "
                "degree (paper avg: 0.581 @0, 0.462 @4, 0.362 @16)");
    table.writeCsv(resultsPath("fig11_edp.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("fig11_edp.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("fig11_edp", fsSweepSnapshots(sweeps),
                               outcome.failures)
                    .c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
