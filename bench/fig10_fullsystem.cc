/**
 * @file
 * Regenerates paper Figure 10: full-system speedup (a) and
 * memory-hierarchy dynamic energy savings (b) of LVA at approximation
 * degrees 0, 2, 4, 8 and 16, on the Table II 4-core CMP.
 *
 * Paper headlines: up to 28.6% speedup (8.5% average at degree 0);
 * up to 44.1% energy savings (12.6% average at degree 16); average
 * L1 miss latency reduced by 41.0%; interconnect traffic reduced by
 * 37.2% at degree 16.
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

    BenchTimer timer("fig10_fullsystem");
    const std::vector<u32> degrees = {0, 2, 4, 8, 16};
    std::printf("Figure 10 reproduction (scale=%.2f)\n",
                fsScaleFromEnv());

    Table speedup({"benchmark", "approx-0", "approx-2", "approx-4",
                   "approx-8", "approx-16"});
    Table energy({"benchmark", "approx-0", "approx-2", "approx-4",
                  "approx-8", "approx-16"});

    std::vector<double> sp_sum(degrees.size(), 0.0);
    std::vector<double> en_sum(degrees.size(), 0.0);
    double lat_red_sum = 0.0;
    double traffic_red_sum = 0.0;

    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("fig10_fullsystem", argc, argv);
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
        const std::string &name = names[w];
        std::vector<std::string> sp_row = {name};
        std::vector<std::string> en_row = {name};
        for (std::size_t i = 0; i < degrees.size(); ++i) {
            sp_row.push_back(fmtPercent(sweep.speedup(i), 1));
            en_row.push_back(fmtPercent(sweep.energySavings(i), 1));
            sp_sum[i] += sweep.speedup(i);
            en_sum[i] += sweep.energySavings(i);
        }
        speedup.addRow(sp_row);
        energy.addRow(en_row);
        lat_red_sum += sweep.missLatencyReduction(0);
        traffic_red_sum += sweep.trafficReduction(degrees.size() - 1);
    }

    // Averages cover the workloads that completed.
    const double n = static_cast<double>(sweeps.size());
    std::vector<std::string> sp_avg = {"average"};
    std::vector<std::string> en_avg = {"average"};
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        sp_avg.push_back(fmtPercent(sp_sum[i] / n, 1));
        en_avg.push_back(fmtPercent(en_sum[i] / n, 1));
    }
    speedup.addRow(sp_avg);
    energy.addRow(en_avg);

    speedup.print("Figure 10a: full-system speedup by approximation "
                  "degree (paper: 8.5% avg @0, max 28.6%)");
    energy.print("Figure 10b: energy savings by approximation degree "
                 "(paper: 12.6% avg @16, max 44.1%)");
    speedup.writeCsv(resultsPath("fig10a_speedup.csv"));
    energy.writeCsv(resultsPath("fig10b_energy.csv"));

    std::printf("\navg L1 miss latency reduction @degree 0: %.1f%% "
                "(paper: 41.0%%)\n", lat_red_sum / n * 100.0);
    std::printf("avg interconnect traffic reduction @degree 16: %.1f%% "
                "(paper: 37.2%%)\n", traffic_red_sum / n * 100.0);
    std::printf("wrote %s, %s\n",
                resultsPath("fig10a_speedup.csv").c_str(),
                resultsPath("fig10b_energy.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("fig10_fullsystem",
                               fsSweepSnapshots(sweeps),
                               outcome.failures)
                    .c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
