/**
 * @file
 * Regenerates paper Figure 12: the number of static (distinct) load
 * instructions that access approximate data per benchmark.
 *
 * The mini-kernels have fewer static loads than the full PARSEC
 * binaries (paper: up to ~300 for x264), but preserve the ordering —
 * x264's unrolled search kernels have the most annotated sites, the
 * financial kernels the fewest — and the conclusion: the approximator
 * table needs very few entries to cover all static approximate loads.
 */

#include <cstdio>
#include <utility>

#include "eval/stat_report.hh"
#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("fig12_static_loads");
    Table table({"benchmark", "static approx loads",
                 "all static loads"});

    WorkloadParams params;
    params.scale = 0.05; // site counts are static: tiny inputs suffice

    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("fig12_static_loads", argc, argv);
    // A machine only changes the thread count here: the census is
    // static, but sites are per-thread-partition in some kernels.
    params.threads = sweepMachine(opts).cores;
    SweepRunner runner;
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            auto w = makeWorkload(names[i], params);
            return std::make_pair(
                w->approxLoadSites(),
                static_cast<u32>(w->loadSites().size()));
        },
        opts, [&names](u64 i) { return names[i]; });

    // No simulation runs here, so the export carries one snapshot of
    // catalogued "workload.*" gauges per benchmark.
    const auto &defs = workloadStaticDefs();
    std::vector<NamedSnapshot> snaps;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!outcome.results[i]) {
            table.addRow({names[i], "nan", "nan"});
            continue;
        }
        const auto &counts = *outcome.results[i];
        table.addRow({names[i], std::to_string(counts.first),
                      std::to_string(counts.second)});
        StatSnapshot snap;
        snap.setGauge(defs[0].path,
                      static_cast<double>(counts.first),
                      defs[0].desc, defs[0].unit);
        snap.setGauge(defs[1].path,
                      static_cast<double>(counts.second),
                      defs[1].desc, defs[1].unit);
        snaps.push_back({names[i], names[i], snap});
    }

    table.print("Figure 12: static (distinct) PCs of approximate loads");
    table.writeCsv(resultsPath("fig12_static_loads.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("fig12_static_loads.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("fig12_static_loads", snaps,
                               outcome.failures).c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
