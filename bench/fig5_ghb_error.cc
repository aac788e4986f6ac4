/**
 * @file
 * Regenerates paper Figure 5: application output error of LVA for
 * global history buffer sizes 0, 1, 2 and 4 (baseline configuration).
 */

#include <cstdio>

#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("fig5_ghb_error");
    Evaluator eval;
    std::printf("Figure 5 reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 ghb_sizes[] = {0, 1, 2, 4};

    Table table({"benchmark", "GHB-0", "GHB-1", "GHB-2", "GHB-4",
                 "coverage@GHB-0"});

    const SweepOptions opts =
        sweepOptionsFromCli("fig5_ghb_error", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 i = 0; i < 4; ++i) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox([&](ApproximatorConfig &a) {
                a.ghbEntries = ghb_sizes[i];
            });
            points.push_back(
                {"ghb-" + std::to_string(ghb_sizes[i]), name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> row = {name};
        double coverage0 = 0.0;
        for (u32 i = 0; i < 4; ++i) {
            const EvalResult &r = results[next++];
            row.push_back(fmtPercent(r.stats.valueOf("eval.outputError"), 1));
            if (i == 0)
                coverage0 = r.stats.valueOf("eval.coverage");
        }
        row.push_back(fmtPercent(coverage0, 1));
        table.addRow(row);
    }

    table.print("Figure 5: LVA output error by GHB size");
    table.writeCsv(resultsPath("fig5_ghb_error.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("fig5_ghb_error.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("fig5_ghb_error", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
