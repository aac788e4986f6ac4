/**
 * @file
 * Regenerates paper Figure 9: LVA output error for approximation
 * degrees 0, 2, 4, 8 and 16.
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

    BenchTimer timer("fig9_degree_error");
    Evaluator eval;
    std::printf("Figure 9 reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 degrees[] = {0, 2, 4, 8, 16};

    Table table({"benchmark", "approx-0", "approx-2", "approx-4",
                 "approx-8", "approx-16"});

    const SweepOptions opts =
        sweepOptionsFromCli("fig9_degree_error", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 d : degrees) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox(
                [&](ApproximatorConfig &a) { a.approxDegree = d; });
            points.push_back(
                {"degree-" + std::to_string(d), name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> row = {name};
        for (std::size_t i = 0; i < std::size(degrees); ++i) {
            const EvalResult &r = results[next++];
            row.push_back(
                fmtPercent(r.stats.valueOf("eval.outputError"), 1));
        }
        table.addRow(row);
    }

    table.print("Figure 9: LVA output error by approximation degree");
    table.writeCsv(resultsPath("fig9_degree_error.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("fig9_degree_error.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("fig9_degree_error", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
