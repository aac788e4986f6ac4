/**
 * @file
 * Regenerates paper Figure 7: effective MPKI (a) and output error (b)
 * for value delays of 4, 8, 16 and 32 load instructions.
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

    BenchTimer timer("fig7_value_delay");
    Evaluator eval;
    std::printf("Figure 7 reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 delays[] = {4, 8, 16, 32};

    Table mpki({"benchmark", "delay-4", "delay-8", "delay-16",
                "delay-32"});
    Table error({"benchmark", "delay-4", "delay-8", "delay-16",
                 "delay-32"});

    const SweepOptions opts =
        sweepOptionsFromCli("fig7_value_delay", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 d : delays) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox(
                [&](ApproximatorConfig &a) { a.valueDelay = d; });
            points.push_back(
                {"delay-" + std::to_string(d), name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> mpki_row = {name};
        std::vector<std::string> err_row = {name};
        for (std::size_t i = 0; i < std::size(delays); ++i) {
            const EvalResult &r = results[next++];
            mpki_row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            err_row.push_back(
                fmtPercent(r.stats.valueOf("eval.outputError"), 1));
        }
        mpki.addRow(mpki_row);
        error.addRow(err_row);
    }

    mpki.print("Figure 7a: normalized MPKI by value delay");
    error.print("Figure 7b: output error by value delay");
    mpki.writeCsv(resultsPath("fig7a_delay_mpki.csv"));
    error.writeCsv(resultsPath("fig7b_delay_error.csv"));
    std::printf("\nwrote %s, %s\n",
                resultsPath("fig7a_delay_mpki.csv").c_str(),
                resultsPath("fig7b_delay_error.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("fig7_value_delay", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
