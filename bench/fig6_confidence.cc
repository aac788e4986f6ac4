/**
 * @file
 * Regenerates paper Figure 6: effective MPKI (a) and output error (b)
 * for relaxed confidence windows of 0% (ideal LVP), 5%, 10%, 20% and
 * infinite. In this sweep the confidence gate applies to both
 * floating-point AND integer data (paper section VI-B).
 */

#include <cmath>
#include <cstdio>
#include <limits>

#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("fig6_confidence");
    Evaluator eval;
    std::printf("Figure 6 reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    struct Window
    {
        const char *label;
        double value;
        bool lvp;
    };
    const Window windows[] = {
        {"0% (ideal LVP)", 0.0, true},
        {"5%", 0.05, false},
        {"10%", 0.10, false},
        {"20%", 0.20, false},
        {"infinite", std::numeric_limits<double>::infinity(), false},
    };

    Table mpki({"benchmark", "0% (ideal LVP)", "5%", "10%", "20%",
                "infinite"});
    Table error({"benchmark", "5%", "10%", "20%", "infinite"});

    const SweepOptions opts =
        sweepOptionsFromCli("fig6_confidence", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (const Window &w : windows) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            if (w.lvp) {
                cfg.mode = MemMode::Lvp;
            } else {
                cfg.editApprox([&](ApproximatorConfig &a) {
                    a.confidenceWindow = w.value;
                    a.confidenceForInts = true;
                });
            }
            points.push_back({w.label, name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> mpki_row = {name};
        std::vector<std::string> err_row = {name};
        for (const Window &w : windows) {
            const EvalResult &r = results[next++];
            mpki_row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            if (!w.lvp)
                err_row.push_back(
                    fmtPercent(r.stats.valueOf("eval.outputError"), 1));
        }
        mpki.addRow(mpki_row);
        error.addRow(err_row);
    }

    mpki.print("Figure 6a: normalized MPKI by confidence window");
    error.print("Figure 6b: output error by confidence window");
    mpki.writeCsv(resultsPath("fig6a_confidence_mpki.csv"));
    error.writeCsv(resultsPath("fig6b_confidence_error.csv"));
    std::printf("\nwrote %s, %s\n",
                resultsPath("fig6a_confidence_mpki.csv").c_str(),
                resultsPath("fig6b_confidence_error.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("fig6_confidence", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
