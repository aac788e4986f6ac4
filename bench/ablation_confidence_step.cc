/**
 * @file
 * Ablation: proportional confidence updates — the optimization the
 * paper explicitly defers to future work (section III-B). A failed
 * validation decrements confidence in proportion to how far outside
 * the window the estimate fell, which is only expressible because
 * approximation error is a distance rather than a binary mispredict.
 * Confidence is applied to both data types so the gate matters.
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

    BenchTimer timer("ablation_confidence_step");
    Evaluator eval;
    std::printf("Proportional-confidence ablation (seeds=%u, "
                "scale=%.2f)\n",
                eval.seeds(), eval.scale());

    Table table({"benchmark", "MPKI fixed", "MPKI proportional",
                 "error fixed", "error proportional"});

    const SweepOptions opts =
        sweepOptionsFromCli("ablation_confidence_step", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        ApproxMemory::Config fixed = sweepMachine(opts).phase1Lva();
        fixed.editApprox([](ApproximatorConfig &a) {
            a.confidenceForInts = true;
            a.confidenceWindow = 0.10;
        });

        ApproxMemory::Config prop = fixed;
        prop.editApprox([](ApproximatorConfig &a) {
            a.proportionalConfidence = true;
        });

        points.push_back({"fixed", name, fixed});
        points.push_back({"proportional", name, prop});
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        const EvalResult &rf = results[next++];
        const EvalResult &rp = results[next++];
        table.addRow({name, fmtDouble(rf.stats.valueOf("eval.normMpki"), 3),
                      fmtDouble(rp.stats.valueOf("eval.normMpki"), 3),
                      fmtPercent(rf.stats.valueOf("eval.outputError"), 1),
                      fmtPercent(rp.stats.valueOf("eval.outputError"), 1)});
    }

    table.print("Future-work ablation: fixed vs proportional "
                "confidence updates (+/-10% window, both data types)");
    table.writeCsv(resultsPath("ablation_confidence_step.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_confidence_step.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("ablation_confidence_step", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
