/**
 * @file
 * Regenerates paper Figure 13: fluidanimate's effective MPKI
 * (normalized to precise execution) as floating-point mantissa bits are
 * dropped from the GHB hash — 0, 5, 11, 17 and 23 bits — with a GHB of
 * size 2 and the confidence gate disabled (paper section VII-B).
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

    BenchTimer timer("fig13_precision");
    Evaluator eval;
    std::printf("Figure 13 reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 drops[] = {0, 5, 11, 17, 23};

    Table table({"precision loss (bits)", "normalized MPKI",
                 "output error", "coverage"});

    const SweepOptions opts =
        sweepOptionsFromCli("fig13_precision", argc, argv);

    std::vector<SweepPoint> points;
    for (u32 drop : drops) {
        ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
        cfg.editApprox([&](ApproximatorConfig &a) {
            a.ghbEntries = 2;
            a.confidenceDisabled = true;
            a.mantissaDropBits = drop;
        });
        points.push_back(
            {"drop-" + std::to_string(drop), "fluidanimate", cfg});
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    for (std::size_t i = 0; i < std::size(drops); ++i) {
        const EvalResult &r = results[i];
        table.addRow({std::to_string(drops[i]),
                      fmtDouble(r.stats.valueOf("eval.normMpki"), 3),
                      fmtPercent(r.stats.valueOf("eval.outputError"), 1),
                      fmtPercent(r.stats.valueOf("eval.coverage"), 1)});
    }

    table.print("Figure 13: fluidanimate MPKI vs FP precision loss "
                "(GHB 2, confidence disabled)");
    table.writeCsv(resultsPath("fig13_precision.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("fig13_precision.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("fig13_precision", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
