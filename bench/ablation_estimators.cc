/**
 * @file
 * Ablation: the computation function f over the LHB. The paper "tried
 * different LHB functions such as strides and deltas and found average
 * to be most accurate" (section VI); this bench reproduces that design
 * decision by sweeping AVERAGE / LAST / STRIDE.
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

    BenchTimer timer("ablation_estimators");
    Evaluator eval;
    std::printf("Estimator ablation (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const Estimator fns[] = {Estimator::Average, Estimator::Last,
                             Estimator::Stride};
    const char *fn_names[] = {"AVERAGE", "LAST", "STRIDE"};

    Table mpki({"benchmark", "AVERAGE", "LAST", "STRIDE"});
    Table error({"benchmark", "AVERAGE", "LAST", "STRIDE"});

    std::vector<double> mpki_sum(3, 0.0), err_sum(3, 0.0);

    const SweepOptions opts =
        sweepOptionsFromCli("ablation_estimators", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 i = 0; i < 3; ++i) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox(
                [&](ApproximatorConfig &a) { a.estimator = fns[i]; });
            points.push_back(
                {fn_names[i], name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> m_row = {name};
        std::vector<std::string> e_row = {name};
        for (u32 i = 0; i < 3; ++i) {
            const EvalResult &r = results[next++];
            m_row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            e_row.push_back(
                fmtPercent(r.stats.valueOf("eval.outputError"), 1));
            mpki_sum[i] += r.stats.valueOf("eval.normMpki");
            err_sum[i] += r.stats.valueOf("eval.outputError");
        }
        mpki.addRow(m_row);
        error.addRow(e_row);
    }
    const double n = static_cast<double>(allWorkloadNames().size());
    mpki.addRow({"average", fmtDouble(mpki_sum[0] / n, 3),
                 fmtDouble(mpki_sum[1] / n, 3),
                 fmtDouble(mpki_sum[2] / n, 3)});
    error.addRow({"average", fmtPercent(err_sum[0] / n, 1),
                  fmtPercent(err_sum[1] / n, 1),
                  fmtPercent(err_sum[2] / n, 1)});

    mpki.print("Estimator ablation: normalized MPKI");
    error.print("Estimator ablation: output error");
    mpki.writeCsv(resultsPath("ablation_estimators_mpki.csv"));
    error.writeCsv(resultsPath("ablation_estimators_error.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_estimators_{mpki,error}.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("ablation_estimators", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
