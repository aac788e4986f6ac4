/**
 * @file
 * Ablation: approximator table associativity. Section VI-A observes
 * that similar floating-point contexts alias destructively in the
 * direct-mapped table and suggests growing it; associativity is the
 * other classic remedy. This bench holds total entries at 512 and
 * sweeps 1/2/4/8 ways.
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

    BenchTimer timer("ablation_table_assoc");
    Evaluator eval;
    std::printf("Table-associativity ablation (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 ways[] = {1, 2, 4, 8};

    Table mpki({"benchmark", "1-way", "2-way", "4-way", "8-way"});
    Table error({"benchmark", "1-way", "2-way", "4-way", "8-way"});

    const SweepOptions opts =
        sweepOptionsFromCli("ablation_table_assoc", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 w : ways) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            // GHB 2 makes contexts value-dependent, where aliasing
            // actually occurs (PC-only contexts are too few to alias).
            cfg.editApprox([&](ApproximatorConfig &a) {
                a.ghbEntries = 2;
                a.tableAssoc = w;
            });
            points.push_back(
                {"ways-" + std::to_string(w), name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> m_row = {name};
        std::vector<std::string> e_row = {name};
        for (std::size_t i = 0; i < std::size(ways); ++i) {
            const EvalResult &r = results[next++];
            m_row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            e_row.push_back(
                fmtPercent(r.stats.valueOf("eval.outputError"), 1));
        }
        mpki.addRow(m_row);
        error.addRow(e_row);
    }

    mpki.print("Associativity ablation (GHB 2): normalized MPKI");
    error.print("Associativity ablation (GHB 2): output error");
    mpki.writeCsv(resultsPath("ablation_table_assoc_mpki.csv"));
    error.writeCsv(resultsPath("ablation_table_assoc_error.csv"));
    std::printf("\nwrote results/ablation_table_assoc_{mpki,error}"
                ".csv\n");
    std::printf("wrote %s\n",
                exportSweepStats("ablation_table_assoc", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
