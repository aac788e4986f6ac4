/**
 * @file
 * Ablation: approximator table size. Paper section VII-A argues the
 * hardware budget can shrink well below 512 entries because so few
 * static loads access approximate data (Figure 12); this bench sweeps
 * the table from 32 to 2048 entries.
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

    BenchTimer timer("ablation_table_size");
    Evaluator eval;
    std::printf("Table-size ablation (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 sizes[] = {32, 128, 512, 2048};

    Table mpki({"benchmark", "32", "128", "512", "2048"});
    Table error({"benchmark", "32", "128", "512", "2048"});

    const SweepOptions opts =
        sweepOptionsFromCli("ablation_table_size", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 entries : sizes) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox([&](ApproximatorConfig &a) {
                a.tableEntries = entries;
            });
            points.push_back(
                {"entries-" + std::to_string(entries), name, cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> m_row = {name};
        std::vector<std::string> e_row = {name};
        for (std::size_t i = 0; i < std::size(sizes); ++i) {
            const EvalResult &r = results[next++];
            m_row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            e_row.push_back(
                fmtPercent(r.stats.valueOf("eval.outputError"), 1));
        }
        mpki.addRow(m_row);
        error.addRow(e_row);
    }

    mpki.print("Table-size ablation: normalized MPKI by entries");
    error.print("Table-size ablation: output error by entries");
    mpki.writeCsv(resultsPath("ablation_table_size_mpki.csv"));
    error.writeCsv(resultsPath("ablation_table_size_error.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_table_size_{mpki,error}.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("ablation_table_size", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
