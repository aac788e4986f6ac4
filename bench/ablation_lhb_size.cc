/**
 * @file
 * Ablation: local history buffer depth (the baseline uses 4 entries).
 * Deeper LHBs smooth the AVERAGE estimate but respond more slowly to
 * value drift.
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

    BenchTimer timer("ablation_lhb_size");
    Evaluator eval;
    std::printf("LHB-size ablation (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 sizes[] = {1, 2, 4, 8};

    Table mpki({"benchmark", "LHB-1", "LHB-2", "LHB-4", "LHB-8"});
    Table error({"benchmark", "LHB-1", "LHB-2", "LHB-4", "LHB-8"});

    const SweepOptions opts =
        sweepOptionsFromCli("ablation_lhb_size", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 entries : sizes) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox(
                [&](ApproximatorConfig &a) { a.lhbEntries = entries; });
            points.push_back(
                {"lhb-" + std::to_string(entries), name, cfg});
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

    mpki.print("LHB-size ablation: normalized MPKI");
    error.print("LHB-size ablation: output error");
    mpki.writeCsv(resultsPath("ablation_lhb_size_mpki.csv"));
    error.writeCsv(resultsPath("ablation_lhb_size_error.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("ablation_lhb_size_{mpki,error}.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("ablation_lhb_size", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
