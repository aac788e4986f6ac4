/**
 * @file
 * Regenerates paper Figure 4: effective MPKI (normalized to precise
 * execution) of LVA versus an idealized LVP, for global history buffer
 * sizes 0, 1, 2 and 4.
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

    BenchTimer timer("fig4_ghb_mpki");
    Evaluator eval;
    std::printf("Figure 4 reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    const u32 ghb_sizes[] = {0, 1, 2, 4};

    Table table({"benchmark", "LVP-GHB-0", "LVP-GHB-1", "LVP-GHB-2",
                 "LVP-GHB-4", "LVA-GHB-0", "LVA-GHB-1", "LVA-GHB-2",
                 "LVA-GHB-4"});

    std::vector<double> lvp_sum(4, 0.0), lva_sum(4, 0.0);

    // 8 sweep points per benchmark: LVP then LVA across GHB sizes.
    const SweepOptions opts =
        sweepOptionsFromCli("fig4_ghb_mpki", argc, argv);

    std::vector<SweepPoint> points;
    for (const auto &name : allWorkloadNames()) {
        for (u32 i = 0; i < 4; ++i) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.mode = MemMode::Lvp;
            cfg.editApprox([&](ApproximatorConfig &a) {
                a.ghbEntries = ghb_sizes[i];
            });
            points.push_back(
                {"lvp-ghb-" + std::to_string(ghb_sizes[i]), name,
                 cfg});
        }
        for (u32 i = 0; i < 4; ++i) {
            ApproxMemory::Config cfg = sweepMachine(opts).phase1Lva();
            cfg.editApprox([&](ApproximatorConfig &a) {
                a.ghbEntries = ghb_sizes[i];
            });
            points.push_back(
                {"lva-ghb-" + std::to_string(ghb_sizes[i]), name,
                 cfg});
        }
    }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opts);
    const std::vector<EvalResult> &results = outcome.results;

    std::size_t next = 0;
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> row = {name};
        for (u32 i = 0; i < 4; ++i) {
            const EvalResult &r = results[next++];
            row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            lvp_sum[i] += r.stats.valueOf("eval.normMpki");
        }
        for (u32 i = 0; i < 4; ++i) {
            const EvalResult &r = results[next++];
            row.push_back(fmtDouble(r.stats.valueOf("eval.normMpki"), 3));
            lva_sum[i] += r.stats.valueOf("eval.normMpki");
        }
        table.addRow(row);
    }

    const double n = static_cast<double>(allWorkloadNames().size());
    std::vector<std::string> avg = {"average"};
    for (u32 i = 0; i < 4; ++i)
        avg.push_back(fmtDouble(lvp_sum[i] / n, 3));
    for (u32 i = 0; i < 4; ++i)
        avg.push_back(fmtDouble(lva_sum[i] / n, 3));
    table.addRow(avg);

    table.print("Figure 4: normalized MPKI, LVA vs idealized LVP "
                "(lower is better)");
    table.writeCsv(resultsPath("fig4_ghb_mpki.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("fig4_ghb_mpki.csv").c_str());
    std::printf("wrote %s\n",
                exportSweepStats("fig4_ghb_mpki", points, outcome)
                    .c_str());
    return reportSweepFailures(outcome);
}
