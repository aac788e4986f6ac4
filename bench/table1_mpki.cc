/**
 * @file
 * Regenerates paper Table I: precise L1 MPKI per benchmark and the
 * variation in dynamic instruction count when employing load value
 * approximation (baseline configuration).
 */

#include <cstdio>

#include "eval/stat_report.hh"
#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("table1_mpki");
    Evaluator eval;
    std::printf("Table I reproduction (seeds=%u, scale=%.2f)\n",
                eval.seeds(), eval.scale());

    Table table({"benchmark", "L1 MPKI (precise)", "instr variation",
                 "paper MPKI", "paper variation"});

    const char *paper_mpki[] = {"0.93", "4.93", "12.50", "3.28",
                                "1.23", "4.92e-05", "0.59"};
    const char *paper_var[] = {"0.99%", "0.05%", "1.25%", "0.60%",
                               "0.17%", "0.00%", "2.37%"};

    struct Point
    {
        EvalResult precise;
        EvalResult lva;
    };
    const auto &names = allWorkloadNames();
    const SweepOptions opts =
        sweepOptionsFromCli("table1_mpki", argc, argv);
    const ApproxMemory::Config base = sweepMachine(opts).phase1Lva();
    const ApproxMemory::Config precise =
        Evaluator::preciseBaseFor(base);
    SweepRunner runner(eval);
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            return Point{eval.evaluatePrecise(names[i], precise),
                         eval.evaluate(names[i], base)};
        },
        opts, [&names](u64 i) { return names[i]; });

    std::vector<NamedSnapshot> snaps;
    for (std::size_t row = 0; row < names.size(); ++row) {
        if (!outcome.results[row]) {
            // Failed benchmark: an honest nan row; details live in
            // the export's failures section.
            table.addRow({names[row], "nan", "nan", paper_mpki[row],
                          paper_var[row]});
            continue;
        }
        const Point &p = *outcome.results[row];
        const double mpki = p.precise.stats.valueOf("eval.mpki");
        table.addRow({names[row],
                      mpki < 0.01 ? fmtDouble(mpki, 6)
                                  : fmtDouble(mpki, 2),
                      fmtPercent(p.lva.stats.valueOf(
                                     "eval.instrVariation"),
                                 2),
                      paper_mpki[row], paper_var[row]});
        snaps.push_back(
            {names[row] + "/precise", names[row], p.precise.stats});
        snaps.push_back({names[row] + "/lva", names[row], p.lva.stats});
    }

    table.print("Table I: precise L1 MPKI and instruction variation");
    table.writeCsv(resultsPath("table1_mpki.csv"));
    std::printf("\nwrote %s\n",
                resultsPath("table1_mpki.csv").c_str());
    std::printf("wrote %s\n",
                writeStatsJson("table1_mpki", snaps,
                               outcome.failures).c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
