/**
 * @file
 * Regenerates paper Figure 1: the bodytrack output under precise
 * execution (a) and under load value approximation (b), rendered as
 * PGM images, plus the tracking output error.
 */

#include <cstdio>
#include <memory>

#include "core/approx_memory.hh"
#include "eval/stat_report.hh"
#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"
#include "workloads/bodytrack.hh"

int
main(int argc, char **argv)
{
    using namespace lva;

    BenchTimer timer("fig1_bodytrack_output");
    WorkloadParams params;
    params.seed = 1;

    // Run precise (index 0) and baseline LVA (index 1) in parallel,
    // keeping each run's registry snapshot for the JSON export.
    struct Run
    {
        std::unique_ptr<BodytrackWorkload> w;
        StatSnapshot stats;
    };
    const SweepOptions opts =
        sweepOptionsFromCli("fig1_bodytrack_output", argc, argv);
    const ApproxMemory::Config lva_cfg = sweepMachine(opts).phase1Lva();
    params.threads = lva_cfg.threads;
    SweepRunner runner;
    auto outcome = runner.mapChecked(
        2,
        [&](u64 i) {
            Run run;
            run.w = std::make_unique<BodytrackWorkload>(params);
            run.w->generate();
            ApproxMemory mem(i == 0
                                 ? Evaluator::preciseBaseFor(lva_cfg)
                                 : lva_cfg);
            run.w->run(mem);
            run.stats = mem.snapshot();
            return run;
        },
        opts,
        [](u64 i) { return std::string(i == 0 ? "precise" : "lva"); });
    if (!outcome.ok()) {
        // The figure is a comparison: without both runs there is
        // nothing to render, but whatever completed still exports.
        std::vector<NamedSnapshot> snaps;
        if (outcome.results[0])
            snaps.push_back(
                {"precise", "bodytrack", outcome.results[0]->stats});
        if (outcome.results[1])
            snaps.push_back(
                {"lva", "bodytrack", outcome.results[1]->stats});
        std::printf("wrote %s\n",
                    writeStatsJson("fig1_bodytrack_output", snaps,
                                   outcome.failures).c_str());
        return reportSweepFailures(outcome.failures, 2);
    }
    auto &runs = outcome.results;
    BodytrackWorkload &precise = *runs[0]->w;
    BodytrackWorkload &approx = *runs[1]->w;

    precise.renderTrack().writePgm(resultsPath("fig1_precise.pgm"));
    approx.renderTrack().writePgm(resultsPath("fig1_approx.pgm"));

    const double err = approx.outputErrorVs(precise);
    std::printf("Figure 1: bodytrack output\n");
    std::printf("  precise track -> results/fig1_precise.pgm\n");
    std::printf("  LVA track     -> results/fig1_approx.pgm\n");
    std::printf("  tracking output error: %.1f%% (paper: 7.7%%)\n",
                err * 100.0);

    const double img_diff = GrayImage::meanAbsDiff(
        precise.renderTrack(), approx.renderTrack());
    std::printf("  mean absolute pixel difference: %.2f / 255 "
                "(nearly indiscernible, as in the paper)\n", img_diff);

    std::printf("wrote %s\n",
                writeStatsJson(
                    "fig1_bodytrack_output",
                    {{"precise", "bodytrack", runs[0]->stats},
                     {"lva", "bodytrack", runs[1]->stats}})
                    .c_str());
    return 0;
}
