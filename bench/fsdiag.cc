/**
 * @file
 * Full-system diagnostic: per-workload breakdown of the timing replay
 * (cycles, IPC, misses, latency, traffic, energy) for the precise
 * baseline and LVA at degrees 0 and 16. Useful when validating the
 * timing model or exploring configurations.
 *
 * Usage: fsdiag [--stats] [workload ...]   (default: all)
 *
 * With --stats, gem5-style statistics files are written to
 * results/stats/<workload>_<config>.txt for every replay.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/fullsystem_eval.hh"
#include "eval/stat_report.hh"
#include "eval/sweep.hh"
#include "util/bench_timer.hh"
#include "util/results_dir.hh"
#include "util/table.hh"
#include "workloads/workload.hh"

namespace {

void
addRow(lva::Table &t, const char *label,
       const lva::FullSystemResult &r)
{
    using lva::fmtDouble;
    t.addRow({label, fmtDouble(r.cycles / 1e6, 2), fmtDouble(r.ipc, 2),
              std::to_string(r.l1Misses),
              std::to_string(r.demandMisses),
              std::to_string(r.approxMisses),
              std::to_string(r.fetchesSkipped),
              fmtDouble(r.avgL1MissLatency, 1),
              std::to_string(r.dramAccesses),
              std::to_string(r.flitHops),
              fmtDouble(r.nocQueueWait / 1e6, 2),
              fmtDouble(r.memQueueWait / 1e6, 2),
              fmtDouble(r.bankQueueWait / 1e6, 2),
              fmtDouble(r.energy.total() / 1e6, 3)});
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lva;

    bool stats = false;
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--stats"))
            stats = true;
        else
            names.push_back(argv[i]);
    }
    if (names.empty())
        names = allWorkloadNames();

    BenchTimer timer("fsdiag");
    // fsdiag has its own CLI (--stats, workload names), so the
    // robustness knobs — and the machine, via LVA_MACHINE — arrive
    // through the environment only.
    SweepOptions opts;
    opts.driver = "fsdiag";
    opts = resolveSweepOptions(opts);
    SweepRunner runner;
    const auto outcome = runner.mapChecked(
        names.size(),
        [&](u64 i) {
            return runFullSystemSweep(names[i], {0, 16}, 1, 0.0,
                                      sweepMachine(opts));
        },
        opts, [&names](u64 i) { return names[i]; });

    std::vector<FsSweep> sweeps;
    for (std::size_t w = 0; w < names.size(); ++w) {
        if (!outcome.results[w]) // listed in the failures section
            continue;
        const FsSweep &sweep = *outcome.results[w];
        sweeps.push_back(sweep);
        const std::string &name = names[w];
        Table t({"config", "Mcycles", "IPC", "L1miss", "demand",
                 "approx", "skipped", "missLat", "dram", "flitHops",
                 "nocWaitM", "memWaitM", "bankWaitM", "mJ*1e-6"});
        addRow(t, "precise", sweep.baseline);
        addRow(t, "lva-0", sweep.lva[0]);
        addRow(t, "lva-16", sweep.lva[1]);
        t.print("fsdiag: " + name);

        if (stats) {
            reportFullSystem(sweep.baseline, name + ".precise")
                .writeFile(
                    resultsPath("stats/" + name + "_precise.txt"));
            reportFullSystem(sweep.lva[0], name + ".lva0")
                .writeFile(resultsPath("stats/" + name + "_lva0.txt"));
            reportFullSystem(sweep.lva[1], name + ".lva16")
                .writeFile(
                    resultsPath("stats/" + name + "_lva16.txt"));
            std::printf(
                "wrote %s\n",
                resultsPath("stats/" + name + "_{precise,lva0,lva16}.txt")
                    .c_str());
        }
    }
    std::printf("wrote %s\n",
                writeStatsJson("fsdiag", fsSweepSnapshots(sweeps),
                               outcome.failures)
                    .c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
