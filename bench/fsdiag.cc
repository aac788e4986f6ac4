/**
 * @file
 * Full-system diagnostic: per-workload breakdown of the timing replay
 * (cycles, IPC, misses, latency, traffic, energy) for the precise
 * baseline and LVA at degrees 0 and 16. Useful when validating the
 * timing model or exploring configurations.
 *
 * Usage: fsdiag [workload ...]   (default: all)
 *
 * Every replay's full statistics land in results/stats/fsdiag.json
 * (lva-stats-v1), one point per workload and configuration.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "eval/fullsystem_eval.hh"
#include "eval/sweep.hh"
#include "util/bench_timer.hh"
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

    std::vector<std::string> names(argv + 1, argv + argc);
    for (const std::string &name : names) {
        if (name.empty() || name[0] == '-') {
            std::fprintf(stderr, "usage: %s [workload ...]\n", argv[0]);
            return 2;
        }
    }
    if (names.empty())
        names = allWorkloadNames();

    BenchTimer timer("fsdiag");
    // fsdiag's CLI is the workload list, so the robustness knobs —
    // and the machine, via LVA_MACHINE — arrive through the
    // environment only.
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
    }
    std::printf("wrote %s\n",
                writeStatsJson("fsdiag", fsSweepSnapshots(sweeps),
                               outcome.failures)
                    .c_str());
    return reportSweepFailures(outcome.failures, names.size());
}
