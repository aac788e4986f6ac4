/**
 * @file
 * lva_explore — command-line design-space exploration.
 *
 * Runs any workload under any approximator configuration and prints
 * the phase-1 metrics, so new configurations can be explored without
 * writing code:
 *
 *   lva_explore --workload canneal --degree 4 --window 0.2
 *   lva_explore --workload ferret --mode lvp --ghb 2
 *   lva_explore --workload all --estimator stride --seeds 3
 *   lva_explore --machine examples/machine-2core.json \
 *       --machine examples/machine-hetero.json --degree 4
 *
 * Options (defaults = paper baseline):
 *   --workload NAME|all     benchmark to run          [all]
 *   --mode lva|lvp|prefetch|precise                   [lva]
 *   --ghb N                 global history entries    [0]
 *   --lhb N                 local history entries     [4]
 *   --table N               approximator table size   [512]
 *   --window F              confidence window (inf ok)[0.10]
 *   --conf-ints             apply confidence to ints  [off]
 *   --no-conf               disable confidence        [off]
 *   --proportional          proportional conf updates [off]
 *   --degree N              approximation degree      [0]
 *   --delay N               value delay (loads)       [4]
 *   --mantissa-drop N       FP hash mantissa bits cut [0]
 *   --estimator average|last|stride                   [average]
 *   --prefetch-degree N     (prefetch mode)           [4]
 *   --seeds N               averaging runs            [5]
 *   --scale F               working-set scale         [1.0]
 *   --machine FILE          lva-machine-v1 topology file
 *                           (docs/topology.md; also LVA_MACHINE)
 *
 * Topology axis: --machine is repeatable. Each file contributes one
 * sweep axis labeled "explore@<name>", and the approximator flags are
 * recorded as edits replayed on top of every machine's phase-1 base —
 * so `--machine a.json --machine b.json --degree 4` compares the same
 * configuration across topologies in a single run. Flag overrides
 * apply to every per-core variant a heterogeneous machine carries
 * (the same semantics as RPC config overrides, src/eval/service.cc).
 *
 * Robustness (DESIGN.md section 13):
 *   --checkpoint            record completed points in a manifest
 *   --resume                skip points already in the manifest
 *   --retries N             re-attempt a failed point up to N times
 *   --timeout-ms N          per-point deadline (needs LVA_JOBS >= 2)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "eval/sweep.hh"
#include "sim/machine_config.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace lva;

namespace {

struct Options
{
    std::string workload = "all";
    /** Flag handlers, replayed on top of every machine base. */
    std::vector<std::function<void(ApproxMemory::Config &)>> edits;
    std::vector<std::string> machineFiles;
    u32 seeds = 0;
    double scale = 0.0;
    SweepOptions sweep;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workload NAME|all] [--mode "
                 "lva|lvp|prefetch|precise]\n"
                 "  [--ghb N] [--lhb N] [--table N] [--window F|inf]\n"
                 "  [--conf-ints] [--no-conf] [--proportional]\n"
                 "  [--degree N] [--delay N] [--mantissa-drop N]\n"
                 "  [--estimator average|last|stride]\n"
                 "  [--prefetch-degree N] [--seeds N] [--scale F]\n"
                 "  [--machine FILE]...\n"
                 "  [--checkpoint] [--resume] [--retries N]\n"
                 "  [--timeout-ms N]\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto orUsage = [&](auto v) {
        if (!v)
            usage(argv[0]);
        return *v;
    };
    auto count = [&](int &i, u64 hi) {
        return orUsage(parseU64(need(i), 0, hi));
    };
    // Approximator fields take any u32; the mechanism judges them.
    auto field = [&](int &i) { return static_cast<u32>(count(i, ~0u)); };
    // Approximator-field edits touch the base approximator and every
    // per-core variant of a heterogeneous machine, so an explicit
    // flag overrides all of them (mirrors the RPC semantics).
    auto approxEdit = [&opt](auto fn) {
        opt.edits.push_back(
            [fn](ApproxMemory::Config &cfg) { cfg.editApprox(fn); });
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            opt.workload = need(i);
        } else if (arg == "--mode") {
            const std::string m = need(i);
            MemMode mode;
            if (m == "lva")
                mode = MemMode::Lva;
            else if (m == "lvp")
                mode = MemMode::Lvp;
            else if (m == "prefetch")
                mode = MemMode::Prefetch;
            else if (m == "precise")
                mode = MemMode::Precise;
            else
                usage(argv[0]);
            opt.edits.push_back(
                [mode](ApproxMemory::Config &cfg) { cfg.mode = mode; });
        } else if (arg == "--ghb") {
            const u32 v = field(i);
            approxEdit(
                [v](ApproximatorConfig &a) { a.ghbEntries = v; });
        } else if (arg == "--lhb") {
            const u32 v = field(i);
            approxEdit(
                [v](ApproximatorConfig &a) { a.lhbEntries = v; });
        } else if (arg == "--table") {
            const u32 v = field(i);
            approxEdit(
                [v](ApproximatorConfig &a) { a.tableEntries = v; });
        } else if (arg == "--window") {
            const std::string w = need(i);
            const double v =
                w == "inf" ? std::numeric_limits<double>::infinity()
                           : orUsage(parseF64(w.c_str(), 0.0,
                                     std::numeric_limits<double>::max()));
            approxEdit(
                [v](ApproximatorConfig &a) { a.confidenceWindow = v; });
        } else if (arg == "--conf-ints") {
            approxEdit(
                [](ApproximatorConfig &a) { a.confidenceForInts = true; });
        } else if (arg == "--no-conf") {
            approxEdit([](ApproximatorConfig &a) {
                a.confidenceDisabled = true;
            });
        } else if (arg == "--proportional") {
            approxEdit([](ApproximatorConfig &a) {
                a.proportionalConfidence = true;
            });
        } else if (arg == "--degree") {
            const u32 v = field(i);
            approxEdit(
                [v](ApproximatorConfig &a) { a.approxDegree = v; });
        } else if (arg == "--delay") {
            const u32 v = field(i);
            approxEdit(
                [v](ApproximatorConfig &a) { a.valueDelay = v; });
        } else if (arg == "--mantissa-drop") {
            const u32 v = field(i);
            approxEdit(
                [v](ApproximatorConfig &a) { a.mantissaDropBits = v; });
        } else if (arg == "--estimator") {
            const std::string e = need(i);
            Estimator est;
            if (e == "average")
                est = Estimator::Average;
            else if (e == "last")
                est = Estimator::Last;
            else if (e == "stride")
                est = Estimator::Stride;
            else
                usage(argv[0]);
            approxEdit(
                [est](ApproximatorConfig &a) { a.estimator = est; });
        } else if (arg == "--prefetch-degree") {
            const u32 v = field(i);
            opt.edits.push_back([v](ApproxMemory::Config &cfg) {
                cfg.prefetch.degree = v;
            });
        } else if (arg == "--machine") {
            opt.machineFiles.push_back(need(i));
        } else if (arg == "--seeds") {
            opt.seeds = static_cast<u32>(count(i, 64)); // LVA_SEEDS's
        } else if (arg == "--scale") {
            opt.scale = orUsage(parseF64(need(i), 0.0, 4.0)); // LVA_SCALE's
        } else if (arg == "--checkpoint") {
            opt.sweep.checkpoint = true;
        } else if (arg == "--resume") {
            opt.sweep.resume = true;
        } else if (arg == "--retries") {
            opt.sweep.maxAttempts = static_cast<u32>(count(i, 99)) + 1;
        } else if (arg == "--timeout-ms") {
            opt.sweep.timeoutMs = count(i, 86400000);
        } else {
            usage(argv[0]);
        }
    }
    opt.sweep.driver = "lva_explore";
    return opt;
}

/** One topology axis: a point label and the edited base config. */
struct Axis
{
    std::string label;
    ApproxMemory::Config cfg;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    Evaluator eval(opt.seeds, opt.scale);

    // Resolve LVA_MACHINE (and the robustness knobs) up front: the
    // topology axis must be known before points are built.
    opt.sweep = resolveSweepOptions(opt.sweep);

    const std::string prefix = "explore@";
    std::vector<Axis> axes;
    if (!opt.machineFiles.empty()) {
        for (const std::string &file : opt.machineFiles) {
            try {
                auto m = std::make_shared<const MachineConfig>(
                    machineFromFile(file));
                axes.push_back({prefix + m->name, m->phase1Lva()});
                // A single explicit machine also scopes the sweep
                // manifest (the flag wins over LVA_MACHINE).
                if (opt.machineFiles.size() == 1)
                    opt.sweep.machine = m;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "lva_explore: %s\n", e.what());
                return 2;
            }
        }
        for (std::size_t i = 1; i < axes.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (axes[i].label == axes[j].label) {
                    std::fprintf(stderr,
                                 "lva_explore: duplicate machine name "
                                 "'%s' -- give each --machine file a "
                                 "distinct \"name\"\n",
                                 axes[i].label.c_str() + prefix.size());
                    return 2;
                }
    } else {
        axes.push_back({opt.sweep.machine ? prefix + opt.sweep.machine->name
                                          : std::string("explore"),
                        sweepMachine(opt.sweep).phase1Lva()});
    }
    for (Axis &axis : axes)
        for (const auto &edit : opt.edits)
            edit(axis.cfg);

    std::vector<std::string> names;
    if (opt.workload == "all")
        names = allWorkloadNames();
    else
        names.push_back(opt.workload);

    const ApproxMemory::Config &shown = axes.front().cfg;
    std::printf("lva_explore: mode=%s ghb=%u lhb=%u table=%u "
                "window=%.3g degree=%u delay=%u estimator=%s "
                "seeds=%u scale=%.2f\n",
                memModeName(shown.mode), shown.approx.ghbEntries,
                shown.approx.lhbEntries, shown.approx.tableEntries,
                shown.approx.confidenceWindow, shown.approx.approxDegree,
                shown.approx.valueDelay,
                estimatorName(shown.approx.estimator), eval.seeds(),
                eval.scale());
    if (axes.front().label != "explore") {
        std::string joined;
        for (const Axis &axis : axes) {
            if (!joined.empty())
                joined += ",";
            joined += axis.label.substr(prefix.size());
        }
        std::printf("lva_explore: machines=%s\n", joined.c_str());
    }

    Table table({"benchmark", "MPKI", "norm MPKI", "norm fetches",
                 "coverage", "output error"});

    std::vector<SweepPoint> points;
    std::vector<std::string> rows;
    for (const Axis &axis : axes)
        for (const auto &name : names) {
            points.push_back({axis.label, name, axis.cfg});
            rows.push_back(axes.size() == 1
                               ? name
                               : name + "@" +
                                     axis.label.substr(prefix.size()));
        }

    SweepRunner runner(eval);
    const SweepOutcome outcome = runner.runChecked(points, opt.sweep);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const EvalResult &r = outcome.results[i];
        table.addRow(
            {rows[i], fmtDouble(r.stats.valueOf("eval.mpki"), 3),
             fmtDouble(r.stats.valueOf("eval.normMpki"), 3),
             fmtDouble(r.stats.valueOf("eval.normFetches"), 3),
             fmtPercent(r.stats.valueOf("eval.coverage"), 1),
             fmtPercent(r.stats.valueOf("eval.outputError"), 1)});
    }
    table.print("results");
    std::printf(
        "wrote %s\n",
        exportSweepStats("lva_explore", points, outcome).c_str());
    return reportSweepFailures(outcome);
}
