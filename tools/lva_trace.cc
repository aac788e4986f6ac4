/**
 * @file
 * lva_trace — record, inspect and replay full-system traces.
 *
 *   lva_trace record <workload> <file> [--seed N] [--scale F]
 *       [--machine FILE]
 *   lva_trace info <file>
 *   lva_trace replay <file> [--degree N] [--precise] [--hetero]
 *       [--machine FILE]
 *
 * Recording runs the workload's precise execution once and saves the
 * per-thread access stream (one thread per core of the machine, the
 * Table II 4-core CMP by default); replay drives the full-system
 * timing model without re-executing the workload. --machine swaps in
 * an lva-machine-v1 topology file (docs/topology.md) on either side;
 * a replayed trace must carry exactly one thread per replay core.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "cpu/trace.hh"
#include "cpu/trace_io.hh"
#include "sim/full_system.hh"
#include "sim/machine_config.hh"
#include "util/env_knob.hh"
#include "workloads/workload.hh"

using namespace lva;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  lva_trace record <workload> <file> [--seed N] [--scale F]\n"
        "      [--machine FILE]\n"
        "  lva_trace info <file>\n"
        "  lva_trace replay <file> [--degree N] [--precise] "
        "[--hetero]\n"
        "      [--machine FILE]\n");
    std::exit(2);
}

/** A parsed flag value, or usage() (exit 2) when it did not parse. */
template <typename T>
T
orUsage(const std::optional<T> &v)
{
    if (!v)
        usage();
    return *v;
}

/** Load an lva-machine-v1 file or exit with its parse diagnostic. */
MachineConfig
loadMachineOrDie(const char *path)
{
    try {
        return machineFromFile(path);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lva_trace: %s\n", e.what());
        std::exit(2);
    }
}

int
cmdRecord(int argc, char **argv)
{
    if (argc < 4)
        usage();
    WorkloadParams params;
    for (int i = 4; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            params.seed = orUsage(parseU64(argv[++i], 0, ~u64(0)));
        else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc)
            params.scale = orUsage(parseF64(argv[++i], 1e-6, 4.0));
        else if (!std::strcmp(argv[i], "--machine") && i + 1 < argc)
            params.threads = loadMachineOrDie(argv[++i]).cores;
        else
            usage();
    }
    auto w = makeWorkload(argv[2], params);
    w->generate();
    TraceRecorder rec(params.threads);
    w->run(rec);
    writeTraces(rec.traces(), argv[3]);
    std::printf("recorded %llu events (%llu instructions) from %s "
                "into %s\n",
                static_cast<unsigned long long>(rec.totalEvents()),
                static_cast<unsigned long long>(
                    rec.totalInstructions()),
                argv[2], argv[3]);
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        usage();
    const auto traces = readTraces(argv[2]);
    std::printf("%s: %zu threads\n", argv[2], traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t) {
        u64 loads = 0;
        u64 stores = 0;
        u64 approx = 0;
        u64 dependent = 0;
        u64 instr = 0;
        for (const auto &ev : traces[t]) {
            (ev.isLoad ? loads : stores) += 1;
            approx += ev.approximable;
            dependent += ev.dependsOnPrev;
            instr += ev.instrBefore + 1;
        }
        std::printf("  thread %zu: %llu loads (%llu approximable, "
                    "%llu dependent), %llu stores, %llu instructions\n",
                    t, static_cast<unsigned long long>(loads),
                    static_cast<unsigned long long>(approx),
                    static_cast<unsigned long long>(dependent),
                    static_cast<unsigned long long>(stores),
                    static_cast<unsigned long long>(instr));
    }
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 3)
        usage();
    bool precise = false;
    bool hetero = false;
    u32 degree = 0;
    const char *machineFile = nullptr;
    for (int i = 3; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--degree") && i + 1 < argc)
            degree = static_cast<u32>(orUsage(parseU64(argv[++i], 0, ~0u)));
        else if (!std::strcmp(argv[i], "--precise"))
            precise = true;
        else if (!std::strcmp(argv[i], "--hetero"))
            hetero = true;
        else if (!std::strcmp(argv[i], "--machine") && i + 1 < argc)
            machineFile = argv[++i];
        else
            usage();
    }

    const auto traces = readTraces(argv[2]);
    FullSystemConfig cfg =
        (machineFile != nullptr ? loadMachineOrDie(machineFile)
                                : defaultMachine())
            .fullSystem(/*lvaEnabled=*/!precise, degree);
    if (hetero) // the flag forces it on top of the machine file
        cfg.heteroNoc = true;
    if (traces.size() != cfg.cores) {
        std::fprintf(stderr,
                     "lva_trace: trace has %zu threads but the replay "
                     "machine has %u cores\n",
                     traces.size(), cfg.cores);
        return 2;
    }
    FullSystemSim sim(cfg);
    const FullSystemResult r = sim.run(traces);

    std::printf("replayed %s (%s%s)\n", argv[2],
                precise ? "precise"
                        : ("LVA degree " + std::to_string(degree))
                              .c_str(),
                hetero ? ", hetero NoC" : "");
    std::printf("  cycles            %.0f (IPC %.2f)\n", r.cycles,
                r.ipc);
    std::printf("  L1 misses         %llu (demand %llu, approx %llu, "
                "fetches skipped %llu)\n",
                static_cast<unsigned long long>(r.l1Misses),
                static_cast<unsigned long long>(r.demandMisses),
                static_cast<unsigned long long>(r.approxMisses),
                static_cast<unsigned long long>(r.fetchesSkipped));
    std::printf("  avg miss latency  %.1f cycles\n",
                r.avgL1MissLatency);
    std::printf("  DRAM accesses     %llu\n",
                static_cast<unsigned long long>(r.dramAccesses));
    std::printf("  NoC flit-hops     %llu\n",
                static_cast<unsigned long long>(r.flitHops));
    std::printf("  dyn. energy       %.1f uJ (L1 %.1f, L2 %.1f, DRAM "
                "%.1f, NoC %.1f, approximator %.1f nJ)\n",
                r.energy.total() / 1e3, r.energy.l1, r.energy.l2,
                r.energy.dram, r.energy.noc, r.energy.approximator);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    usage();
}
