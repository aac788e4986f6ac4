/**
 * @file
 * Simulated-annealing chip placement under LVA — the canneal scenario:
 * the highest-MPKI workload in the paper, where approximating the
 * <x, y> coordinate loads in the routing-cost function removes most
 * misses from the critical path, and the approximation degree trades
 * fetch energy against placement quality.
 *
 * Build & run:  ./build/examples/annealing_placement
 */

#include <cstdio>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "util/table.hh"
#include "workloads/canneal.hh"

using namespace lva;

int
main()
{
    WorkloadParams params;
    params.seed = 3;
    params.scale = 1.0;

    // Golden: precise annealing.
    CannealWorkload golden(params);
    golden.generate();
    ApproxMemory golden_mem(defaultMachine().phase1Precise());
    golden.run(golden_mem);
    const MemMetrics pm = golden_mem.metrics();

    std::printf("annealing_placement: precise routing cost %.0f "
                "(MPKI %.2f)\n\n",
                golden.finalCost(), pm.mpki());

    Table table({"approx degree", "routing cost", "cost error",
                 "eff. MPKI", "fetches vs precise"});

    for (u32 degree : {0u, 4u, 16u}) {
        CannealWorkload w(params);
        w.generate();
        ApproxMemory::Config cfg = defaultMachine().phase1Lva();
        cfg.editApprox(
            [&](ApproximatorConfig &a) { a.approxDegree = degree; });
        ApproxMemory mem(cfg);
        w.run(mem);
        const MemMetrics m = mem.metrics();

        table.addRow({std::to_string(degree),
                      fmtDouble(w.finalCost(), 0),
                      fmtPercent(w.outputErrorVs(golden), 2),
                      fmtDouble(m.mpki(), 2),
                      fmtPercent(static_cast<double>(m.fetches) /
                                     static_cast<double>(pm.fetches),
                                 1)});
    }

    table.print("placement quality vs memory savings");
    std::printf("\nHigher degrees fetch less (energy) at slightly "
                "worse placements -- the paper's energy-error "
                "trade-off.\n");
    return 0;
}
