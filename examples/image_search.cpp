/**
 * @file
 * Image-similarity search under load value approximation — the
 * ferret-style scenario from the paper's introduction, using the
 * library's public workload API.
 *
 * We run the content-based search precisely and with LVA, then show
 * that the returned result sets overlap almost entirely while a large
 * fraction of database misses never waited on memory.
 *
 * Build & run:  ./build/examples/image_search
 */

#include <cstdio>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "workloads/ferret.hh"

using namespace lva;

int
main()
{
    WorkloadParams params;
    params.seed = 7;
    params.scale = 0.5;

    // Golden run: exact nearest-neighbour search.
    FerretWorkload golden(params);
    golden.generate();
    ApproxMemory golden_mem(defaultMachine().phase1Precise());
    golden.run(golden_mem);

    // Approximate run: the paper's baseline LVA beside each L1.
    FerretWorkload approx(params);
    approx.generate();
    ApproxMemory approx_mem(defaultMachine().phase1Lva());
    approx.run(approx_mem);

    const MemMetrics pm = golden_mem.metrics();
    const MemMetrics am = approx_mem.metrics();

    std::printf("image_search: %zu queries over the feature "
                "database\n\n",
                golden.results().size());

    for (std::size_t q = 0; q < golden.results().size(); ++q) {
        u32 overlap = 0;
        for (u32 id : approx.results()[q])
            for (u32 ref : golden.results()[q])
                if (id == ref) {
                    ++overlap;
                    break;
                }
        std::printf("  query %zu: %u of %u precise results retained\n",
                    q, overlap, FerretWorkload::topK);
    }

    std::printf("\nsearch quality error (1 - overlap): %.1f%%\n",
                approx.outputErrorVs(golden) * 100.0);
    std::printf("effective MPKI:  precise %.3f -> LVA %.3f "
                "(%.1f%% reduction)\n",
                pm.mpki(), am.mpki(),
                (1.0 - am.mpki() / pm.mpki()) * 100.0);
    std::printf("approximable-load coverage: %.1f%%\n",
                am.coverage() * 100.0);
    return 0;
}
