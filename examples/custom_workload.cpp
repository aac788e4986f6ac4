/**
 * @file
 * Bringing your own application to the library: implement the
 * Workload interface for a custom kernel (here, a Jacobi stencil
 * relaxation — physics-style iterative smoothing that tolerates
 * noise), annotate its hot loads, and measure LVA on it with the same
 * machinery the paper benchmarks use.
 *
 * Build & run:  ./build/examples/custom_workload
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "workloads/region.hh"
#include "workloads/workload.hh"

using namespace lva;

namespace {

/**
 * A 2D Jacobi relaxation: each sweep replaces every interior cell by
 * the mean of its four neighbours. The neighbour loads are annotated
 * approximable — a wrong-by-a-few-percent neighbour nudges
 * convergence, it does not break it.
 */
class JacobiWorkload : public Workload
{
  public:
    explicit JacobiWorkload(const WorkloadParams &params)
        : Workload(params)
    {
        siteNbr_ = declareSite("stencil_neighbor", true);
        siteStore_ = declareSite("cell_store", false);
    }

    const char *name() const override { return "jacobi"; }
    ValueKind approxKind() const override
    {
        return ValueKind::Float32;
    }

    void
    generate() override
    {
        dim_ = static_cast<u32>(params_.scaled(512, 32));
        grid_.init(arena_, static_cast<u64>(dim_) * dim_, true);
        next_.init(arena_, static_cast<u64>(dim_) * dim_, false);
        Rng rng(mix64(params_.seed) ^ 0x7aceb1UL);
        for (u64 i = 0; i < grid_.size(); ++i)
            grid_.raw(i) = static_cast<float>(rng.uniform(0.0, 100.0));
    }

    void
    run(MemoryBackend &mem) override
    {
        const u32 sweeps = 6;
        for (u32 s = 0; s < sweeps; ++s) {
            for (u32 y = 1; y + 1 < dim_; ++y) {
                const ThreadId tid = threadOf(y);
                for (u32 x = 1; x + 1 < dim_; ++x) {
                    const u64 i = static_cast<u64>(y) * dim_ + x;
                    const float up =
                        grid_.load(mem, tid, siteNbr_, i - dim_);
                    const float down =
                        grid_.load(mem, tid, siteNbr_, i + dim_);
                    const float left =
                        grid_.load(mem, tid, siteNbr_, i - 1);
                    const float right =
                        grid_.load(mem, tid, siteNbr_, i + 1);
                    next_.store(mem, tid, siteStore_, i,
                                0.25f * (up + down + left + right));
                    mem.tickInstructions(tid, 12);
                }
            }
            for (u64 i = 0; i < grid_.size(); ++i)
                grid_.raw(i) = next_.raw(i);
        }
        mem.finish();
    }

    double
    outputErrorVs(const Workload &golden) const override
    {
        const auto &ref = dynamic_cast<const JacobiWorkload &>(golden);
        double err = 0.0;
        double norm = 0.0;
        for (u64 i = 0; i < grid_.size(); ++i) {
            err += std::fabs(grid_.raw(i) - ref.grid_.raw(i));
            norm += std::fabs(ref.grid_.raw(i));
        }
        return norm > 0.0 ? err / norm : 0.0;
    }

  private:
    u32 dim_ = 0;
    Region<float> grid_;
    Region<float> next_;
    LoadSiteId siteNbr_, siteStore_;
};

} // namespace

int
main()
{
    WorkloadParams params;
    params.seed = 5;

    JacobiWorkload golden(params);
    golden.generate();
    ApproxMemory golden_mem(defaultMachine().phase1Precise());
    golden.run(golden_mem);

    JacobiWorkload approx(params);
    approx.generate();
    ApproxMemory::Config cfg = defaultMachine().phase1Lva();
    cfg.editApprox([](ApproximatorConfig &a) { a.approxDegree = 8; });
    ApproxMemory approx_mem(cfg);
    approx.run(approx_mem);

    const MemMetrics pm = golden_mem.metrics();
    const MemMetrics am = approx_mem.metrics();

    std::printf("custom_workload: Jacobi stencil, annotated neighbor "
                "loads, degree 8\n\n");
    std::printf("effective MPKI:   %.3f -> %.3f (-%.1f%%)\n",
                pm.mpki(), am.mpki(),
                (1.0 - am.mpki() / pm.mpki()) * 100.0);
    std::printf("blocks fetched:   %llu -> %llu (-%.1f%%)\n",
                static_cast<unsigned long long>(pm.fetches),
                static_cast<unsigned long long>(am.fetches),
                (1.0 - static_cast<double>(am.fetches) /
                           static_cast<double>(pm.fetches)) * 100.0);
    std::printf("relative L1 error of final field: %.3f%%\n",
                approx.outputErrorVs(golden) * 100.0);
    std::printf("\nImplementing Workload gets you the whole harness: "
                "Evaluator sweeps,\ntrace capture and the full-system "
                "timing model all work unchanged.\n");
    return 0;
}
