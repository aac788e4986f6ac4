/**
 * @file
 * Property tests for the synthetic input generators: the statistical
 * properties the paper's analysis depends on (input redundancy,
 * clustered feature spaces, smooth trajectories) and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "workloads/blackscholes.hh"
#include "workloads/bodytrack.hh"
#include "workloads/canneal.hh"
#include "workloads/swaptions.hh"
#include "workloads/workload.hh"

namespace lva {
namespace {

WorkloadParams
params(u64 seed = 1, double scale = 0.2)
{
    WorkloadParams p;
    p.seed = seed;
    p.scale = scale;
    return p;
}

TEST(BlackscholesInputs, SpotPriceRedundancyMatchesPaper)
{
    // "An underlying asset's current price takes on four possible
    // values, two of which occur over 98% of the time."
    BlackscholesWorkload w(params(1, 1.0));
    w.generate();
    // Probe the distribution through a metrics-free precise run: the
    // spot values live in the region; inspect via prices' inputs is
    // indirect, so instead run and count distinct spot values by
    // loading them through a NullBackend-equivalent: use run() and
    // examine the generated prices domain instead. Simpler: rerun
    // generate on a twin and inspect through load() calls.
    NullBackend null;
    w.run(null);

    // Distinct spot values are bounded and heavily skewed: infer via
    // the input pools by re-generating with the same seed and using
    // the documented pool. (The pool itself is private; verify the
    // observable: many identical option prices.)
    std::map<float, u64> price_counts;
    for (float p : w.prices())
        ++price_counts[p];
    // With pooled inputs the number of distinct prices is far below
    // the option count: strong value redundancy.
    EXPECT_LT(price_counts.size(), w.prices().size() / 8);

    // And the most common price covers a large fraction (dominant
    // input combinations recur).
    u64 max_count = 0;
    for (const auto &[price, count] : price_counts)
        max_count = std::max(max_count, count);
    EXPECT_GT(max_count, w.prices().size() / 100);
}

TEST(GeneratorDeterminism, SameSeedSameInputsDifferentSeedDiffers)
{
    for (const auto &name : allWorkloadNames()) {
        auto a = makeWorkload(name, params(3));
        auto b = makeWorkload(name, params(3));
        auto c = makeWorkload(name, params(4));
        a->generate();
        b->generate();
        c->generate();
        NullBackend null;
        a->run(null);
        b->run(null);
        c->run(null);
        EXPECT_DOUBLE_EQ(a->outputErrorVs(*b), 0.0) << name;
        // Different seeds must change the computation for benchmarks
        // with seed-driven inputs (canneal is the clearest signal).
    }
    CannealWorkload x(params(5));
    CannealWorkload y(params(6));
    x.generate();
    y.generate();
    NullBackend null;
    x.run(null);
    y.run(null);
    EXPECT_GT(x.outputErrorVs(y), 0.0);
}

TEST(BodytrackInputs, TruthTrajectoryStaysInFrame)
{
    BodytrackWorkload w(params());
    w.generate();
    for (u32 f = 0; f < 64; ++f) {
        const auto [x, y] = w.truthAt(f);
        EXPECT_GT(x, 30.0);
        EXPECT_LT(x, 226.0);
        EXPECT_GT(y, 30.0);
        EXPECT_LT(y, 226.0);
    }
}

TEST(BodytrackInputs, TrajectoryIsSmooth)
{
    BodytrackWorkload w(params());
    w.generate();
    for (u32 f = 0; f + 1 < 32; ++f) {
        const auto [x0, y0] = w.truthAt(f);
        const auto [x1, y1] = w.truthAt(f + 1);
        const double step =
            std::sqrt((x1 - x0) * (x1 - x0) + (y1 - y0) * (y1 - y0));
        EXPECT_LT(step, 30.0) << "frame " << f; // trackable motion
    }
}

TEST(SwaptionsInputs, PricesArePositiveAndSmall)
{
    SwaptionsWorkload w(params(1, 1.0));
    w.generate();
    NullBackend null;
    w.run(null);
    for (double p : w.prices()) {
        EXPECT_GE(p, 0.0);
        EXPECT_LT(p, 1.0); // payer swaption on rates in [2%, 5%]
    }
}

TEST(InstructionCounts, ScaleRoughlyMatchesTableOne)
{
    // At full scale the precise MPKI ordering of Table I must hold:
    // canneal >> bodytrack > ferret > fluidanimate ~ blackscholes >
    // x264 >> swaptions. Run at reduced scale and verify the strict
    // extremes, which are scale-robust.
    const ApproxMemory::Config cfg = defaultMachine().phase1Precise();

    std::map<std::string, double> mpki;
    for (const auto &name : {"canneal", "swaptions", "bodytrack"}) {
        auto w = makeWorkload(name, params(1, 0.5));
        w->generate();
        ApproxMemory mem(cfg);
        w->run(mem);
        mpki[name] = mem.metrics().mpki();
    }
    EXPECT_GT(mpki["canneal"], mpki["bodytrack"]);
    EXPECT_GT(mpki["bodytrack"], mpki["swaptions"]);
    EXPECT_LT(mpki["swaptions"], 0.1);
}

} // namespace
} // namespace lva
