/**
 * @file
 * Tests for the seven mini-PARSEC workloads: generic invariants (run
 * to completion, determinism, zero self-error, annotated sites) and
 * per-benchmark output sanity.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "workloads/blackscholes.hh"
#include "workloads/bodytrack.hh"
#include "workloads/canneal.hh"
#include "workloads/ferret.hh"
#include "workloads/fluidanimate.hh"
#include "workloads/workload.hh"
#include "workloads/x264.hh"

namespace lva {
namespace {

WorkloadParams
smallParams(u64 seed = 1)
{
    WorkloadParams p;
    p.seed = seed;
    p.scale = 0.05;
    return p;
}

/** Generic invariants swept over every benchmark. */
class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, RunsAndSelfErrorIsZero)
{
    auto a = makeWorkload(GetParam(), smallParams());
    auto b = makeWorkload(GetParam(), smallParams());
    a->generate();
    b->generate();
    NullBackend null;
    a->run(null);
    b->run(null);
    // Two precise runs with the same seed are bit-identical.
    EXPECT_DOUBLE_EQ(a->outputErrorVs(*b), 0.0);
}

TEST_P(EveryWorkload, DeclaresApproximateLoadSites)
{
    auto w = makeWorkload(GetParam(), smallParams());
    EXPECT_GT(w->approxLoadSites(), 0u);
    EXPECT_GT(w->loadSites().size(), w->approxLoadSites());
}

TEST_P(EveryWorkload, IssuesTrafficThroughTheBackend)
{
    auto w = makeWorkload(GetParam(), smallParams());
    w->generate();
    ApproxMemory mem(defaultMachine().phase1Precise());
    w->run(mem);
    const MemMetrics m = mem.metrics();
    EXPECT_GT(m.instructions, 1000u);
    EXPECT_GT(m.loads, 100u);
    EXPECT_GT(m.approximableLoads, 10u);
    EXPECT_LT(m.approximableLoads, m.loads + 1);
}

TEST_P(EveryWorkload, PreciseExecutionIsNeverClobbered)
{
    // Running through an LVA memory in LVP mode returns precise
    // values, so the output must equal the golden output exactly.
    auto w = makeWorkload(GetParam(), smallParams());
    auto golden = makeWorkload(GetParam(), smallParams());
    w->generate();
    golden->generate();
    NullBackend null;
    golden->run(null);
    ApproxMemory::Config cfg = defaultMachine().phase1Config(MemMode::Lvp);
    cfg.approx.valueDelay = 0;
    ApproxMemory mem(cfg);
    w->run(mem);
    EXPECT_DOUBLE_EQ(w->outputErrorVs(*golden), 0.0);
}

TEST_P(EveryWorkload, ApproximateRunStaysBounded)
{
    auto w = makeWorkload(GetParam(), smallParams());
    auto golden = makeWorkload(GetParam(), smallParams());
    w->generate();
    golden->generate();
    NullBackend null;
    golden->run(null);
    ApproxMemory mem(defaultMachine().phase1Lva());
    w->run(mem);
    const double err = w->outputErrorVs(*golden);
    EXPECT_GE(err, 0.0);
    EXPECT_LT(err, 1.5); // sane even for the pessimistic metrics
}

TEST_P(EveryWorkload, HighDegreeErrorStaysFinite)
{
    // Approximation degree 16 starves training and recycles stale
    // values; outputs must degrade gracefully, never to NaN (e.g.
    // bodytrack's particle weights underflowing to zero).
    auto w = makeWorkload(GetParam(), smallParams());
    auto golden = makeWorkload(GetParam(), smallParams());
    w->generate();
    golden->generate();
    NullBackend null;
    golden->run(null);
    ApproxMemory::Config cfg = defaultMachine().phase1Lva();
    cfg.approx.approxDegree = 16;
    ApproxMemory mem(cfg);
    w->run(mem);
    const double err = w->outputErrorVs(*golden);
    EXPECT_TRUE(std::isfinite(err)) << err;
    EXPECT_GE(err, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSeven, EveryWorkload,
                         ::testing::ValuesIn(allWorkloadNames()));

TEST(Blackscholes, ClosedFormMatchesKnownValue)
{
    // S=100, K=100, r=5%, vol=20%, T=1y: call ~10.45, put ~5.57.
    const float call =
        BlackscholesWorkload::price(100, 100, 0.05f, 0.2f, 1.0f, true);
    const float put =
        BlackscholesWorkload::price(100, 100, 0.05f, 0.2f, 1.0f, false);
    EXPECT_NEAR(call, 10.45f, 0.05f);
    EXPECT_NEAR(put, 5.57f, 0.05f);
    // Put-call parity: C - P = S - K e^{-rT}.
    EXPECT_NEAR(call - put, 100.0f - 100.0f * std::exp(-0.05f), 0.05f);
}

TEST(Blackscholes, PricesAreFinite)
{
    BlackscholesWorkload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    for (float p : w.prices()) {
        EXPECT_TRUE(std::isfinite(p));
        // The Abramowitz-Stegun CNDF polynomial (as in PARSEC) can
        // yield ~1e-6 negatives for deep out-of-the-money options.
        EXPECT_GE(p, -1e-4f);
    }
}

TEST(Canneal, AnnealingAcceptsSwaps)
{
    CannealWorkload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    EXPECT_GT(w.swapsAccepted(), 0u);
    EXPECT_GT(w.finalCost(), 0.0);
}

TEST(Canneal, DifferentSeedsDifferentCost)
{
    CannealWorkload a(smallParams(1));
    CannealWorkload b(smallParams(2));
    a.generate();
    b.generate();
    NullBackend null;
    a.run(null);
    b.run(null);
    EXPECT_NE(a.finalCost(), b.finalCost());
}

TEST(Ferret, TopKHasRequestedSize)
{
    FerretWorkload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    ASSERT_FALSE(w.results().empty());
    for (const auto &r : w.results())
        EXPECT_EQ(r.size(), FerretWorkload::topK);
}

TEST(Bodytrack, TrackFollowsTruth)
{
    BodytrackWorkload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    ASSERT_FALSE(w.track().empty());
    double err_sum = 0.0;
    for (std::size_t f = 0; f < w.track().size(); ++f) {
        const auto [tx, ty] = w.truthAt(static_cast<u32>(f));
        const double dx = w.track()[f].first - tx;
        const double dy = w.track()[f].second - ty;
        err_sum += std::sqrt(dx * dx + dy * dy);
    }
    // The particle filter stays within ~16 px of the body on average.
    EXPECT_LT(err_sum / static_cast<double>(w.track().size()), 16.0);
}

TEST(Bodytrack, RenderTrackProducesImage)
{
    BodytrackWorkload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    const GrayImage img = w.renderTrack();
    EXPECT_EQ(img.width(), 256u);
    // Some pixels must be drawn bright (the skeleton discs).
    u64 bright = 0;
    for (u8 p : img.pixels())
        bright += p == 255 ? 1 : 0;
    EXPECT_GT(bright, 50u);
}

TEST(Fluidanimate, ParticlesStayInDomain)
{
    FluidanimateWorkload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    const auto cells = w.finalCells();
    EXPECT_FALSE(cells.empty());
    for (u32 c : cells)
        EXPECT_LT(c, 48u * 48u);
}

TEST(X264, PsnrAndBitsInPlausibleRange)
{
    X264Workload w(smallParams());
    w.generate();
    NullBackend null;
    w.run(null);
    EXPECT_GT(w.psnr(), 20.0);
    EXPECT_LT(w.psnr(), 70.0);
    EXPECT_GT(w.bits(), 0.0);
}

TEST(WorkloadFactory, AllNamesConstruct)
{
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name, smallParams());
        EXPECT_STREQ(w->name(), name.c_str());
    }
}

TEST(WorkloadFactory, NamesInPaperOrder)
{
    const auto &names = allWorkloadNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "blackscholes");
    EXPECT_EQ(names.back(), "x264");
}

} // namespace
} // namespace lva
