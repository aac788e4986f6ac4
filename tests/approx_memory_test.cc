/**
 * @file
 * Unit tests for the phase-1 ApproxMemory front-end: hit/miss flow,
 * MPKI accounting (approximated misses count as hits), fetch
 * accounting, per-thread isolation and the baseline modes.
 */

#include <gtest/gtest.h>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"

namespace lva {
namespace {

ApproxMemory::Config
lvaConfig()
{
    ApproxMemory::Config cfg = defaultMachine().phase1Lva();
    cfg.threads = 2;
    cfg.cache = CacheConfig{1024, 2, 64};
    cfg.approx.ghbEntries = 0;
    cfg.approx.valueDelay = 0;
    return cfg;
}

TEST(ApproxMemory, PreciseModeCountsMissesAndFetches)
{
    auto cfg = lvaConfig();
    cfg.mode = MemMode::Precise;
    ApproxMemory mem(cfg);
    mem.load(0, 0x400, 0x1000, Value::fromInt(1), true);
    mem.load(0, 0x400, 0x1000, Value::fromInt(1), true);
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.loads, 2u);
    EXPECT_EQ(m.loadMisses, 1u);
    EXPECT_EQ(m.effectiveMisses, 1u);
    EXPECT_EQ(m.fetches, 1u);
    EXPECT_EQ(m.approxLoads, 0u);
}

TEST(ApproxMemory, ApproximatedMissCountsAsHit)
{
    ApproxMemory mem(lvaConfig());
    // Train once (cold miss, fetch), then evict nothing: touch a new
    // block address each time so every access misses.
    mem.load(0, 0x400, 0x10000, Value::fromInt(42), true);
    const Value got =
        mem.load(0, 0x400, 0x20000, Value::fromInt(999), true);
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.loadMisses, 2u);
    EXPECT_EQ(m.effectiveMisses, 1u); // second miss approximated
    EXPECT_EQ(m.approxLoads, 1u);
    EXPECT_EQ(got.asInt(), 42); // clobbered with the estimate
}

TEST(ApproxMemory, NonApproximableLoadsAreNeverClobbered)
{
    ApproxMemory mem(lvaConfig());
    mem.load(0, 0x400, 0x10000, Value::fromInt(42), true);
    const Value got =
        mem.load(0, 0x500, 0x20000, Value::fromInt(7), false);
    EXPECT_EQ(got.asInt(), 7);
    EXPECT_EQ(mem.metrics().effectiveMisses, 2u);
}

TEST(ApproxMemory, DegreeCancelsFetches)
{
    auto cfg = lvaConfig();
    cfg.approx.approxDegree = 1;
    ApproxMemory mem(cfg);
    // Each access misses (distinct blocks), all to one PC context.
    for (u64 i = 0; i < 9; ++i) {
        mem.load(0, 0x400, 0x10000 + i * 0x10000, Value::fromInt(5),
                 true);
    }
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.loadMisses, 9u);
    // Miss 1 allocates (fetch). Misses 2..9 approximated; degree 1
    // fetches every other one.
    EXPECT_EQ(m.approxLoads, 8u);
    EXPECT_EQ(m.fetches, 1u + 4u);
}

TEST(ApproxMemory, LvpAlwaysFetchesAndReturnsPrecise)
{
    auto cfg = lvaConfig();
    cfg.mode = MemMode::Lvp;
    ApproxMemory mem(cfg);
    mem.load(0, 0x400, 0x10000, Value::fromInt(3), true);
    const Value got =
        mem.load(0, 0x400, 0x20000, Value::fromInt(3), true);
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(got.asInt(), 3);            // never clobbered
    EXPECT_EQ(m.fetches, m.loadMisses);   // 1:1 fetch ratio
    EXPECT_EQ(m.effectiveMisses, 1u);     // oracle hid the second
}

TEST(ApproxMemory, PrefetchModeFetchesExtraBlocks)
{
    auto cfg = lvaConfig();
    cfg.mode = MemMode::Prefetch;
    cfg.prefetch.degree = 4;
    ApproxMemory mem(cfg);
    // Sequential misses train a stride the prefetcher can follow.
    for (u64 i = 0; i < 32; ++i)
        mem.load(0, 0x400, 0x10000 + i * 64, Value::fromInt(1), false);
    const MemMetrics m = mem.metrics();
    EXPECT_GT(m.fetches, m.loadMisses); // prefetches inflate fetches
    EXPECT_LT(m.loadMisses, 32u);       // and some prefetches hit
}

TEST(ApproxMemory, ThreadsHavePrivateCaches)
{
    ApproxMemory mem(lvaConfig());
    mem.load(0, 0x400, 0x1000, Value::fromInt(1), false);
    // Thread 1 misses on the same block: caches are private.
    mem.load(1, 0x400, 0x1000, Value::fromInt(1), false);
    EXPECT_EQ(mem.metrics().loadMisses, 2u);
    EXPECT_EQ(mem.cacheFor(0).stats().misses.value(), 1u);
    EXPECT_EQ(mem.cacheFor(1).stats().misses.value(), 1u);
}

TEST(ApproxMemory, StoresWriteAllocateWithoutLoadMiss)
{
    ApproxMemory mem(lvaConfig());
    mem.store(0, 0x600, 0x3000);
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.stores, 1u);
    EXPECT_EQ(m.loadMisses, 0u);
    EXPECT_EQ(m.fetches, 1u);
    // The block is now resident: a load to it hits.
    mem.load(0, 0x400, 0x3000, Value::fromInt(1), false);
    EXPECT_EQ(mem.metrics().loadMisses, 0u);
}

TEST(ApproxMemory, TickInstructionsFeedsMpki)
{
    auto cfg = lvaConfig();
    cfg.mode = MemMode::Precise;
    ApproxMemory mem(cfg);
    mem.load(0, 0x400, 0x1000, Value::fromInt(1), false); // 1 miss
    mem.tickInstructions(0, 999);
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.instructions, 1000u);
    EXPECT_DOUBLE_EQ(m.mpki(), 1.0);
    EXPECT_DOUBLE_EQ(m.rawMpki(), 1.0);
}

TEST(ApproxMemory, MetricsAggregateAcrossThreads)
{
    ApproxMemory mem(lvaConfig());
    mem.tickInstructions(0, 10);
    mem.tickInstructions(1, 20);
    EXPECT_EQ(mem.metrics().instructions, 30u);
}

TEST(ApproxMemory, CoverageMetric)
{
    ApproxMemory mem(lvaConfig());
    mem.load(0, 0x400, 0x10000, Value::fromInt(1), true); // cold
    mem.load(0, 0x400, 0x20000, Value::fromInt(1), true); // approx
    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.approximableLoads, 2u);
    EXPECT_DOUBLE_EQ(m.coverage(), 0.5);
}

TEST(ApproxMemory, FinishDrainsValueDelayedTraining)
{
    auto cfg = lvaConfig();
    cfg.approx.valueDelay = 50;
    ApproxMemory mem(cfg);
    mem.load(0, 0x400, 0x10000, Value::fromInt(9), true);
    mem.finish();
    EXPECT_EQ(mem.approximatorFor(0).stats().trainings.value(), 1u);
}

TEST(ApproxMemory, ModeNames)
{
    EXPECT_STREQ(memModeName(MemMode::Precise), "precise");
    EXPECT_STREQ(memModeName(MemMode::Lva), "LVA");
    EXPECT_STREQ(memModeName(MemMode::Lvp), "LVP");
    EXPECT_STREQ(memModeName(MemMode::Prefetch), "prefetch");
}

} // namespace
} // namespace lva
