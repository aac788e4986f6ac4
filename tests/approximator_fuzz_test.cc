/**
 * @file
 * Randomized stress tests: drive the approximator, the LVP baseline
 * and the phase-1 memory front-end with random configurations and
 * value streams and check the structural invariants that must hold
 * regardless of configuration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "util/random.hh"

namespace lva {
namespace {

ApproximatorConfig
randomConfig(Rng &rng)
{
    ApproximatorConfig cfg;
    const u32 table_choices[] = {16, 64, 256, 512};
    cfg.tableEntries = table_choices[rng.below(4)];
    const u32 assoc_choices[] = {1, 2, 4};
    cfg.tableAssoc = assoc_choices[rng.below(3)];
    cfg.ghbEntries = static_cast<u32>(rng.below(5));
    cfg.lhbEntries = 1 + static_cast<u32>(rng.below(8));
    cfg.tagBits = 8 + static_cast<u32>(rng.below(24));
    cfg.valueDelay = static_cast<u32>(rng.below(16));
    cfg.approxDegree = static_cast<u32>(rng.below(20));
    cfg.confidenceWindow = rng.chance(0.2)
                               ? ApproximatorConfig::infiniteWindow
                               : rng.uniform(0.0, 0.5);
    cfg.confidenceForInts = rng.chance(0.5);
    cfg.confidenceDisabled = rng.chance(0.2);
    cfg.proportionalConfidence = rng.chance(0.5);
    cfg.estimator = static_cast<Estimator>(rng.below(3));
    cfg.mantissaDropBits = static_cast<u32>(rng.below(24));
    return cfg;
}

Value
randomValue(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return Value::fromInt(rng.range(-1000, 1000));
      case 1:
        return Value::fromFloat(
            static_cast<float>(rng.uniform(-100.0, 100.0)));
      default:
        return Value::fromDouble(rng.uniform(-1e6, 1e6));
    }
}

class ApproximatorFuzz : public ::testing::TestWithParam<u64>
{
};

TEST_P(ApproximatorFuzz, InvariantsHoldUnderRandomTraffic)
{
    Rng rng(GetParam() * 77 + 5);
    LoadValueApproximator lva(randomConfig(rng));

    u64 fetched = 0;
    for (int i = 0; i < 20000; ++i) {
        const LoadSiteId pc =
            0x400 + static_cast<LoadSiteId>(rng.below(64)) * 4;
        if (rng.chance(0.3)) {
            lva.onHit(pc, randomValue(rng));
            continue;
        }
        const MissResponse resp = lva.onMiss(pc, randomValue(rng));
        fetched += resp.fetch;
        // A non-approximated miss always fetches (demand).
        if (!resp.approximated) {
            EXPECT_TRUE(resp.fetch);
        }
        // A generated value must be a finite or at least well-typed
        // scalar (averaging finite inputs stays finite).
        if (resp.approximated) {
            EXPECT_TRUE(std::isfinite(resp.value.toReal()));
        }
    }
    lva.drainPending();

    const ApproximatorStats &s = lva.stats();
    // Conservation: every miss is approximated, cold, confidence-
    // rejected or an allocation.
    EXPECT_EQ(s.lookups.value(),
              s.approximations.value() + s.allocations.value() +
                  s.coldRejects.value() + s.confRejects.value());
    // Skipped fetches are a subset of approximations.
    EXPECT_LE(s.fetchesSkipped.value(), s.approximations.value());
    // Every fetch enqueues exactly one training; all drained.
    EXPECT_EQ(s.trainings.value(),
              s.lookups.value() - s.fetchesSkipped.value());
    EXPECT_EQ(fetched, s.lookups.value() - s.fetchesSkipped.value());
    // Coverage is a fraction.
    EXPECT_GE(lva.coverage(), 0.0);
    EXPECT_LE(lva.coverage(), 1.0);
    // The table never reports more valid entries than it has.
    EXPECT_LE(lva.validEntries(), 512u);
}

TEST_P(ApproximatorFuzz, MemoryFrontEndConservation)
{
    Rng rng(GetParam() * 131 + 7);
    ApproxMemory::Config cfg = defaultMachine().phase1Lva();
    cfg.threads = 1 + static_cast<u32>(rng.below(4));
    cfg.cache = CacheConfig{
        u64(1024) << rng.below(4), // 1-8 KB
        u32(1) << rng.below(3), 64};
    cfg.mode = rng.chance(0.5) ? MemMode::Lva : MemMode::Lvp;
    cfg.approx = randomConfig(rng);
    ApproxMemory mem(cfg);

    for (int i = 0; i < 20000; ++i) {
        const ThreadId tid =
            static_cast<ThreadId>(rng.below(cfg.threads));
        const Addr addr = rng.below(1 << 14) * 8;
        if (rng.chance(0.2)) {
            mem.store(tid, 0x900, addr);
        } else {
            mem.load(tid, 0x400 + static_cast<LoadSiteId>(
                                       rng.below(16)) * 4,
                     addr, randomValue(rng), rng.chance(0.6));
        }
        if (rng.chance(0.01))
            mem.tickInstructions(tid, rng.below(100));
    }
    mem.finish();

    const MemMetrics m = mem.metrics();
    EXPECT_EQ(m.loadMisses, m.effectiveMisses + m.approxLoads);
    EXPECT_LE(m.approxLoads, m.approximableLoads);
    EXPECT_LE(m.effectiveMisses, m.loadMisses);
    EXPECT_GE(m.instructions, m.loads + m.stores);
    EXPECT_GE(m.rawMpki(), m.mpki());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximatorFuzz,
                         ::testing::Range<u64>(1, 13));

} // namespace
} // namespace lva
