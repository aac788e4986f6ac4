/**
 * @file
 * Unit tests for the statistics utilities and the stat registry, plus
 * the metric-catalog gate: the registry self-dump of every
 * registry-backed component must match docs/metrics.md both ways.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/audit.hh"
#include "core/approx_memory.hh"
#include "eval/coord.hh"
#include "eval/evaluator.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "sim/full_system.hh"
#include "sim/machine_config.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"

namespace lva {
namespace {

TEST(Counter, IncrementAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(-1.0); // underflow
    h.sample(0.0);  // bucket 0
    h.sample(1.99); // bucket 0
    h.sample(2.0);  // bucket 1
    h.sample(9.99); // bucket 4
    h.sample(10.0); // overflow
    h.sample(50.0); // overflow
    EXPECT_EQ(h.total(), 7u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(4), 1u);
}

TEST(Histogram, TotalEqualsSumOfBuckets)
{
    Histogram h(0.0, 1.0, 10);
    for (int i = 0; i < 1000; ++i)
        h.sample(static_cast<double>(i % 13) / 10.0);
    u64 sum = h.underflow() + h.overflow();
    for (std::size_t b = 0; b < h.buckets(); ++b)
        sum += h.bucketCount(b);
    EXPECT_EQ(sum, h.total());
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Geomean, SingleValue)
{
    EXPECT_NEAR(geomean({7.0}), 7.0, 1e-12);
}

TEST(Gauge, SetAddReset)
{
    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(StatRegistry, RegisterOrGetReturnsSameObject)
{
    StatRegistry reg;
    Counter &a = reg.counter("l1.misses", "desc");
    Counter &b = reg.counter("l1.misses");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);

    Histogram &h1 = reg.histogram("lat", 0.0, 10.0, 5);
    Histogram &h2 = reg.histogram("lat", 0.0, 10.0, 5);
    EXPECT_EQ(&h1, &h2);
}

TEST(StatRegistry, TypeCollisionThrows)
{
    StatRegistry reg;
    reg.counter("x.count");
    EXPECT_THROW(reg.gauge("x.count"), std::invalid_argument);
    EXPECT_THROW(reg.histogram("x.count", 0.0, 1.0, 4),
                 std::invalid_argument);
}

TEST(StatRegistry, HistogramGeometryCollisionThrows)
{
    StatRegistry reg;
    reg.histogram("lat", 0.0, 10.0, 5);
    EXPECT_THROW(reg.histogram("lat", 0.0, 20.0, 5),
                 std::invalid_argument);
    EXPECT_THROW(reg.histogram("lat", 0.0, 10.0, 8),
                 std::invalid_argument);
}

TEST(StatRegistry, MalformedPathThrows)
{
    StatRegistry reg;
    EXPECT_THROW(reg.counter(""), std::invalid_argument);
    EXPECT_THROW(reg.counter(".leading"), std::invalid_argument);
    EXPECT_THROW(reg.counter("trailing."), std::invalid_argument);
    EXPECT_THROW(reg.counter("a..b"), std::invalid_argument);
    EXPECT_THROW(reg.counter("bad path"), std::invalid_argument);
}

TEST(StatRegistry, SnapshotIsSortedByPath)
{
    StatRegistry reg;
    reg.counter("z.last");
    reg.counter("a.first");
    reg.gauge("m.middle");
    const StatSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.entries.size(), 3u);
    EXPECT_EQ(snap.entries[0].path, "a.first");
    EXPECT_EQ(snap.entries[1].path, "m.middle");
    EXPECT_EQ(snap.entries[2].path, "z.last");
}

TEST(StatSnapshot, MergeSumsCountersAndHistograms)
{
    StatRegistry r1, r2;
    r1.counter("c").inc(10);
    r2.counter("c").inc(32);
    r1.histogram("h", 0.0, 10.0, 5).sample(1.0);
    r2.histogram("h", 0.0, 10.0, 5).sample(1.5);
    r2.histogram("h", 0.0, 10.0, 5).sample(99.0); // overflow
    r1.gauge("g").set(1.0);
    r2.gauge("g").set(7.0);
    r2.counter("only2").inc(5);

    StatSnapshot merged = r1.snapshot();
    merged.merge(r2.snapshot());

    EXPECT_EQ(merged.find("c")->count, 42u);
    EXPECT_EQ(merged.find("h")->histTotal, 3u);
    EXPECT_EQ(merged.find("h")->histBuckets[0], 2u);
    EXPECT_EQ(merged.find("h")->histOverflow, 1u);
    // Gauges: last-merged value wins.
    EXPECT_DOUBLE_EQ(merged.find("g")->gauge, 7.0);
    // Paths present only on one side carry over, order stays sorted.
    EXPECT_EQ(merged.find("only2")->count, 5u);
    for (std::size_t i = 1; i < merged.entries.size(); ++i)
        EXPECT_LT(merged.entries[i - 1].path, merged.entries[i].path);
}

TEST(StatSnapshot, MergeIsDeterministicOverSeedOrder)
{
    // Simulates the evaluator's per-seed serial merge: merging the
    // same per-seed snapshots in the same order twice must produce
    // identical entries, whatever thread produced them.
    auto makeSeedSnap = [](u64 seed) {
        StatRegistry reg;
        reg.counter("thread0.mem.loads").inc(100 + seed);
        reg.gauge("eval.x").set(static_cast<double>(seed) * 0.5);
        reg.histogram("lat", 0.0, 4.0, 4)
            .sample(static_cast<double>(seed % 4));
        return reg.snapshot();
    };
    StatSnapshot a, b;
    for (u64 seed = 1; seed <= 5; ++seed)
        a.merge(makeSeedSnap(seed));
    for (u64 seed = 1; seed <= 5; ++seed)
        b.merge(makeSeedSnap(seed));
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].path, b.entries[i].path);
        EXPECT_EQ(a.entries[i].count, b.entries[i].count);
        EXPECT_EQ(a.entries[i].gauge, b.entries[i].gauge);
        EXPECT_EQ(a.entries[i].histBuckets, b.entries[i].histBuckets);
    }
}

TEST(StatSnapshot, MergeTypeConflictThrows)
{
    StatRegistry r1, r2;
    r1.counter("p");
    r2.gauge("p");
    StatSnapshot snap = r1.snapshot();
    EXPECT_THROW(snap.merge(r2.snapshot()), std::invalid_argument);

    StatRegistry r3, r4;
    r3.histogram("h", 0.0, 1.0, 4);
    r4.histogram("h", 0.0, 2.0, 4);
    StatSnapshot hs = r3.snapshot();
    EXPECT_THROW(hs.merge(r4.snapshot()), std::invalid_argument);
}

/**
 * Every stat path a run can export, indices abstracted to <N>. Unlike
 * lva_audit's static stat rules, this sees the exact joinPath() paths.
 */
std::set<std::string>
registrySelfDump()
{
    // Phase 1: each mode registers its own component set.
    std::vector<StatSnapshot> snaps;
    for (const MemMode mode : {MemMode::Lva, MemMode::Lvp,
                               MemMode::Prefetch, MemMode::Precise})
        snaps.push_back(
            ApproxMemory(defaultMachine().phase1Config(mode)).snapshot());
    // Phase 2: the baseline and LVA on the heterogeneous NoC, so a
    // config-gated stat still shows up.
    FullSystemConfig lva = defaultMachine().fullSystem(true, 4);
    lva.heteroNoc = true;
    for (const FullSystemConfig &c : {defaultMachine().fullSystem(false), lva})
        snaps.push_back(FullSystemSim(c).registry().snapshot());
    snaps.push_back(ServeStats().snapshot());
    snaps.push_back(CoordStats().snapshot());

    std::set<std::string> paths;
    for (const StatSnapshot &snap : snaps)
        for (const SnapEntry &e : snap.entries)
            paths.insert(audit::normalizeIndices(e.path));
    for (const auto *defs :
         {&evalMetricDefs(), &workloadStaticDefs(), &sweepRuntimeDefs()})
        for (const EvalMetricDef &d : *defs)
            paths.insert(d.path);
    return paths;
}

const std::string kCatalogDoc = LVA_DOCS_DIR "/metrics.md";

TEST(MetricCatalog, RegistrySelfDumpMatchesDocsBothWays)
{
    EXPECT_EQ(audit::tableDrift(registrySelfDump(), kCatalogDoc, "catalog"),
              "");
}

TEST(MetricCatalog, UndocumentedJoinPathStatFailsTheComparison)
{
    // A joinPath("hits") leaf under the prefetcher's prefix: the
    // static stat-undocumented rule accepts the leaf against any
    // catalog row ending in ".hits", so only the runtime comparison
    // sees that thread<N>.prefetch.hits has no row.
    StatRegistry reg;
    reg.counter(StatRegistry::joinPath("thread0.prefetch", "hits"),
                "probe", "events");
    std::set<std::string> dump = registrySelfDump();
    for (const SnapEntry &e : reg.snapshot().entries)
        dump.insert(audit::normalizeIndices(e.path));

    EXPECT_EQ(audit::tableDrift(dump, kCatalogDoc, "catalog"),
              "undocumented: 'thread<N>.prefetch.hits' has no row in "
              "the catalog table of " + kCatalogDoc + "\n");

    // The other direction: a row whose stat is gone is stale.
    dump = registrySelfDump();
    dump.erase("thread<N>.l1.hits");
    EXPECT_NE(audit::tableDrift(dump, kCatalogDoc, "catalog")
                  .find("stale row 'thread<N>.l1.hits'"),
              std::string::npos);
}

} // namespace
} // namespace lva
