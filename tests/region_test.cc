/**
 * @file
 * Unit tests for Region<T>: the annotated-array bridge between host
 * data and the simulated memory system.
 */

#include <gtest/gtest.h>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "util/arena.hh"
#include "workloads/region.hh"

namespace lva {
namespace {

TEST(Region, AddressesAreContiguousTypedElements)
{
    VirtualArena arena;
    Region<float> r;
    r.init(arena, 32, true);
    EXPECT_EQ(r.size(), 32u);
    EXPECT_EQ(r.addrOf(1) - r.addrOf(0), sizeof(float));
    EXPECT_EQ(r.addrOf(0) % 64, 0u); // block aligned base
    EXPECT_TRUE(r.approximable());
}

TEST(Region, SeparateRegionsDoNotOverlap)
{
    VirtualArena arena;
    Region<i32> a;
    Region<i32> b;
    a.init(arena, 10, false);
    b.init(arena, 10, false);
    EXPECT_GE(b.addrOf(0), a.addrOf(9) + sizeof(i32));
}

TEST(Region, LoadRoutesThroughBackendAndCanClobber)
{
    VirtualArena arena;
    Region<i64> r;
    r.init(arena, 64, /*approximable=*/true);
    for (std::size_t i = 0; i < 64; ++i)
        r.raw(i) = 1000;

    // A backend that always returns 7 for approximable loads.
    class ClobberBackend : public MemoryBackend
    {
      public:
        Value
        loadVirtual(ThreadId, LoadSiteId, Addr, const Value &precise,
                    bool approximable, bool) override
        {
            return approximable ? Value::fromInt(7) : precise;
        }
        void store(ThreadId, LoadSiteId, Addr) override {}
        void tickInstructions(ThreadId, u64) override {}
    } backend;

    EXPECT_EQ(r.load(backend, 0, 0x400, 3), 7);
    EXPECT_EQ(r.loadPrecise(backend, 0, 0x400, 3), 1000);
    EXPECT_EQ(r.raw(3), 1000); // host data untouched by clobbering
}

TEST(Region, StoreUpdatesHostAndIssuesAccess)
{
    VirtualArena arena;
    Region<float> r;
    r.init(arena, 16, false);

    ApproxMemory::Config cfg = defaultMachine().phase1Precise();
    cfg.threads = 1;
    ApproxMemory mem(cfg);
    r.store(mem, 0, 0x500, 5, 2.5f);
    EXPECT_FLOAT_EQ(r.raw(5), 2.5f);
    EXPECT_EQ(mem.metrics().stores, 1u);
}

TEST(Region, KindsMatchElementTypes)
{
    VirtualArena arena;
    Region<float> f;
    Region<double> d;
    Region<i32> i;
    f.init(arena, 4, true);
    d.init(arena, 4, true);
    i.init(arena, 4, true);

    // Verify via the backend-visible Value kinds.
    class KindProbe : public MemoryBackend
    {
      public:
        Value
        loadVirtual(ThreadId, LoadSiteId, Addr, const Value &precise,
                    bool, bool) override
        {
            lastKind = precise.kind();
            return precise;
        }
        void store(ThreadId, LoadSiteId, Addr) override {}
        void tickInstructions(ThreadId, u64) override {}
        ValueKind lastKind = ValueKind::Int64;
    } probe;

    f.load(probe, 0, 0, 0);
    EXPECT_EQ(probe.lastKind, ValueKind::Float32);
    d.load(probe, 0, 0, 0);
    EXPECT_EQ(probe.lastKind, ValueKind::Float64);
    i.load(probe, 0, 0, 0);
    EXPECT_EQ(probe.lastKind, ValueKind::Int64);
}

TEST(Region, DependentFlagReachesBackend)
{
    VirtualArena arena;
    Region<i32> r;
    r.init(arena, 4, false);

    class DepProbe : public MemoryBackend
    {
      public:
        Value
        loadVirtual(ThreadId, LoadSiteId, Addr, const Value &precise,
                    bool, bool dependent) override
        {
            sawDependent = dependent;
            return precise;
        }
        void store(ThreadId, LoadSiteId, Addr) override {}
        void tickInstructions(ThreadId, u64) override {}
        bool sawDependent = false;
    } probe;

    r.load(probe, 0, 0, 0);
    EXPECT_FALSE(probe.sawDependent);
    r.load(probe, 0, 0, 0, /*dependent=*/true);
    EXPECT_TRUE(probe.sawDependent);
    r.loadPrecise(probe, 0, 0, 0, /*dependent=*/true);
    EXPECT_TRUE(probe.sawDependent);
}

TEST(NullBackend, TouchLoadConvenience)
{
    NullBackend null;
    null.touchLoad(0, 0x400, 0x1000); // must be a safe no-op
}

} // namespace
} // namespace lva
