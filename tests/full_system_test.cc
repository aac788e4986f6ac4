/**
 * @file
 * Integration tests for the full-system timing simulator on small
 * synthetic traces: hit/miss timing, approximation behaviour,
 * coherence traffic and conservation properties.
 */

#include <gtest/gtest.h>

#include "sim/full_system.hh"
#include "sim/machine_config.hh"

namespace lva {
namespace {

TraceEvent
loadEv(Addr addr, u32 instr_before = 0, bool approximable = false,
       i64 value = 0, LoadSiteId pc = 0x400)
{
    TraceEvent ev;
    ev.addr = addr;
    ev.value = Value::fromInt(value);
    ev.pc = pc;
    ev.instrBefore = instr_before;
    ev.isLoad = true;
    ev.approximable = approximable;
    return ev;
}

TraceEvent
storeEv(Addr addr, u32 instr_before = 0)
{
    TraceEvent ev;
    ev.addr = addr;
    ev.instrBefore = instr_before;
    ev.isLoad = false;
    return ev;
}

std::vector<ThreadTrace>
fourTraces(ThreadTrace t0 = {}, ThreadTrace t1 = {},
           ThreadTrace t2 = {}, ThreadTrace t3 = {})
{
    return {std::move(t0), std::move(t1), std::move(t2),
            std::move(t3)};
}

TEST(FullSystem, EmptyTracesFinish)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    const FullSystemResult r = sim.run(fourTraces());
    EXPECT_DOUBLE_EQ(r.cycles, 0.0);
    EXPECT_EQ(r.instructions, 0u);
}

TEST(FullSystem, SingleMissPaysMemoryLatency)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    ThreadTrace t0 = {loadEv(0x100000), loadEv(0x100000, 0)};
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));
    // First load: L2 miss -> DRAM (160) + NoC + L2; second load hits.
    EXPECT_EQ(r.l1Misses, 1u);
    EXPECT_EQ(r.demandMisses, 1u);
    EXPECT_EQ(r.dramAccesses, 1u);
    EXPECT_GT(r.cycles, 160.0);
    EXPECT_LT(r.cycles, 260.0);
    EXPECT_GT(r.avgL1MissLatency, 160.0);
}

TEST(FullSystem, L2HitIsMuchFaster)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    // Two cores read the same block: the second finds it in L2.
    ThreadTrace t0 = {loadEv(0x100000)};
    ThreadTrace t1 = {loadEv(0x100000, 400)}; // issue later
    const FullSystemResult r =
        sim.run(fourTraces(std::move(t0), std::move(t1)));
    EXPECT_EQ(r.dramAccesses, 1u); // only the first pays DRAM
    EXPECT_EQ(r.l1Misses, 2u);
}

TEST(FullSystem, ApproximatedMissDoesNotStall)
{
    FullSystemConfig cfg = defaultMachine().fullSystem(true, 0);
    FullSystemSim sim(cfg);
    // Train the context once, then miss on fresh blocks repeatedly:
    // every approximated miss retires without waiting for DRAM.
    ThreadTrace t0;
    for (u32 i = 0; i < 20; ++i)
        t0.push_back(
            loadEv(0x100000 + i * 0x10000, 4, true, 7, 0x400));
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));
    EXPECT_GT(r.approxMisses, 15u);
    // 20 loads + 80 instructions of work: far below one DRAM trip
    // each; allow generous slack for the cold demand miss + drain.
    EXPECT_LT(r.cycles, 20 * 160.0 * 0.5);
    EXPECT_LT(r.avgL1MissLatency, 30.0);
}

TEST(FullSystem, DegreeSkipsFetchesInTiming)
{
    FullSystemSim sim(defaultMachine().fullSystem(true, 4));
    ThreadTrace t0;
    for (u32 i = 0; i < 41; ++i)
        t0.push_back(
            loadEv(0x100000 + i * 0x10000, 4, true, 7, 0x400));
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));
    EXPECT_GT(r.fetchesSkipped, 25u);
    // Conservation: every L1 miss is demand, approx-fetched or
    // approx-skipped; skipped ones are a subset of approxMisses.
    EXPECT_EQ(r.l1Misses, r.demandMisses + r.approxMisses);
    EXPECT_LE(r.fetchesSkipped, r.approxMisses);
}

TEST(FullSystem, StoresDoNotStallTheCore)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    ThreadTrace t0;
    for (u32 i = 0; i < 8; ++i)
        t0.push_back(storeEv(0x200000 + i * 0x10000, 4));
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));
    // 8 store misses at 160+ cycles each would be >1280 if serialized
    // on the critical path; the store buffer hides them.
    EXPECT_LT(r.cycles, 600.0);
    EXPECT_EQ(r.dramAccesses, 8u);
}

TEST(FullSystem, WriteInvalidatesRemoteCopy)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    // Core 0 reads a block; core 1 writes it (much later); core 0
    // reads it again and must re-miss (its copy was invalidated).
    ThreadTrace t0 = {loadEv(0x300000), loadEv(0x300000, 4000)};
    ThreadTrace t1 = {storeEv(0x300000, 1000)};
    const FullSystemResult r =
        sim.run(fourTraces(std::move(t0), std::move(t1)));
    EXPECT_EQ(r.l1Misses, 2u); // both of core 0's reads miss
}

TEST(FullSystem, ReadAfterRemoteWriteForwardsDirtyData)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    // Core 1 writes a block (becomes M); core 0 then reads it: the
    // directory forwards from core 1's L1, not DRAM.
    ThreadTrace t0 = {loadEv(0x300000, 3000)};
    ThreadTrace t1 = {storeEv(0x300000, 0)};
    const FullSystemResult r =
        sim.run(fourTraces(std::move(t0), std::move(t1)));
    EXPECT_EQ(r.dramAccesses, 1u); // only the store's write-allocate
}

TEST(FullSystem, DependentLoadSerializesBehindProducer)
{
    FullSystemConfig cfg = defaultMachine().fullSystem(false);
    FullSystemSim sim(cfg);
    ThreadTrace t0;
    TraceEvent producer = loadEv(0x100000);
    TraceEvent consumer = loadEv(0x500000, 0);
    consumer.dependsOnPrev = true;
    t0.push_back(producer);
    t0.push_back(consumer);
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));

    FullSystemSim sim2(cfg);
    ThreadTrace u0 = {loadEv(0x100000), loadEv(0x500000, 0)};
    const FullSystemResult r2 = sim2.run(fourTraces(std::move(u0)));
    // With the dependency the two DRAM trips serialize; without it
    // they overlap in the ROB window.
    EXPECT_GT(r.cycles, r2.cycles + 100.0);
}

TEST(FullSystem, InstructionsAreConserved)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    ThreadTrace t0 = {loadEv(0x100000, 10), storeEv(0x200000, 20)};
    ThreadTrace t1 = {loadEv(0x110000, 5)};
    const FullSystemResult r =
        sim.run(fourTraces(std::move(t0), std::move(t1)));
    EXPECT_EQ(r.instructions, 10u + 1 + 20 + 1 + 5 + 1);
}

TEST(FullSystem, EnergyEventsPopulated)
{
    FullSystemSim sim(defaultMachine().fullSystem(true, 0));
    ThreadTrace t0;
    // Spread across L2 banks so some requests cross mesh links.
    for (u32 i = 0; i < 10; ++i)
        t0.push_back(loadEv(0x100000 + i * 0x10040, 4, true, 7));
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));
    EXPECT_GT(r.events.l1Accesses, 0u);
    EXPECT_GT(r.events.l2Accesses, 0u);
    EXPECT_GT(r.events.approxLookups, 0u);
    EXPECT_GT(r.energy.total(), 0.0);
    EXPECT_GT(r.flitHops, 0u);
}

TEST(FullSystem, BaselineNeverApproximates)
{
    FullSystemSim sim(defaultMachine().fullSystem(false));
    ThreadTrace t0 = {loadEv(0x100000, 0, true, 7),
                      loadEv(0x110000, 0, true, 7)};
    const FullSystemResult r = sim.run(fourTraces(std::move(t0)));
    EXPECT_EQ(r.approxMisses, 0u);
    EXPECT_EQ(r.demandMisses, r.l1Misses);
}

} // namespace
} // namespace lva
