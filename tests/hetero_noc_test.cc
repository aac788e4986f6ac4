/**
 * @file
 * Tests for the heterogeneous NoC plane (paper section VI-C): training
 * fetches ride a slow low-energy mesh, demand traffic the fast one.
 */

#include <gtest/gtest.h>

#include "sim/full_system.hh"
#include "sim/machine_config.hh"

namespace lva {
namespace {

std::vector<ThreadTrace>
approxStream(u32 loads)
{
    std::vector<ThreadTrace> traces(4);
    for (u32 i = 0; i < loads; ++i) {
        TraceEvent ev;
        // Spread banks so traffic crosses links.
        ev.addr = 0x100000 + static_cast<Addr>(i) * 0x10040;
        ev.value = Value::fromInt(7);
        ev.pc = 0x400;
        ev.instrBefore = 4;
        ev.isLoad = true;
        ev.approximable = true;
        traces[0].push_back(ev);
    }
    return traces;
}

TEST(HeteroNoc, TrainingTrafficMovesToSlowPlane)
{
    FullSystemConfig cfg = defaultMachine().fullSystem(true, 0);
    cfg.heteroNoc = true;
    FullSystemSim sim(cfg);
    const FullSystemResult r = sim.run(approxStream(40));
    // Approximated misses train in the background: most flit-hops
    // land on the slow plane.
    EXPECT_GT(r.events.nocFlitHopsSlow, 0u);
    EXPECT_GT(r.events.nocFlitHopsSlow, r.events.nocFlitHops / 2);
}

TEST(HeteroNoc, DisabledMeansNoSlowTraffic)
{
    FullSystemSim sim(defaultMachine().fullSystem(true, 0));
    const FullSystemResult r = sim.run(approxStream(40));
    EXPECT_EQ(r.events.nocFlitHopsSlow, 0u);
    EXPECT_GT(r.events.nocFlitHops, 0u);
}

TEST(HeteroNoc, ReducesNocEnergyWithoutChangingWork)
{
    FullSystemConfig homo = defaultMachine().fullSystem(true, 0);
    FullSystemConfig hetero = defaultMachine().fullSystem(true, 0);
    hetero.heteroNoc = true;

    FullSystemSim homo_sim(homo);
    FullSystemSim hetero_sim(hetero);
    const FullSystemResult rh = homo_sim.run(approxStream(60));
    const FullSystemResult rs = hetero_sim.run(approxStream(60));

    EXPECT_EQ(rh.instructions, rs.instructions);
    EXPECT_EQ(rh.l1Misses, rs.l1Misses);
    // The same messages flow (narrower slow links mean more flits per
    // message), but the per-flit energy drop dominates.
    EXPECT_GT(rs.events.nocFlitHopsSlow, 0u);
    EXPECT_LT(rs.energy.noc, rh.energy.noc);
}

TEST(HeteroNoc, DemandTrafficKeepsTheFastPlane)
{
    // Non-approximable loads always use the fast plane even when the
    // heterogeneous NoC is configured.
    FullSystemConfig cfg = defaultMachine().fullSystem(false);
    cfg.heteroNoc = true;
    FullSystemSim sim(cfg);
    std::vector<ThreadTrace> traces(4);
    for (u32 i = 0; i < 20; ++i) {
        TraceEvent ev;
        ev.addr = 0x100000 + static_cast<Addr>(i) * 0x10040;
        ev.isLoad = true;
        ev.instrBefore = 4;
        traces[0].push_back(ev);
    }
    const FullSystemResult r = sim.run(traces);
    EXPECT_EQ(r.events.nocFlitHopsSlow, 0u);
    EXPECT_GT(r.events.nocFlitHops, 0u);
}

TEST(HeteroNoc, EnergyModelChargesSlowRate)
{
    EnergyParams p;
    EnergyEvents fast;
    fast.nocFlitHops = 100;
    EnergyEvents slow;
    slow.nocFlitHopsSlow = 100;
    EXPECT_LT(computeEnergy(slow, p).noc, computeEnergy(fast, p).noc);
}

} // namespace
} // namespace lva
