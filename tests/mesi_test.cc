/**
 * @file
 * Tests for the MESI protocol option and the banked L2: silent E->M
 * upgrades, clean-exclusive evictions, and bank-local addressing.
 */

#include <gtest/gtest.h>

#include "sim/full_system.hh"
#include "sim/machine_config.hh"

namespace lva {
namespace {

TraceEvent
loadEv(Addr addr, u32 instr_before = 0)
{
    TraceEvent ev;
    ev.addr = addr;
    ev.instrBefore = instr_before;
    ev.isLoad = true;
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

FullSystemConfig
withProtocol(CoherenceProtocol p)
{
    FullSystemConfig cfg = defaultMachine().fullSystem(false);
    cfg.protocol = p;
    return cfg;
}

/** Private read-then-write: MESI upgrades silently, MSI must send an
 *  upgrade request plus possible invalidations. */
TEST(Mesi, SilentUpgradeSavesTraffic)
{
    std::vector<ThreadTrace> traces(4);
    for (u32 i = 0; i < 50; ++i) {
        // Stride of 0x1040 rotates home banks so requests cross the
        // mesh (bank 0 is local to core 0 and generates no flits).
        const Addr addr = 0x100000 + i * 0x1040;
        traces[0].push_back(loadEv(addr, 10));
        traces[0].push_back(storeEv(addr, 10));
    }

    FullSystemSim msi(withProtocol(CoherenceProtocol::Msi));
    FullSystemSim mesi(withProtocol(CoherenceProtocol::Mesi));
    const FullSystemResult rm = msi.run(traces);
    const FullSystemResult re = mesi.run(traces);

    EXPECT_EQ(rm.l1Misses, re.l1Misses);
    // MESI's silent upgrades remove the GetM control messages.
    EXPECT_LT(re.flitHops, rm.flitHops);
}

TEST(Mesi, SharedDataStillInvalidates)
{
    // Core 0 and 1 both read; core 1 then writes: even under MESI the
    // write must invalidate core 0's copy.
    std::vector<ThreadTrace> traces(4);
    traces[0] = {loadEv(0x300000), loadEv(0x300000, 4000)};
    traces[1] = {loadEv(0x300000, 500), storeEv(0x300000, 1000)};
    FullSystemSim sim(withProtocol(CoherenceProtocol::Mesi));
    const FullSystemResult r = sim.run(traces);
    EXPECT_EQ(r.l1Misses, 3u); // core 0's re-read misses
}

TEST(Mesi, ExclusiveReadIsExclusiveOnlyWhenAlone)
{
    // Two cores read the same block; the second read must see S (a
    // subsequent silent write by either would break coherence). We
    // verify behaviourally: core 1's later write still invalidates.
    std::vector<ThreadTrace> traces(4);
    traces[0] = {loadEv(0x400000), loadEv(0x400000, 6000)};
    traces[1] = {loadEv(0x400000, 1000), storeEv(0x400000, 2000)};
    FullSystemSim sim(withProtocol(CoherenceProtocol::Mesi));
    const FullSystemResult r = sim.run(traces);
    EXPECT_EQ(r.l1Misses, 3u);
}

TEST(Mesi, CleanForwardSkipsWriteback)
{
    // Core 0 reads (E under MESI); core 1 reads the same block: the
    // owner forwards clean data with no dirty writeback. Compare L2
    // access counts against MSI, where the block is plain Shared.
    std::vector<ThreadTrace> t(4);
    t[0] = {loadEv(0x500000)};
    t[1] = {loadEv(0x500000, 2000)};

    FullSystemSim mesi(withProtocol(CoherenceProtocol::Mesi));
    const FullSystemResult re = mesi.run(t);
    // Both reads must be served; only one DRAM trip.
    EXPECT_EQ(re.dramAccesses, 1u);
    EXPECT_EQ(re.l1Misses, 2u);
}

TEST(BankedL2, CapacityIsActuallyUsable)
{
    // Stream 2048 distinct blocks (128 KB): the four 128 KB banks
    // must hold all of them; a second pass sees only L2 hits (no
    // additional DRAM accesses) even though each bank caches only its
    // address-interleaved slice.
    std::vector<ThreadTrace> traces(4);
    for (u32 pass = 0; pass < 2; ++pass)
        for (u32 i = 0; i < 2048; ++i)
            traces[0].push_back(
                loadEv(0x1000000 + static_cast<Addr>(i) * 64, 2));
    // Thrash the L1 between passes so second-pass hits come from L2.
    FullSystemSim sim(defaultMachine().fullSystem(false));
    const FullSystemResult r = sim.run(traces);
    EXPECT_EQ(r.dramAccesses, 2048u); // pass 2: all L2 hits
}

TEST(BankedL2, SliceConflictsAreRealistic)
{
    // 16-way 128 KB banks: 128 sets per bank over the bank-local
    // (compacted) block number. Same bank + same set repeats every
    // 4*128 blocks; stream 24 such lines (> 16 ways), then revisit
    // the first: it must have been evicted and re-miss to DRAM.
    std::vector<ThreadTrace> traces(4);
    const Addr set_stride = 64ull * 4 * 128; // same bank, same set
    for (u32 i = 0; i < 24; ++i)
        traces[0].push_back(
            loadEv(0x2000000 + i * set_stride, 2));
    traces[0].push_back(loadEv(0x2000000, 2)); // revisit first line
    FullSystemSim sim(defaultMachine().fullSystem(false));
    const FullSystemResult r = sim.run(traces);
    EXPECT_EQ(r.dramAccesses, 25u); // the revisit went to DRAM again
}

} // namespace
} // namespace lva
