/**
 * @file
 * MachineConfig (lva-machine-v1) parser and projection tests.
 *
 * Two properties matter:
 *  - strict parsing: unknown keys, out-of-range values and
 *    inconsistent geometry are rejected with the offending key named
 *    (a silently-ignored typo would simulate the wrong machine);
 *  - renderMachineJson() is a canonical inverse of machineFromJson()
 *    (the serving tier and manifest context keys depend on it).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/audit.hh"
#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "util/checkpoint.hh"

namespace lva {
namespace {

/** Wrap @p body (comma-joined members) into a schema-tagged doc. */
std::string
doc(const std::string &body)
{
    std::string out = "{\"schema\":\"lva-machine-v1\"";
    if (!body.empty())
        out += "," + body;
    return out + "}";
}

MachineConfig
parse(const std::string &json)
{
    return machineFromJson(parseJson(json));
}

/** The rejection diagnostic for @p json, or "" if it was accepted. */
std::string
rejection(const std::string &json)
{
    try {
        machineFromJson(parseJson(json));
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

void
expectRejected(const std::string &json, const std::string &needle)
{
    const std::string msg = rejection(json);
    ASSERT_FALSE(msg.empty()) << "accepted: " << json;
    EXPECT_NE(msg.find(needle), std::string::npos)
        << "diagnostic \"" << msg << "\" does not name \"" << needle
        << "\" for: " << json;
}

/** A hetero machine exercising most non-default fields. */
std::string
heteroDoc()
{
    return doc(
        "\"name\":\"h4\",\"cores\":4,"
        "\"core\":{\"width\":2,\"rob\":16},"
        "\"l1\":{\"size\":32768,\"assoc\":4,\"block\":32,"
        "\"latency\":2},"
        "\"phase1L1\":{\"size\":32768,\"assoc\":4,\"block\":32},"
        "\"l2\":{\"size\":1048576,\"assoc\":8,\"block\":32,"
        "\"latency\":9,\"banks\":4,\"occupancy\":2},"
        "\"memory\":{\"latency\":200,\"occupancy\":12},"
        "\"noc\":{\"cols\":4,\"rows\":1,\"routerCycles\":2,"
        "\"flitBytes\":32},"
        "\"protocol\":\"mesi\",\"heteroNoc\":true,"
        "\"slowNoc\":{\"cols\":2,\"rows\":2,\"routerCycles\":8,"
        "\"flitBytes\":4},"
        "\"backgroundFetchExtraLatency\":7,"
        "\"approx\":{\"table\":256,\"tableAssoc\":2,"
        "\"confidenceBits\":5,\"window\":0.05,\"confInts\":true,"
        "\"ghb\":2,\"lhb\":2,\"tagBits\":16,\"delay\":8,"
        "\"degree\":1,\"estimator\":\"last\",\"proportional\":true,"
        "\"mantissaDrop\":3},"
        "\"coreApprox\":["
        "{\"core\":1,\"estimator\":\"stride\",\"table\":1024},"
        "{\"core\":3,\"window\":\"inf\",\"noConf\":false}]");
}

TEST(MachineConfigParse, MinimalDocIsTheTable2MachineNamedCustom)
{
    const MachineConfig m = parse(doc(""));
    EXPECT_EQ(m.name, "custom");
    EXPECT_EQ(m.cores, 4u);
    EXPECT_EQ(m.l2Banks, 4u);
    EXPECT_TRUE(m.coreApprox.empty());
    // Same machine as the built-in default, different display name.
    MachineConfig named = m;
    named.name = defaultMachine().name;
    EXPECT_EQ(renderMachineJson(named),
              renderMachineJson(defaultMachine()));
}

TEST(MachineConfigParse, SchemaIsRequiredAndChecked)
{
    expectRejected("{}", "schema");
    expectRejected("{\"schema\":\"lva-machine-v2\"}",
                   "unsupported schema");
    expectRejected("[1,2]", "must be a JSON object");
}

TEST(MachineConfigParse, UnknownKeysAreNamedAtEveryLevel)
{
    expectRejected(doc("\"coreCount\":4"), "coreCount");
    expectRejected(doc("\"l1\":{\"ways\":8}"), "l1: unknown key");
    expectRejected(doc("\"core\":{\"depth\":9}"), "core: unknown key");
    expectRejected(doc("\"l2\":{\"slices\":4}"), "l2: unknown key");
    expectRejected(doc("\"memory\":{\"channels\":2}"),
                   "memory: unknown key");
    expectRejected(doc("\"noc\":{\"diameter\":3}"), "noc: unknown key");
    expectRejected(doc("\"approx\":{\"tables\":2}"),
                   "approx: unknown key");
    expectRejected(doc("\"coreApprox\":[{\"core\":0,\"foo\":1}]"),
                   "coreApprox[]: unknown key");
    // phase1L1 has no latency (it is a hit/miss tag model only).
    expectRejected(doc("\"phase1L1\":{\"latency\":1}"),
                   "phase1L1: unknown key");
}

TEST(MachineConfigParse, CoreCountRangeAndTypes)
{
    EXPECT_EQ(parse(doc("\"cores\":1,\"noc\":{\"cols\":1,\"rows\":1},"
                        "\"l2\":{\"banks\":1}"))
                  .cores,
              1u);
    expectRejected(doc("\"cores\":0,\"noc\":{\"cols\":1,\"rows\":1},"
                       "\"l2\":{\"banks\":1}"),
                   "cores");
    expectRejected(doc("\"cores\":33"), "cores");
    // Type and sign errors surface from the JSON layer; the exact
    // wording is its business, rejection is ours.
    EXPECT_FALSE(rejection(doc("\"cores\":-4")).empty());
    EXPECT_FALSE(rejection(doc("\"cores\":\"four\"")).empty());
}

TEST(MachineConfigParse, CacheGeometryMustBePowerOfTwoSets)
{
    // 24 KB / (8 * 64) = 48 sets: not a power of two.
    expectRejected(doc("\"l1\":{\"size\":24576}"), "power of two");
    expectRejected(doc("\"phase1L1\":{\"size\":24576}"), "power of two");
    expectRejected(doc("\"l1\":{\"block\":48}"), "block");
    expectRejected(doc("\"l1\":{\"size\":16000}"),
                   "multiple of assoc * block");
    // Whole-L2 geometry can be fine while the per-bank slice is not:
    // 384 KB 12-way has 512 sets and splits evenly into 3 banks, but
    // each 128 KB slice is not a multiple of its 768-byte set.
    expectRejected(doc("\"cores\":3,\"noc\":{\"cols\":3,\"rows\":1},"
                       "\"l2\":{\"banks\":3,\"size\":393216,"
                       "\"assoc\":12}"),
                   "l2 bank slice");
}

TEST(MachineConfigParse, TopologyConsistency)
{
    expectRejected(doc("\"cores\":2"), "must equal noc nodes");
    expectRejected(doc("\"l2\":{\"banks\":2}"), "l2.banks");
    // 512 KB has power-of-two sets but does not split into 3 banks.
    expectRejected(doc("\"cores\":3,\"noc\":{\"cols\":3,\"rows\":1},"
                       "\"l2\":{\"banks\":3}"),
                   "multiple of l2.banks");
    expectRejected(doc("\"heteroNoc\":true,"
                       "\"slowNoc\":{\"cols\":1,\"rows\":1}"),
                   "slowNoc");
    // The same slow plane is fine while heteroNoc stays off.
    EXPECT_EQ(parse(doc("\"slowNoc\":{\"cols\":1,\"rows\":1}"))
                  .slowNoc.nodes(),
              1u);
}

TEST(MachineConfigParse, ApproximatorRanges)
{
    expectRejected(doc("\"approx\":{\"table\":512,\"tableAssoc\":3}"),
                   "tableAssoc must divide table");
    expectRejected(doc("\"approx\":{\"confidenceBits\":0}"),
                   "confidenceBits");
    expectRejected(doc("\"approx\":{\"confidenceBits\":32}"),
                   "confidenceBits");
    expectRejected(doc("\"approx\":{\"window\":-0.5}"), "window");
    expectRejected(doc("\"approx\":{\"window\":\"huge\"}"), "window");
    expectRejected(doc("\"approx\":{\"lhb\":0}"), "lhb");
    expectRejected(doc("\"approx\":{\"tagBits\":65}"), "tagBits");
    expectRejected(doc("\"approx\":{\"mantissaDrop\":53}"),
                   "mantissaDrop");
    expectRejected(doc("\"approx\":{\"estimator\":\"median\"}"),
                   "unknown estimator");
    expectRejected(doc("\"protocol\":\"moesi\""), "unknown protocol");
    EXPECT_EQ(parse(doc("\"approx\":{\"window\":\"inf\"}"))
                  .approx.confidenceWindow,
              ApproximatorConfig::infiniteWindow);
}

TEST(MachineConfigParse, CoreApproxEntries)
{
    expectRejected(doc("\"coreApprox\":[{\"estimator\":\"last\"}]"),
                   "missing \"core\"");
    expectRejected(doc("\"coreApprox\":[{\"core\":4}]"),
                   "out of range");
    expectRejected(doc("\"coreApprox\":[{\"core\":0},{\"core\":0}]"),
                   "duplicate");
    expectRejected(doc("\"coreApprox\":{\"core\":0}"),
                   "must be a JSON array");
    // A rejected per-core value names the entry, not the base.
    expectRejected(doc("\"coreApprox\":[{\"core\":2,\"lhb\":0}]"),
                   "coreApprox[2]");

    // Listed cores get their overrides; unlisted cores inherit approx.
    const MachineConfig m =
        parse(doc("\"approx\":{\"table\":256},"
                  "\"coreApprox\":[{\"core\":1,\"table\":1024}]"));
    ASSERT_EQ(m.coreApprox.size(), 4u);
    EXPECT_EQ(m.coreApprox[0].tableEntries, 256u);
    EXPECT_EQ(m.coreApprox[1].tableEntries, 1024u);
    EXPECT_EQ(m.coreApprox[3].tableEntries, 256u);

    // An empty list means homogeneous, same as no list at all.
    EXPECT_TRUE(parse(doc("\"coreApprox\":[]")).coreApprox.empty());
}

TEST(MachineConfigFile, MissingAndTornFilesFailWithThePath)
{
    const std::string missing =
        testing::TempDir() + "machine_config_test_nonexistent.json";
    try {
        machineFromFile(missing);
        FAIL() << "missing file accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(missing),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos);
    }

    const std::string torn =
        testing::TempDir() + "machine_config_test_torn.json";
    {
        std::ofstream out(torn, std::ios::binary);
        out << "{\"schema\":\"lva-machine-v1\",\"cores\"";
    }
    try {
        machineFromFile(torn);
        FAIL() << "torn file accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(torn), std::string::npos);
    }
    std::remove(torn.c_str());
}

TEST(MachineConfigFile, RoundTripsThroughRenderAndParse)
{
    const std::string path =
        testing::TempDir() + "machine_config_test_ok.json";
    {
        std::ofstream out(path, std::ios::binary);
        out << heteroDoc();
    }
    const MachineConfig m = machineFromFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(m.name, "h4");
    EXPECT_EQ(renderMachineJson(m),
              renderMachineJson(parse(renderMachineJson(m))));
}

TEST(MachineConfigProjection, HeteroVariantsCarryIntoBothPhases)
{
    const MachineConfig m = parse(heteroDoc());

    const ApproxMemory::Config lva = m.phase1Lva();
    EXPECT_EQ(lva.threads, 4u);
    EXPECT_EQ(lva.cache.sizeBytes, 32768u);
    ASSERT_EQ(lva.threadApprox.size(), 4u);
    EXPECT_EQ(lva.threadApprox[0].estimator, Estimator::Last);
    EXPECT_EQ(lva.threadApprox[1].estimator, Estimator::Stride);
    EXPECT_EQ(lva.threadApprox[1].tableEntries, 1024u);
    EXPECT_EQ(lva.threadApprox[3].confidenceWindow,
              ApproximatorConfig::infiniteWindow);
    // Precise projection stays canonical: no variants, so the golden
    // cache key depends only on geometry.
    EXPECT_TRUE(m.phase1Precise().threadApprox.empty());
    // Sweep edits must land on every lane, not only the (unused,
    // once variants exist) base — the driver/RPC shared semantics.
    ApproxMemory::Config swept = lva;
    swept.editApprox([](ApproximatorConfig &a) { a.ghbEntries = 3; });
    EXPECT_EQ(swept.approx.ghbEntries, 3u);
    EXPECT_EQ(swept.threadApprox[0].ghbEntries, 3u);
    EXPECT_EQ(swept.threadApprox[2].ghbEntries, 3u);
    // The heterogeneous lane set must actually construct.
    ApproxMemory mem(lva);

    const FullSystemConfig fs = m.fullSystem(true, 4);
    EXPECT_TRUE(fs.lvaEnabled);
    EXPECT_TRUE(fs.heteroNoc);
    EXPECT_EQ(fs.slowMesh.flitBytes, 4u);
    EXPECT_EQ(fs.backgroundFetchExtraLatency, 7u);
    ASSERT_EQ(fs.coreApprox.size(), 4u);
    for (const ApproximatorConfig &a : fs.coreApprox) {
        // The lva(degree) override applies to every variant.
        EXPECT_EQ(a.approxDegree, 4u);
        EXPECT_EQ(a.valueDelay, 1u);
    }
    EXPECT_EQ(fs.coreApprox[1].estimator, Estimator::Stride);
    // Without LVA the machine is a precise baseline: no mechanism.
    EXPECT_FALSE(m.fullSystem(false).lvaEnabled);
    EXPECT_TRUE(m.fullSystem(false).coreApprox.empty());
}

TEST(MachineConfigSchema, KeyListIsUniqueAndComplete)
{
    const std::vector<std::string> &keys = machineSchemaKeys();
    EXPECT_EQ(keys.size(), 47u);
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(),
              keys.size());
    // Spot-check the corners the docs table is gated against.
    EXPECT_EQ(keys.front(), "schema");
    EXPECT_NE(std::find(keys.begin(), keys.end(), "coreApprox.core"),
              keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(),
                        "backgroundFetchExtraLatency"),
              keys.end());
}

TEST(MachineConfigSchema, KeyListMatchesTopologyDocBothWays)
{
    // The docs/topology.md key table, checked both ways.
    const std::vector<std::string> &keys = machineSchemaKeys();
    EXPECT_EQ(audit::tableDrift({keys.begin(), keys.end()},
                                LVA_DOCS_DIR "/topology.md",
                                "machine-schema"),
              "");
}

} // namespace
} // namespace lva
