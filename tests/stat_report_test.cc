/**
 * @file
 * Tests for the StatDump framework, the component stat reports and
 * the versioned lva-stats-v1 JSON export.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/stat_report.hh"
#include "sim/machine_config.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

namespace lva {
namespace {

TEST(StatDump, AddAndLookup)
{
    StatDump dump;
    dump.add("a.b", 3.0, "a thing");
    dump.add("a.c", 4.5);
    EXPECT_DOUBLE_EQ(dump.valueOf("a.b"), 3.0);
    EXPECT_DOUBLE_EQ(dump.valueOf("a.c"), 4.5);
    EXPECT_DOUBLE_EQ(dump.valueOf("missing"), 0.0);
    EXPECT_EQ(dump.entries().size(), 2u);
}

TEST(StatDump, FileOutputIsGem5Style)
{
    const std::string path = "test_stats_out.txt";
    StatDump dump;
    dump.add("sys.cycles", 1234, "total cycles");
    dump.add("sys.ipc", 2.5, "aggregate IPC");
    dump.writeFile(path);

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_NE(text.find("sys.cycles"), std::string::npos);
    EXPECT_NE(text.find("1234"), std::string::npos);
    EXPECT_NE(text.find("# total cycles"), std::string::npos);
    EXPECT_NE(text.find("2.5"), std::string::npos);
    std::filesystem::remove(path);
}

TEST(StatReport, ApproxMemoryReportMatchesMetrics)
{
    ApproxMemory::Config cfg;
    cfg.threads = 2;
    cfg.cache = CacheConfig{1024, 2, 64};
    cfg.approx.valueDelay = 0;
    ApproxMemory mem(cfg);
    mem.load(0, 0x400, 0x10000, Value::fromInt(1), true);
    mem.load(0, 0x400, 0x20000, Value::fromInt(1), true);
    mem.tickInstructions(1, 98);

    const StatDump dump = reportApproxMemory(mem, "p1");
    const MemMetrics m = mem.metrics();
    EXPECT_DOUBLE_EQ(dump.valueOf("p1.instructions"),
                     static_cast<double>(m.instructions));
    EXPECT_DOUBLE_EQ(dump.valueOf("p1.loadMisses"),
                     static_cast<double>(m.loadMisses));
    EXPECT_DOUBLE_EQ(dump.valueOf("p1.mpki"), m.mpki());
    // Per-thread breakdown present.
    EXPECT_DOUBLE_EQ(dump.valueOf("p1.thread0.l1.misses"), 2.0);
    EXPECT_DOUBLE_EQ(dump.valueOf("p1.thread1.l1.misses"), 0.0);
    EXPECT_DOUBLE_EQ(dump.valueOf("p1.thread0.lva.lookups"), 2.0);
}

TEST(StatReport, FullSystemReportMatchesResult)
{
    FullSystemSim sim(defaultMachine().fullSystem(true, 2));
    std::vector<ThreadTrace> traces(4);
    for (u32 i = 0; i < 12; ++i) {
        TraceEvent ev;
        ev.addr = 0x100000 + i * 0x10040;
        ev.value = Value::fromInt(9);
        ev.pc = 0x400;
        ev.instrBefore = 5;
        ev.isLoad = true;
        ev.approximable = true;
        traces[0].push_back(ev);
    }
    const FullSystemResult r = sim.run(traces);
    const StatDump dump = reportFullSystem(r, "sys");
    EXPECT_DOUBLE_EQ(dump.valueOf("sys.cycles"), r.cycles);
    EXPECT_DOUBLE_EQ(dump.valueOf("sys.l1Misses"),
                     static_cast<double>(r.l1Misses));
    EXPECT_DOUBLE_EQ(dump.valueOf("sys.energy.total"),
                     r.energy.total());
    EXPECT_DOUBLE_EQ(dump.valueOf("sys.missEdp"), r.missEdp());
}

namespace {

/** Two labelled snapshots with every stat type represented. */
std::vector<NamedSnapshot>
sampleSnapshots()
{
    StatRegistry reg;
    reg.counter("l1.misses", "L1 misses").inc(464);
    reg.gauge("eval.mpki", "effective MPKI", "misses/kinstr").set(3.5);
    reg.histogram("lva.error", 0.0, 1.0, 4, "relative error")
        .sample(0.25);
    std::vector<NamedSnapshot> snaps;
    snaps.push_back({"baseline", "canneal", reg.snapshot()});
    reg.counter("l1.misses").inc(36);
    snaps.push_back({"lva-d4", "canneal", reg.snapshot()});
    return snaps;
}

} // namespace

TEST(StatsJson, RenderCarriesSchemaDriverAndPoints)
{
    const std::string json = renderStatsJson("unit_test",
                                             sampleSnapshots());
    EXPECT_NE(json.find(std::string("\"schema\": \"") +
                        statsJsonSchema() + "\""),
              std::string::npos);
    EXPECT_NE(json.find("\"driver\": \"unit_test\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"baseline\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"lva-d4\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"canneal\""), std::string::npos);
    EXPECT_NE(json.find("\"l1.misses\""), std::string::npos);
    EXPECT_NE(json.find("\"value\": 500"), std::string::npos);
    // Histograms export their geometry and buckets.
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    // Identical input renders identical bytes.
    EXPECT_EQ(json, renderStatsJson("unit_test", sampleSnapshots()));
}

TEST(StatsJson, SchemaCheckRejectsForeignFilePassesOwn)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "lva_schema_check_test";
    fs::create_directories(dir);
    const std::string missing = (dir / "never_written.json").string();
    EXPECT_NO_THROW(checkStatsFileSchema(missing));

    const std::string foreign = (dir / "foreign.json").string();
    std::ofstream(foreign)
        << "{\n  \"schema\": \"lva-stats-v999\",\n  \"points\": []\n}\n";
    EXPECT_THROW(checkStatsFileSchema(foreign), std::runtime_error);

    const std::string untagged = (dir / "untagged.json").string();
    std::ofstream(untagged) << "{\n  \"points\": []\n}\n";
    EXPECT_THROW(checkStatsFileSchema(untagged), std::runtime_error);

    const std::string own = (dir / "own.json").string();
    std::ofstream(own) << renderStatsJson("own", sampleSnapshots());
    EXPECT_NO_THROW(checkStatsFileSchema(own));
    fs::remove_all(dir);
}

TEST(StatsJson, WriteHonorsResultsDirOverride)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "lva_results_dir_test";
    fs::remove_all(dir);
    setenv("LVA_RESULTS_DIR", dir.c_str(), 1);

    const std::string written =
        writeStatsJson("unit_test", sampleSnapshots());
    EXPECT_EQ(written, (dir / "stats" / "unit_test.json").string());
    ASSERT_TRUE(fs::exists(written));

    std::ifstream in(written);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), renderStatsJson("unit_test", sampleSnapshots()));

    // A foreign-schema file at the target path must error, not be
    // truncated.
    std::ofstream(written) << "{\n  \"schema\": \"lva-stats-v0\"\n}\n";
    EXPECT_THROW(writeStatsJson("unit_test", sampleSnapshots()),
                 std::runtime_error);
    std::ifstream again(written);
    std::stringstream ss2;
    ss2 << again.rdbuf();
    EXPECT_NE(ss2.str().find("lva-stats-v0"), std::string::npos);

    unsetenv("LVA_RESULTS_DIR");
    fs::remove_all(dir);
}

} // namespace
} // namespace lva
