/**
 * @file
 * Tests for the versioned lva-stats-v1 JSON export.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "eval/stat_report.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

namespace lva {
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
