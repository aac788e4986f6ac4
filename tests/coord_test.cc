/**
 * @file
 * Tests for the sweep-sharding coordinator layer (eval/coord) and the
 * lva_sweep_coord binary.
 *
 * The in-process half pins the tentpole property on the pure pieces:
 * for shard counts {1, 3, 7}, scattering a sweep through
 * EvalService::handle (shard-scoped detail requests) and merging the
 * shard records yields renderSweepStats bytes identical to a direct
 * single-process runChecked — including when points fail. Plus the
 * plan/rank invariants, record round-trips, and merge validation.
 *
 * The cross-process half forks the real lva_sweep_coord binary over a
 * real worker fleet and asserts the acceptance criterion: a worker
 * killed mid-shard and a coordinator killed mid-run (resumed with
 * --resume) still produce a byte-identical export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include "eval/coord.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "util/fault.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

constexpr u32 kSeeds = 1;
constexpr double kScale = 0.02;

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A small multi-workload grid (workloads chosen for no particular
 *  hash property: the tests derive shard placement, never assume it). */
std::vector<SweepPoint>
testPoints(bool includeBadWorkload = false)
{
    std::vector<SweepPoint> points;
    for (const char *name :
         {"swaptions", "blackscholes", "fluidanimate", "bodytrack"}) {
        for (u32 ghb : {0u, 2u}) {
            ApproxMemory::Config cfg = defaultMachine().phase1Lva();
            cfg.approx.ghbEntries = ghb;
            points.push_back({"ghb-" + std::to_string(ghb), name, cfg});
        }
    }
    if (includeBadWorkload) {
        // An unknown workload fails in isolation on whatever process
        // evaluates it — the honest-failure path, no fault injection
        // needed.
        points.push_back(
            {"bad", "no-such-workload", defaultMachine().phase1Lva()});
    }
    return points;
}

/** The same JSON a client would put in the request "points" array. */
std::string
pointsJson(const std::vector<SweepPoint> &points,
           const std::vector<u64> &members)
{
    std::string out = "[";
    for (std::size_t i = 0; i < members.size(); ++i) {
        const SweepPoint &p = points[members[i]];
        if (i > 0)
            out += ',';
        out += "{\"label\":\"" + p.label + "\",\"workload\":\"" +
               p.workload + "\",\"config\":{\"ghb\":" +
               std::to_string(p.config.approx.ghbEntries) + "}}";
    }
    return out + "]";
}

/** Direct single-process reference export for @p points. */
std::string
directExport(const std::vector<SweepPoint> &points)
{
    Evaluator eval(kSeeds, kScale);
    SweepRunner runner(eval, 1);
    SweepOptions opts;
    opts.driver = "coord_test";
    const SweepOutcome outcome = runner.runChecked(points, opts);
    return renderSweepStats("coord_test", points, outcome);
}

ServeOptions
testOptions()
{
    ServeOptions opts;
    opts.workers = 2;
    opts.queueCap = 4;
    opts.deadlineMs = 5000;
    opts.maxAttempts = 1;
    opts.jobs = 1;
    return opts;
}

/** Scatter @p points through @p service per @p plan and merge. */
std::string
shardedExport(EvalService &service, const ShardPlan &plan,
              const std::vector<SweepPoint> &points)
{
    std::vector<ShardRecord> records;
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        const std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":\"coord_test\",\"shard\":" +
            std::to_string(s) + ",\"detail\":true,\"points\":" +
            pointsJson(points, plan.members[s]) + "}";
        const JsonValue response = parseJson(service.handle(request));
        records.push_back(shardRecordFromResponse(
            response, s, plan.members[s].size()));
    }
    const SweepOutcome outcome =
        mergeShards(plan, points.size(), records);
    return renderSweepStats("coord_test", points, outcome);
}

// ---------------------------------------------------------------------
// Plan and rank invariants
// ---------------------------------------------------------------------

TEST(CoordPlan, EveryPointInExactlyOneShard)
{
    const std::vector<SweepPoint> points = testPoints();
    for (u32 shards : {1u, 2u, 3u, 7u, 16u}) {
        const ShardPlan plan = planShards(points, shards);
        ASSERT_EQ(plan.members.size(), shards);
        std::vector<int> seen(points.size(), 0);
        for (u32 s = 0; s < shards; ++s) {
            for (const u64 g : plan.members[s]) {
                ASSERT_LT(g, points.size());
                ++seen[g];
                // Placement is the fleet's rendezvous rule.
                EXPECT_EQ(s, fleetShard(points[g].workload, shards));
            }
        }
        for (const int n : seen)
            EXPECT_EQ(n, 1);
    }
}

TEST(CoordPlan, MembersKeepSubmissionOrder)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    for (u32 s = 0; s < plan.shards; ++s)
        for (std::size_t i = 1; i < plan.members[s].size(); ++i)
            EXPECT_LT(plan.members[s][i - 1], plan.members[s][i]);
}

TEST(CoordPlan, KeyMatchesTheShardRequestsRouteKey)
{
    // What the coordinator ranks workers by must equal what an
    // lva_fleet frontend would compute for the shard's actual request
    // — one placement rule, two implementations.
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        const std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":\"coord_test\",\"shard\":" +
            std::to_string(s) + ",\"detail\":true,\"points\":" +
            pointsJson(points, plan.members[s]) + "}";
        EXPECT_EQ(plan.keys[s], fleetRouteKey(request));
    }
}

TEST(CoordPlan, WorkerRankLeadsWithTheFleetShard)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    for (u32 workers : {1u, 2u, 3u, 5u}) {
        const std::vector<u32> rank =
            coordWorkerRank(plan.keys[0], workers);
        ASSERT_EQ(rank.size(), workers);
        EXPECT_EQ(rank[0], fleetShard(plan.keys[0], workers));
        std::vector<int> seen(workers, 0);
        for (const u32 r : rank)
            ++seen[r];
        for (const int n : seen)
            EXPECT_EQ(n, 1); // a permutation, no repeats
    }
}

TEST(CoordPlan, ShardRanksSpreadLeadsOverTheFleet)
{
    // Rendezvous leads collide often at small sizes; a collision left
    // in place would serialize two shards on one worker while another
    // idles. Every case below must spread, and some must move a lead.
    const std::vector<SweepPoint> points = testPoints();
    u32 moved = 0;
    for (u32 shards = 1; shards <= 6; ++shards) {
        const ShardPlan plan = planShards(points, shards);
        for (u32 workers : {1u, 2u, 3u, 5u}) {
            const std::vector<std::vector<u32>> ranks =
                coordShardRanks(plan, workers);
            ASSERT_EQ(ranks.size(), shards);
            std::vector<u32> leads(workers, 0);
            for (u32 s = 0; s < shards; ++s) {
                std::vector<u32> rank =
                    coordWorkerRank(plan.keys[s], workers);
                ASSERT_EQ(ranks[s].size(), workers);
                std::vector<u32> same = ranks[s];
                std::sort(same.begin(), same.end());
                std::vector<u32> sorted = rank;
                std::sort(sorted.begin(), sorted.end());
                EXPECT_EQ(same, sorted); // a permutation of the fleet
                // Only the lead moves; the stealing order behind it
                // keeps the rendezvous rank.
                const u32 lead = ranks[s][0];
                rank.erase(std::find(rank.begin(), rank.end(), lead));
                EXPECT_EQ(std::vector<u32>(ranks[s].begin() + 1,
                                           ranks[s].end()),
                          rank);
                if (plan.members[s].empty())
                    continue;
                moved += lead != coordWorkerRank(plan.keys[s], workers)[0];
                ++leads[lead];
            }
            const auto [lo, hi] =
                std::minmax_element(leads.begin(), leads.end());
            EXPECT_LE(*hi - *lo, 1u)
                << shards << " shards on " << workers << " workers";
        }
    }
    EXPECT_GT(moved, 0u);
}

TEST(CoordPlan, DigestTracksShardContents)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan3 = planShards(points, 3);
    const ShardPlan plan7 = planShards(points, 7);
    EXPECT_EQ(shardDigest(plan3, points, 0),
              shardDigest(plan3, points, 0));
    // Different shard index -> different digest even when empty.
    EXPECT_NE(shardDigest(plan3, points, 0),
              shardDigest(plan3, points, 1));
    // The context key carries the shard count; together they keep a
    // manifest written under another plan from resuming.
    const Evaluator eval(kSeeds, kScale);
    EXPECT_NE(coordContextKey(eval, 3), coordContextKey(eval, 7));
    (void)plan7;
}

// ---------------------------------------------------------------------
// Record round-trip and merge validation
// ---------------------------------------------------------------------

ShardRecord
sampleRecord()
{
    ShardRecord record;
    record.shard = 2;
    record.results.push_back(failedPointPlaceholder());
    EvalResult ok;
    ok.outputError = 0.25;
    record.results.push_back(ok);
    PointFailure f;
    f.index = 0;
    f.label = "bad";
    f.workload = "no-such-workload";
    f.error = "unknown workload";
    f.attempts = 2;
    f.timedOut = false;
    record.failures.push_back(f);
    return record;
}

TEST(CoordRecord, EncodeDecodeRoundTrip)
{
    const ShardRecord record = sampleRecord();
    const ShardRecord back =
        decodeShardRecord(parseJson(encodeShardRecord(record)));
    EXPECT_EQ(back.shard, 2u);
    ASSERT_EQ(back.results.size(), 2u);
    EXPECT_TRUE(back.results[0].failed);
    EXPECT_FALSE(back.results[1].failed);
    EXPECT_EQ(back.results[1].outputError, 0.25);
    ASSERT_EQ(back.failures.size(), 1u);
    EXPECT_EQ(back.failures[0].label, "bad");
    EXPECT_EQ(back.failures[0].workload, "no-such-workload");
    EXPECT_EQ(back.failures[0].error, "unknown workload");
    EXPECT_EQ(back.failures[0].attempts, 2u);
    EXPECT_FALSE(back.failures[0].timedOut);
}

TEST(CoordRecord, DecodeRejectsMalformedPayloads)
{
    // Out-of-range failure index.
    EXPECT_THROW(
        decodeShardRecord(parseJson(
            R"({"shard":0,"results":[null],"failures":[{"index":5,)"
            R"("label":"","workload":"","error":"x","attempts":1,)"
            R"("timedOut":false}]})")),
        std::runtime_error);
    // Non-bool timedOut.
    EXPECT_THROW(
        decodeShardRecord(parseJson(
            R"({"shard":0,"results":[null],"failures":[{"index":0,)"
            R"("label":"","workload":"","error":"x","attempts":1,)"
            R"("timedOut":1}]})")),
        std::runtime_error);
    // Missing results member.
    EXPECT_THROW(decodeShardRecord(parseJson(R"({"shard":0})")),
                 std::runtime_error);
}

TEST(CoordMerge, RejectsDuplicateMissingAndMisshapenRecords)
{
    const std::vector<SweepPoint> points = testPoints();
    const ShardPlan plan = planShards(points, 3);
    std::vector<ShardRecord> records;
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        ShardRecord r;
        r.shard = s;
        r.results.resize(plan.members[s].size());
        records.push_back(std::move(r));
    }
    // Well-formed merges cleanly.
    EXPECT_NO_THROW(mergeShards(plan, points.size(), records));

    // A record for every shard twice: double coverage.
    std::vector<ShardRecord> doubled = records;
    doubled.insert(doubled.end(), records.begin(), records.end());
    EXPECT_THROW(mergeShards(plan, points.size(), doubled),
                 std::runtime_error);

    // A missing shard: uncovered points.
    std::vector<ShardRecord> partial(records.begin(),
                                     records.end() - 1);
    EXPECT_THROW(mergeShards(plan, points.size(), partial),
                 std::runtime_error);

    // A record whose result count disagrees with the plan.
    std::vector<ShardRecord> misshapen = records;
    misshapen[0].results.pop_back();
    EXPECT_THROW(mergeShards(plan, points.size(), misshapen),
                 std::runtime_error);
}

// ---------------------------------------------------------------------
// The tentpole: sharded bytes == direct bytes
// ---------------------------------------------------------------------

TEST(CoordIdentity, ShardedExportMatchesDirectForAnyShardCount)
{
    const std::vector<SweepPoint> points = testPoints();
    const std::string direct = directExport(points);
    EvalService service(kSeeds, kScale, testOptions());
    for (u32 shards : {1u, 3u, 7u}) {
        const ShardPlan plan = planShards(points, shards);
        EXPECT_EQ(shardedExport(service, plan, points), direct)
            << "shards=" << shards;
    }
}

TEST(CoordIdentity, FailedPointsRenderIdenticallyThroughTheMerge)
{
    // A point that fails on the worker must come back through the
    // shard record as the same placeholder + failures-section bytes
    // the local engine would have produced.
    const std::vector<SweepPoint> points = testPoints(true);
    const std::string direct = directExport(points);
    ASSERT_NE(direct.find("\"failures\""), std::string::npos);
    EvalService service(kSeeds, kScale, testOptions());
    for (u32 shards : {1u, 3u}) {
        const ShardPlan plan = planShards(points, shards);
        EXPECT_EQ(shardedExport(service, plan, points), direct)
            << "shards=" << shards;
    }
}

TEST(CoordIdentity, RecordsRestoredFromManifestBytesMatchToo)
{
    // Resume path: shard records that took a detour through their
    // manifest encoding still merge to the same bytes.
    const std::vector<SweepPoint> points = testPoints(true);
    const std::string direct = directExport(points);
    EvalService service(kSeeds, kScale, testOptions());
    const ShardPlan plan = planShards(points, 3);
    std::vector<ShardRecord> records;
    for (u32 s = 0; s < plan.shards; ++s) {
        if (plan.members[s].empty())
            continue;
        const std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":\"coord_test\",\"shard\":" +
            std::to_string(s) + ",\"detail\":true,\"points\":" +
            pointsJson(points, plan.members[s]) + "}";
        const ShardRecord fresh = shardRecordFromResponse(
            parseJson(service.handle(request)), s,
            plan.members[s].size());
        records.push_back(
            decodeShardRecord(parseJson(encodeShardRecord(fresh))));
    }
    const SweepOutcome outcome =
        mergeShards(plan, points.size(), records);
    EXPECT_EQ(renderSweepStats("coord_test", points, outcome), direct);
}

// ---------------------------------------------------------------------
// Cross-process acceptance: the real binary, real kills
// ---------------------------------------------------------------------

class CoordBinaryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("lva_coord_" +
                std::to_string(static_cast<long>(getpid())) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        points_ = testPoints();
        std::ofstream(dir_ / "points.json")
            << pointsJson(points_, allIndices());
    }

    void
    TearDown() override
    {
        // A killed coordinator never tears its workers down (that is
        // the point of the kill test); reap the strays by the pids it
        // announced before dying.
        const std::string log = slurp(dir_ / "coord.log");
        const std::string needle = ") pid ";
        for (std::size_t at = log.find(needle);
             at != std::string::npos;
             at = log.find(needle, at + 1)) {
            const pid_t pid =
                std::atoi(log.c_str() + at + needle.size());
            if (pid > 1)
                kill(pid, SIGKILL);
        }
        fs::remove_all(dir_);
    }

    std::vector<u64>
    allIndices() const
    {
        std::vector<u64> all(points_.size());
        for (u64 i = 0; i < all.size(); ++i)
            all[i] = i;
        return all;
    }

    /**
     * Run the coordinator to completion; returns its exit code
     * (-signal when killed). @p fault / @p fleetFault arm LVA_FAULT /
     * LVA_FLEET_FAULT in the child; @p extra flags are appended.
     */
    int
    runCoord(const std::string &out, bool resume,
             const std::string &fault = "",
             const std::string &fleetFault = "",
             const std::vector<std::string> &extra = {})
    {
        const pid_t pid = fork();
        if (pid == 0) {
            FILE *log = std::fopen((dir_ / "coord.log").c_str(), "a");
            if (log) {
                dup2(fileno(log), STDOUT_FILENO);
                dup2(fileno(log), STDERR_FILENO);
            }
            setenv("LVA_SEEDS", "1", 1);
            setenv("LVA_SCALE", "0.02", 1);
            setenv("LVA_JOBS", "1", 1);
            setenv("LVA_RESULTS_DIR", (dir_ / "results").c_str(), 1);
            unsetenv("LVA_FAULT");
            unsetenv("LVA_FLEET_FAULT");
            if (!fault.empty())
                setenv("LVA_FAULT", fault.c_str(), 1);
            if (!fleetFault.empty())
                setenv("LVA_FLEET_FAULT", fleetFault.c_str(), 1);
            const std::string pts = (dir_ / "points.json").string();
            const std::string dst = (dir_ / out).string();
            std::vector<std::string> args = {"lva_sweep_coord"};
            args.insert(args.end(), {"--driver", "coord_test"});
            args.insert(args.end(), {"--points", pts, "--out", dst});
            args.insert(args.end(), {"--fleet", "3", "--shards", "3"});
            if (resume)
                args.push_back("--resume");
            args.insert(args.end(), extra.begin(), extra.end());
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(LVA_COORD_BINARY, argv.data());
            _exit(127);
        }
        int status = 0;
        waitpid(pid, &status, 0);
        if (WIFSIGNALED(status))
            return -WTERMSIG(status);
        return WEXITSTATUS(status);
    }

    fs::path dir_;
    std::vector<SweepPoint> points_;
};

TEST_F(CoordBinaryTest, WorkerKillMidShardStillMatchesDirectBytes)
{
    // Every worker's first incarnation aborts on its first request:
    // each shard's first exchange dies mid-flight and the coordinator
    // must steal/respawn its way to a complete, identical export.
    const int rc =
        runCoord("out.json", false, "", "*:serve.request.0=abort");
    EXPECT_EQ(rc, 0) << slurp(dir_ / "coord.log");
    EXPECT_EQ(slurp(dir_ / "out.json"), directExport(points_));
    // The respawned workers still drain on their own: no worker
    // waits out the reap deadline.
    const std::string log = slurp(dir_ / "coord.log");
    EXPECT_EQ(log.find("SIGKILL"), std::string::npos) << log;
}

TEST_F(CoordBinaryTest, CoordinatorKillThenResumeMatchesDirectBytes)
{
    // Kill the coordinator at the gather of a shard that provably has
    // points (derived from the plan, not assumed): the manifest holds
    // whatever completed first; --resume finishes the rest and the
    // bytes still match. The same schedule also proves a *scatter*
    // kill resumes, since unscattered shards are simply absent.
    const ShardPlan plan = planShards(points_, 3);
    u32 victim = 0;
    for (u32 s = 0; s < plan.shards; ++s)
        if (!plan.members[s].empty())
            victim = s;
    const int rc = runCoord(
        "dead.json", false,
        "coord.gather." + std::to_string(victim) + "=abort");
    EXPECT_EQ(rc, faultExitCode()) << slurp(dir_ / "coord.log");
    EXPECT_FALSE(fs::exists(dir_ / "dead.json"));

    const int rc2 = runCoord("out.json", true);
    EXPECT_EQ(rc2, 0) << slurp(dir_ / "coord.log");
    EXPECT_EQ(slurp(dir_ / "out.json"), directExport(points_));
    const std::string log = slurp(dir_ / "coord.log");
    EXPECT_EQ(log.find("SIGKILL"), std::string::npos) << log;
}

TEST_F(CoordBinaryTest, BadWorkerFlagExitsTwoBeforeForking)
{
    // Forwarded worker flags are checked with lva_served's ranges in
    // the coordinator, so a bad one is a usage error, not a worker
    // that dies before announcing its port.
    EXPECT_EQ(runCoord("out.json", false, "", "", {"--workers", "-1"}), 2);
    EXPECT_EQ(runCoord("out.json", false, "", "", {"--queue", "2x"}), 2);
    EXPECT_EQ(runCoord("out.json", false, "", "", {"--retries", "100"}), 2);
    EXPECT_EQ(runCoord("out.json", false, "", "", {"--scale", "9"}), 2);
    const std::string log = slurp(dir_ / "coord.log");
    EXPECT_EQ(log.find("worker 0"), std::string::npos) << log;
    EXPECT_FALSE(fs::exists(dir_ / "out.json"));
}

} // namespace
} // namespace lva
