/**
 * @file
 * coord_sweep: lva_sweep_coord shards a small fixed sweep across the
 * two-worker fleet it spawns itself. The timed unit is one whole
 * coordinator run (plan, spawn, scatter, gather with checkpoint
 * appends, merge, teardown); its merged export must equal, byte for
 * byte, the export of the same sweep run in process by SweepRunner.
 * No other workload reaches the coordinator, the fleet supervisor or
 * the checkpoint manifest.
 */

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "perfbench.hh"
#include "proc.hh"
#include "spans.hh"

#include "eval/coord.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "util/checkpoint.hh"

namespace perfbench {

namespace {

constexpr double kScale = 0.1;
constexpr u32 kFleet = 2;
/**
 * Coordinator runs an untraced run completes even past its deadline:
 * the p90 needs ten samples beyond it. A coordinator run lasts about
 * 0.3 s, so this stretches the run to about 30 s.
 */
constexpr u32 kMinUnits = 100;

/** Six kernels x two configurations, in seed-permuted order. */
std::string
pointsJson(u64 seed)
{
    std::vector<std::string> items;
    for (const char *w : {"blackscholes", "canneal", "ferret",
                          "fluidanimate", "swaptions", "x264"}) {
        items.push_back(std::string("{\"label\":\"") + w +
                        "/ghb2\",\"workload\":\"" + w +
                        "\",\"config\":{\"ghb\":2}}");
        items.push_back(std::string("{\"label\":\"") + w +
                        "/deg4\",\"workload\":\"" + w +
                        "\",\"config\":{\"degree\":4}}");
    }
    std::string out = "[";
    for (const u32 i :
         unitOrder(seed, 0, static_cast<u32>(items.size()))) {
        if (out.size() > 1)
            out += ",";
        out += items[i];
    }
    return out + "]";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The same sweep in process, from cold goldens, as the fleet runs it. */
std::string
directExport(const std::vector<lva::SweepPoint> &points,
             lva::SweepOutcome &outcome, double &instructions)
{
    lva::Evaluator eval(1, kScale);
    lva::SweepRunner runner(eval, 1);
    lva::SweepOptions opts;
    opts.driver = "coord_sweep";
    outcome = runner.runChecked(points, opts);
    instructions = 0.0;
    std::set<std::string> workloads;
    for (std::size_t i = 0; i < points.size(); ++i) {
        instructions += outcome.results[i].instructions;
        workloads.insert(points[i].workload);
    }
    // Each worker builds the goldens of its shard's workloads once.
    for (const std::string &w : workloads)
        instructions += eval.evaluatePrecise(w).instructions;
    return lva::renderSweepStats("coord_sweep", points, outcome);
}

} // namespace

RunResult
runCoord(const RunOptions &opt, Reference &ref)
{
    const std::string json = pointsJson(opt.seed);
    const std::vector<lva::SweepPoint> points =
        lva::sweepPointsFromJson(lva::parseJson(json));
    const std::string pointsPath = opt.workdir + "/coord_points.json";
    {
        std::ofstream f(pointsPath, std::ios::binary | std::ios::trunc);
        f << json;
        if (!f)
            throw std::runtime_error("cannot write " + pointsPath);
    }

    // Set-up: the in-process reference run, repeated.
    RunResult out;
    std::vector<double> setup;
    lva::SweepOutcome outcome;
    std::string direct;
    double instr = 0.0;
    for (u32 rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = nowSeconds();
        direct = directExport(points, outcome, instr);
        setup.push_back(nowSeconds() - t0);
    }
    std::vector<double> inProcess = setup;
    for (std::size_t i = 0; i < points.size(); ++i) {
        ++out.attempted;
        if (!ref.check("coord_sweep/" + points[i].label,
                       lva::renderSweepStats("coord_sweep", {points[i]},
                                             {outcome.results[i]})))
            ++out.failed;
    }

    const std::string outPath = opt.workdir + "/coord_out.json";
    const std::string results = opt.workdir + "/coord_results";
    const std::vector<std::string> argv{
        opt.bindir + "/lva_sweep_coord", "--driver", "coord_sweep",
        "--points", pointsPath, "--out", outPath,
        "--fleet", std::to_string(kFleet), "--shards",
        std::to_string(kFleet), "--served", opt.bindir + "/lva_served",
        "--workers", "1", "--jobs", "1", "--seeds", "1",
        "--scale", std::to_string(kScale)};
    const std::vector<std::string> env =
        childEnv({"LVA_RESULTS_DIR=" + results});
    const std::vector<std::string> workerArgs{
        "--workers", "1", "--jobs", "1",
        "--seeds", "1", "--scale", std::to_string(kScale)};

    SpanRecorder rec(opt.trace);
    std::vector<double> plain, traced, spawn, plan, merge;
    u64 ok = 0;
    double tracedWall = 0.0;
    const double deadline = nowSeconds() + opt.seconds;
    const u32 minUnits = opt.trace ? 10 : kMinUnits;
    for (u32 unit = 0; unit < minUnits || nowSeconds() < deadline;
         ++unit) {
        const bool tracedUnit = opt.trace && unit % 2 == 1;
        SpanRecorder off(false);
        SpanRecorder &r = tracedUnit ? rec : off;
        const double unitStart = nowSeconds();
        std::remove((results + "/checkpoints/coord_sweep.coord.jsonl")
                        .c_str());
        std::remove(outPath.c_str());

        int code = -1;
        const double t0 = nowSeconds();
        {
            ScopedSpan span(r, "coord.unit");
            Child coordinator(argv, env, opt.workdir + "/coord.log");
            code = coordinator.wait(120.0);
        }
        (tracedUnit ? traced : plain).push_back(nowSeconds() - t0);
        {
            ScopedSpan span(r, "check.output");
            ++out.attempted;
            if (code == 0 && readFile(outPath) == direct)
                ++ok;
            else
                ++out.failed;
        }
        if (!tracedUnit)
            continue;

        // Layer probes, outside the coordinator's wall time.
        {
            const double s0 = nowSeconds();
            ScopedSpan span(r, "tools.fleet_spawn");
            Daemon worker(opt.bindir, workerArgs,
                          opt.workdir + "/coord.log");
            spawn.push_back(nowSeconds() - s0);
            worker.stop();
        }
        lva::ShardPlan shardPlan;
        {
            ScopedSpan span(r, "eval.coord_plan");
            const double p0 = nowSeconds();
            shardPlan = lva::planShards(points, kFleet);
            plan.push_back(nowSeconds() - p0);
        }
        {
            ScopedSpan span(r, "eval.coord_merge");
            std::vector<lva::ShardRecord> records;
            for (u32 s = 0; s < kFleet; ++s) {
                if (shardPlan.members[s].empty())
                    continue;
                lva::ShardRecord record;
                record.shard = s;
                for (const lva::u64 g : shardPlan.members[s])
                    record.results.push_back(outcome.results[g]);
                records.push_back(std::move(record));
            }
            const double m0 = nowSeconds();
            lva::mergeShards(shardPlan, points.size(), records);
            merge.push_back(nowSeconds() - m0);
        }
        {
            ScopedSpan span(r, "eval.sweep_inprocess");
            lva::SweepOutcome again;
            double ignored = 0.0;
            const double d0 = nowSeconds();
            directExport(points, again, ignored);
            inProcess.push_back(nowSeconds() - d0);
        }
        tracedWall += nowSeconds() - unitStart;
    }

    if (!opt.trace) {
        std::vector<double> ms;
        for (double s : plain)
            ms.push_back(s * 1e3);
        const auto p50 = tailPercentile(ms, 0.5);
        const auto p90 = tailPercentile(ms, 0.9);
        if (!p50 || !p90)
            throw std::runtime_error("coord_sweep: too few units for "
                                     "the latency percentiles");
        out.put("setup_s", median(setup), "s");
        out.put("sim_minstr_per_s", instr / median(plain) / 1e6,
                "Minstr/s");
        out.put("peak_rss_mb", childrenPeakRssMb(), "MB");
        out.put("req_p50_ms", *p50, "ms");
        out.put("req_p90_ms", *p90, "ms");
        out.put("max_rps_under_slo", 1.0 / median(plain), "1/s");
        out.put("ok_frac",
                static_cast<double>(ok) /
                    static_cast<double>(plain.size() + traced.size()),
                "frac");
        return out;
    }

    out.put("tools.fleet_spawn_ms", median(spawn) * 1e3, "ms");
    out.put("eval.coord_plan_ms", median(plan) * 1e3, "ms");
    out.put("eval.coord_merge_ms", median(merge) * 1e3, "ms");
    out.put("eval.coord_overhead_frac",
            median(plain) / median(inProcess), "ratio");
    out.put("trace.coverage", rec.topLevelTime() / tracedWall, "frac");
    out.put("trace.overhead_frac", median(traced) / median(plain) - 1.0,
            "frac");
    return out;
}

} // namespace perfbench
