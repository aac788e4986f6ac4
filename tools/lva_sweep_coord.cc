/**
 * @file
 * lva_sweep_coord — sweep-sharding coordinator for a fleet of
 * lva_served workers (docs/serving.md, "The sweep coordinator").
 *
 * The coordinator reads one sweep (a points file, same format as
 * `lva_client sweep --points`), partitions it into shards by
 * rendezvous hash of each point's workload (eval/coord.hh), spawns a
 * fleet of lva_served workers, scatters each non-empty shard as an
 * `lva-rpc-v1` sweep request with `"shard": <i>, "detail": true`,
 * and merges the shard results into one `lva-stats-v1` export that
 * is byte-identical to a single-process run — for any shard count,
 * fleet size, or kill schedule.
 *
 *   lva_sweep_coord --driver fig5 --points p.json --out stats.json \
 *       --fleet 3 --shards 3
 *
 * Options (defaults from the LVA_COORD_* / LVA_FLEET_* knobs):
 *   --driver NAME    export driver name (required)
 *   --points FILE    JSON points array (required)
 *   --out FILE       write the merged export here (default: stdout)
 *   --fleet N        worker processes (LVA_FLEET_SIZE)       [2]
 *   --shards N       shard count (LVA_COORD_SHARDS)          [fleet]
 *   --served PATH    worker binary (LVA_FLEET_SERVED)
 *                    [lva_served next to this binary]
 *   --resume         skip shards recorded in the checkpoint manifest
 *   --timeout-ms N   per-shard RPC deadline (LVA_COORD_TIMEOUT_MS)
 *                    [600000]
 *   --print-stats    dump the coord.* snapshot to stderr at exit
 *   --workers, --queue, --deadline-ms, --retries, --jobs,
 *   --cache, --seeds, --scale: checked against lva_served's ranges
 *   (a bad value exits 2 before any worker is forked), then
 *   forwarded to every worker.
 *
 * Durability: every completed shard is appended (EINTR-safe, fsync'd)
 * to the manifest at "<resultsDir>/checkpoints/<driver>.coord.jsonl",
 * keyed by a digest of the shard's points and bound to a context key
 * covering seeds, scale, export schema and shard count — so a killed
 * coordinator rerun with --resume re-runs only unfinished shards.
 *
 * Supervision: shard -> worker placement is the rendezvous rank of
 * the shard's route key, spread so that no worker leads a second
 * shard while another leads none (coordShardRanks). A worker that
 * dies mid-shard (e.g. an LVA_FLEET_FAULT abort) is detected by its
 * hung-up stdout pipe and the shard is *stolen* to the next-ranked
 * live worker; when every worker is dead, the dead ones are
 * respawned (respawns never inherit the first-incarnation fault).
 * Teardown sends each worker a shutdown frame and reaps it on its
 * pipe's EOF with the shared fleet::Supervisor — SIGKILL after a
 * deadline, never an unbounded hang.
 *
 * Fault sites (LVA_FAULT grammar): "coord.scatter.<shard>" before a
 * shard request is sent, "coord.gather.<shard>" after its response
 * is validated but before the manifest append — so a kill at gather
 * loses the shard and a resume re-runs exactly it.
 *
 * Exit codes: 0 clean; 1 a shard could not be completed; 2 usage;
 * 3 merged export contains point failures; 53 injected abort.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "eval/coord.hh"
#include "eval/service.hh"
#include "eval/sweep.hh"
#include "fleet_common.hh"
#include "sim/machine_config.hh"
#include "util/checkpoint.hh"
#include "util/env_knob.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/net.hh"
#include "util/results_dir.hh"
#include "util/stats_json.hh"

using namespace lva;

namespace {

struct Options
{
    std::string driver;
    std::string pointsFile;
    std::string out;        ///< merged export path ("" = stdout)
    u32 fleet = 0;          ///< worker count (0 = LVA_FLEET_SIZE, 2)
    u32 shards = 0;         ///< shard count (0 = LVA_COORD_SHARDS, fleet)
    std::string served;     ///< worker binary path
    bool resume = false;
    bool printStats = false;
    u64 timeoutMs = 0;      ///< per-shard RPC deadline
    /** Worker flags, parsed as lva_served would; seeds and scale
     *  also feed the manifest context key. */
    fleet::ServedFlags worker;
    /** Machine topology (--machine/LVA_MACHINE); null = Table II.
     *  Embedded in every scatter request so all workers simulate the
     *  same CMP, and folded into the manifest context key. */
    std::shared_ptr<const MachineConfig> machine;
    /** Flags forwarded verbatim to every worker, validated here. */
    std::vector<std::string> passThrough;
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --driver NAME --points FILE [--out FILE]\n"
                 "  [--fleet N] [--shards N] [--served PATH]\n"
                 "  [--machine FILE] [--resume] [--timeout-ms N]\n"
                 "  [--print-stats]\n"
                 "  [--workers N] [--queue N] [--deadline-ms N]\n"
                 "  [--retries N] [--jobs N] [--cache N] [--seeds N]\n"
                 "  [--scale F]\n",
                 argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::string machineFile;
    // Strict parse (util/env_knob.hh): junk, signs and out-of-range
    // values warn and keep the default instead of being coerced.
    opt.fleet = static_cast<u32>(envKnobU64("LVA_FLEET_SIZE", 0, 1, 64));
    opt.shards =
        static_cast<u32>(envKnobU64("LVA_COORD_SHARDS", 0, 1, 4096));
    opt.timeoutMs =
        envKnobU64("LVA_COORD_TIMEOUT_MS", 0, 1, 86400000);
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(argv[0]);
        return argv[++i];
    };
    auto count = [&](int &i, u64 lo, u64 hi) {
        const std::optional<u64> v = parseU64(need(i), lo, hi);
        if (!v)
            usage(argv[0]);
        return *v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--driver") {
            opt.driver = need(i);
        } else if (arg == "--points") {
            opt.pointsFile = need(i);
        } else if (arg == "--out") {
            opt.out = need(i);
        } else if (arg == "--fleet") {
            opt.fleet = static_cast<u32>(count(i, 1, 64));
        } else if (arg == "--shards") {
            opt.shards = static_cast<u32>(count(i, 1, 4096));
        } else if (arg == "--served") {
            opt.served = need(i);
        } else if (arg == "--machine") {
            machineFile = need(i);
        } else if (arg == "--resume") {
            opt.resume = true;
        } else if (arg == "--print-stats") {
            opt.printStats = true;
        } else if (arg == "--timeout-ms") {
            opt.timeoutMs = count(i, 1, 86400000);
        } else {
            // A worker flag, forwarded once it checks out.
            const char *value = need(i);
            if (!fleet::applyServedFlag(arg, value, opt.worker))
                usage(argv[0]);
            opt.passThrough.push_back(arg);
            opt.passThrough.push_back(value);
        }
    }
    if (opt.driver.empty() || opt.pointsFile.empty())
        usage(argv[0]);
    if (opt.fleet == 0)
        opt.fleet = 2;
    if (opt.shards == 0)
        opt.shards = opt.fleet;
    if (opt.timeoutMs == 0)
        opt.timeoutMs = 600000;
    if (opt.served.empty())
        opt.served = fleet::defaultServedPath();
    if (machineFile.empty()) {
        // String-valued config path; validated by the parser it feeds.
        // lva-audit: allow(knob-unvalidated)
        const char *env = std::getenv("LVA_MACHINE");
        if (env != nullptr && *env != '\0')
            machineFile = env;
    }
    if (!machineFile.empty()) {
        try {
            opt.machine = std::make_shared<MachineConfig>(
                machineFromFile(machineFile));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "lva_sweep_coord: %s\n", e.what());
            std::exit(2);
        }
    }
    return opt;
}

/**
 * Re-render a parsed JSON value as compact one-line JSON. The worker
 * re-parses the request, so normalized string escapes cannot affect
 * the merged bytes; numbers keep their source text exactly.
 */
std::string
renderJson(const JsonValue &v)
{
    switch (v.type) {
      case JsonValue::Type::Null:
        return "null";
      case JsonValue::Type::Bool:
        return v.boolean ? "true" : "false";
      case JsonValue::Type::Number:
        return v.text;
      case JsonValue::Type::String:
        return jsonQuote(v.text);
      case JsonValue::Type::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i > 0)
                out += ',';
            out += renderJson(v.items[i]);
        }
        return out + "]";
      }
      case JsonValue::Type::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            if (i > 0)
                out += ',';
            out += jsonQuote(v.members[i].first) + ":" +
                   renderJson(v.members[i].second);
        }
        return out + "}";
      }
    }
    return "null"; // unreachable
}

/**
 * Scatter one shard: pick the first live worker in @p rank, send the
 * shard's sweep request, validate the detailed response, hit the
 * gather fault site, and durably record the shard. Steals the shard
 * to the next-ranked live worker when the current one dies
 * mid-request.
 */
ShardRecord
runShard(const Options &opt, fleet::Supervisor &workers, CoordStats &stats,
         const std::vector<u32> &rank, u32 shard, const std::string &request,
         std::size_t pointCount, CheckpointManifest &manifest,
         const std::string &digest)
{
    faultPoint("coord.scatter." + std::to_string(shard));

    std::string lastError;
    int lastWorker = -1;
    for (u32 attempt = 0; attempt < 10; ++attempt) {
        const auto [index, port, respawned] = workers.pick(rank);
        for (u32 r = 0; r < respawned; ++r)
            stats.onRespawn();
        if (lastWorker >= 0 && static_cast<u32>(index) !=
                                   static_cast<u32>(lastWorker)) {
            stats.onStolen();
            lva_warn("lva_sweep_coord: stealing shard %u from dead "
                     "worker %d to worker %u",
                     shard, lastWorker, index);
        }
        lastWorker = static_cast<int>(index);
        try {
            stats.onScatter();
            const std::string response =
                fleet::roundTrip(port, request, opt.timeoutMs);
            ShardRecord record = shardRecordFromResponse(
                parseJson(response), shard, pointCount);
            faultPoint("coord.gather." + std::to_string(shard));
            manifest.append(digest, encodeShardRecord(record));
            stats.onGather();
            return record;
        } catch (const FaultInjected &) {
            throw; // an injected coordinator fault is not retryable
        } catch (const std::exception &e) {
            lastError = e.what();
            workers.noteFailure(index);
        }
    }
    throw std::runtime_error("shard " + std::to_string(shard) +
                             " unrecoverable: " + lastError);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    std::signal(SIGPIPE, SIG_IGN);

    // Parse and validate the sweep once, up front: the same points
    // vector drives the shard plan, the digests and the final merge.
    std::ifstream in(opt.pointsFile, std::ios::binary);
    if (!in.is_open()) {
        std::fprintf(stderr, "lva_sweep_coord: cannot read %s\n",
                     opt.pointsFile.c_str());
        return 2;
    }
    std::ostringstream raw;
    raw << in.rdbuf();
    JsonValue pointsJson;
    std::vector<SweepPoint> points;
    try {
        pointsJson = parseJson(raw.str());
        // The same machine base the workers will decode from the
        // embedded "machine" member, so the local plan/digest/merge
        // view of each point matches the worker's exactly.
        points = sweepPointsFromJson(
            pointsJson,
            (opt.machine ? *opt.machine : defaultMachine()).phase1Lva());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lva_sweep_coord: bad points file %s: %s\n",
                     opt.pointsFile.c_str(), e.what());
        return 2;
    }
    if (points.empty()) {
        std::fprintf(stderr, "lva_sweep_coord: no points\n");
        return 2;
    }

    const ShardPlan plan = planShards(points, opt.shards);
    std::vector<std::string> digests(opt.shards);
    for (u32 s = 0; s < opt.shards; ++s)
        digests[s] = shardDigest(plan, points, s);

    CoordStats stats;
    stats.onPlan(opt.shards, points.size(), opt.fleet);

    // The context key binds the manifest to everything that would
    // invalidate a recorded shard: seeds, scale, export schema, and
    // the shard plan itself.
    const Evaluator eval(opt.worker.seeds, opt.worker.scale);
    std::string context = coordContextKey(eval, opt.shards);
    // Same machine-binding rule as sweepContextKey(eval, opts): a
    // manifest written under one topology is never resumed under
    // another, and the no-machine key stays byte-identical.
    if (opt.machine)
        context += ";machine=" +
                   hexU64(fnv1a64(renderMachineJson(*opt.machine)));
    CheckpointManifest manifest(
        resultsPath("checkpoints/" + opt.driver + ".coord.jsonl"),
        opt.driver, context, opt.resume);

    std::vector<ShardRecord> records;
    std::vector<u8> done(opt.shards, 0);
    if (opt.resume) {
        for (u32 s = 0; s < opt.shards; ++s) {
            if (plan.members[s].empty())
                continue;
            const std::string *payload = manifest.find(digests[s]);
            if (!payload)
                continue;
            try {
                ShardRecord record =
                    decodeShardRecord(parseJson(*payload));
                if (record.shard != s ||
                    record.results.size() != plan.members[s].size())
                    throw std::runtime_error(
                        "record does not match the shard plan");
                records.push_back(std::move(record));
                done[s] = 1;
                stats.onResumed();
            } catch (const std::exception &e) {
                lva_warn("lva_sweep_coord: manifest record for shard "
                         "%u unusable (%s); re-running it",
                         s, e.what());
            }
        }
        if (!records.empty())
            lva_inform("lva_sweep_coord: resumed %zu shards from %s",
                       records.size(), manifest.path().c_str());
    }

    fleet::Supervisor workers(opt.served, opt.passThrough, opt.fleet,
                              "lva_sweep_coord");
    workers.spawnAll();
    const std::vector<std::vector<u32>> ranks =
        coordShardRanks(plan, workers.size());

    // Scatter every remaining shard concurrently — one thread per
    // non-empty shard; results land keyed by global point index, so
    // completion order cannot affect the merged bytes.
    std::vector<std::thread> scatter;
    std::mutex recordsMutex;
    std::vector<std::string> shardErrors;
    for (u32 s = 0; s < opt.shards; ++s) {
        if (done[s] || plan.members[s].empty())
            continue;
        std::string joined;
        for (const u64 g : plan.members[s]) {
            if (!joined.empty())
                joined += ',';
            joined += renderJson(pointsJson.items[g]);
        }
        std::string request =
            std::string("{\"schema\":\"lva-rpc-v1\",\"op\":\"sweep\"") +
            ",\"driver\":" + jsonQuote(opt.driver) +
            ",\"shard\":" + std::to_string(s) +
            ",\"detail\":true";
        if (opt.machine)
            request += ",\"machine\":" + renderMachineJson(*opt.machine);
        request += ",\"points\":[" + joined + "]}";
        scatter.emplace_back([&, s, request] {
            try {
                ShardRecord record = runShard(
                    opt, workers, stats, ranks[s], s, request,
                    plan.members[s].size(), manifest, digests[s]);
                std::lock_guard<std::mutex> lock(recordsMutex);
                records.push_back(std::move(record));
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(recordsMutex);
                shardErrors.push_back("shard " + std::to_string(s) +
                                      ": " + e.what());
            }
        });
    }
    for (std::thread &t : scatter)
        t.join();

    workers.drainAll(/*sendShutdown=*/true);

    if (!shardErrors.empty()) {
        for (const std::string &e : shardErrors)
            std::fprintf(stderr, "lva_sweep_coord: %s\n", e.c_str());
        std::fprintf(stderr,
                     "lva_sweep_coord: %zu shards incomplete; rerun "
                     "with --resume to finish\n",
                     shardErrors.size());
        return 1;
    }

    SweepOutcome outcome;
    try {
        outcome = mergeShards(plan, points.size(), records);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "lva_sweep_coord: merge failed: %s\n",
                     e.what());
        return 1;
    }
    stats.onPointFailures(outcome.failures.size());

    const std::string rendered =
        renderSweepStats(opt.driver, points, outcome);
    if (opt.out.empty()) {
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        std::fflush(stdout);
    } else {
        std::ofstream outFile(opt.out,
                              std::ios::binary | std::ios::trunc);
        if (!outFile.is_open()) {
            std::fprintf(stderr, "lva_sweep_coord: cannot write %s\n",
                         opt.out.c_str());
            return 1;
        }
        outFile.write(rendered.data(),
                      static_cast<std::streamsize>(rendered.size()));
        outFile.close();
        if (!outFile) {
            std::fprintf(stderr, "lva_sweep_coord: write to %s "
                         "failed\n", opt.out.c_str());
            return 1;
        }
    }

    std::fprintf(stderr,
                 "lva_sweep_coord: merged %zu points across %u shards "
                 "(fleet=%u)\n",
                 points.size(), opt.shards, opt.fleet);
    if (opt.printStats)
        std::fprintf(stderr, "%s\n",
                     snapshotToJson(stats.snapshot()).c_str());

    return reportSweepFailures(outcome);
}
