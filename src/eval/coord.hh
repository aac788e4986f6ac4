/**
 * @file
 * Sweep sharding for the fleet coordinator (docs/serving.md, "The
 * sweep coordinator").
 *
 * PR 7's fleet routes *whole* requests to workers, so one large
 * sweep — the unit of work behind every paper figure — still runs
 * inside a single lva_served process. This layer splits one sweep
 * into shards a coordinator (tools/lva_sweep_coord) scatters across
 * the fleet as ordinary `lva-rpc-v1` sweep requests, then merges the
 * shard results back into one `lva-stats-v1` export that is
 * byte-identical to a single-process run for any shard count, fleet
 * size, or kill schedule.
 *
 * The pieces are deliberately pure (no sockets, no processes) so
 * tests can pin the byte-identity property in-process:
 *
 *  - planShards(): points -> shards by rendezvous hash of each
 *    point's workload (the fleetRouteKey locality rule: all points
 *    needing a workload's goldens land in the same shard), keeping
 *    submission order within a shard.
 *  - shardDigest() / coordContextKey(): the identity a shard's
 *    completion record carries in the PR-4 append-only checkpoint
 *    manifest, so a killed coordinator resumes finished shards.
 *  - encodeShardRecord() / decodeShardRecord(): one-line JSON shard
 *    payloads under the existing lva-manifest-v1 schema.
 *  - mergeShards(): shard records -> one SweepOutcome in global
 *    submission order, ready for renderSweepStats().
 */

#ifndef LVA_EVAL_COORD_HH
#define LVA_EVAL_COORD_HH

#include <mutex>
#include <string>
#include <vector>

#include "eval/sweep.hh"
#include "util/stat_registry.hh"

namespace lva {

/**
 * One sweep's partition into shards. Shards may be empty (a shard
 * whose rendezvous slice holds no workload): callers skip them, and
 * skipping cannot change the merged bytes because the merge is
 * keyed by global point indices.
 */
struct ShardPlan
{
    u32 shards = 0; ///< requested shard count (>= 1)

    /** Global point indices per shard, in submission order. */
    std::vector<std::vector<u64>> members;

    /**
     * Per-shard routing key: the shard's sorted, deduplicated
     * workload set joined by ',' plus "#shard:<index>" — exactly
     * what fleetRouteKey() computes for the shard's sweep request,
     * so a coordinator and an lva_fleet frontend agree on worker
     * placement. Empty shards get the bare "#shard:<index>" suffix.
     */
    std::vector<std::string> keys;
};

/**
 * Partition @p points into @p shards shards: point i goes to shard
 * fleetShard(points[i].workload, shards). Deterministic for any
 * shard count; every point lands in exactly one shard.
 */
ShardPlan planShards(const std::vector<SweepPoint> &points, u32 shards);

/**
 * Stable digest (16 hex chars) of shard @p shard under @p plan: the
 * shard index plus every member point's sweepPointDigest. Keys the
 * shard's completion record in the checkpoint manifest.
 */
std::string shardDigest(const ShardPlan &plan,
                        const std::vector<SweepPoint> &points,
                        u32 shard);

/**
 * The manifest context key for a sharded sweep: the evaluator-driven
 * sweepContextKey (schema, seeds, scale) plus the shard count, so a
 * manifest written under a different shard plan is never resumed.
 */
std::string coordContextKey(const Evaluator &eval, u32 shards);

/**
 * Worker preference order for a shard key: every worker index in
 * [0, workers), sorted by descending rendezvous score (ties broken
 * toward the lower index). rank[0] equals fleetShard(key, workers);
 * the tail is the work-stealing order when the preferred worker is
 * dead.
 */
std::vector<u32> coordWorkerRank(const std::string &key, u32 workers);

/**
 * Worker preference order for every shard of @p plan on a fleet of
 * @p workers. Each entry is the shard's coordWorkerRank, except that
 * its lead moves to the first worker in that rank leading the fewest
 * non-empty shards placed so far (shards are placed in index order).
 * So no worker leads a second shard while another leads none, and
 * the fleet runs shards in parallel even when rendezvous leads
 * collide. Where the leads do not collide the ranks are unchanged.
 */
std::vector<std::vector<u32>> coordShardRanks(const ShardPlan &plan,
                                              u32 workers);

/** One shard's completed results, in shard-local submission order. */
struct ShardRecord
{
    u32 shard = 0;

    /** One entry per shard member; failed points hold the failed
     *  placeholder (their snapshot is never rendered). */
    std::vector<EvalResult> results;

    /** Worker-side failures with shard-local indices. */
    std::vector<PointFailure> failures;
};

/**
 * Serialize / restore one completed shard for the manifest. The
 * payload is one JSON line: completed results travel through
 * encodeEvalResult (byte-exact round trip), failed points as null,
 * failures as structured records.
 */
std::string encodeShardRecord(const ShardRecord &record);
ShardRecord decodeShardRecord(const JsonValue &payload);

/**
 * Build a ShardRecord from a worker's detailed sweep response
 * (request member "detail": true): the "results" array maps
 * one-to-one onto the shard's points (null = failed), and
 * "failureDetail" carries the shard-local failures. Throws
 * std::runtime_error on a malformed or failed response.
 */
ShardRecord shardRecordFromResponse(const JsonValue &response,
                                    u32 shard,
                                    std::size_t pointCount);

/**
 * Merge every shard's record into one outcome over @p pointCount
 * global points: results return to their global submission indices,
 * failures are remapped shard-local -> global and ordered by index.
 * Requires exactly one record per non-empty shard of @p plan; the
 * result renders byte-identically to a single-process runChecked
 * through renderSweepStats(), which is what coord_test pins.
 */
SweepOutcome mergeShards(const ShardPlan &plan, std::size_t pointCount,
                         const std::vector<ShardRecord> &records);

/**
 * The coordinator's "coord.*" stats subtree (cataloged in
 * docs/metrics.md). Same discipline as ServeStats: registries are
 * thread-confined by design, so the shard scatter threads go through
 * one mutex — shard completions are no hot path.
 */
class CoordStats
{
  public:
    CoordStats();

    /** Record the sweep plan dimensions (gauges). */
    void onPlan(u32 shards, u64 points, u32 workers);

    void onScatter();
    void onGather();
    void onResumed();
    void onStolen();
    void onRespawn();
    void onPointFailures(u64 n);

    /** Path-sorted snapshot of the coord.* subtree. */
    StatSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    StatRegistry registry_;
    Gauge &shards_;
    Gauge &points_;
    Gauge &workers_;
    Counter &scattered_;
    Counter &gathered_;
    Counter &resumed_;
    Counter &stolen_;
    Counter &respawns_;
    Counter &pointFailures_;
};

} // namespace lva

#endif // LVA_EVAL_COORD_HH
