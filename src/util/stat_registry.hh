/**
 * @file
 * Hierarchical statistics registry: the single accounting substrate
 * behind every simulator counter (docs/metrics.md is the catalog).
 *
 * A StatRegistry owns typed Counter / Gauge / Histogram objects keyed
 * by dotted path ("thread0.l1.misses"). Components register their
 * stats at construction and keep direct references, so the hot path
 * pays exactly what the old hand-rolled structs paid: one increment
 * through a reference. snapshot() freezes every stat into plain data,
 * sorted by path; snapshots merge deterministically (counters and
 * histogram buckets sum, gauges last-writer-wins in merge order),
 * which is what keeps the LVA_JOBS=N JSON export bit-identical to the
 * serial run.
 *
 * Registries are thread-confined by design: one per simulation
 * instance (ApproxMemory, FullSystemSim), never shared across sweep
 * points, so no locking is needed anywhere on the hot path.
 */

#ifndef LVA_UTIL_STAT_REGISTRY_HH
#define LVA_UTIL_STAT_REGISTRY_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.hh"
#include "util/types.hh"

namespace lva {

/** The registrable stat kinds. */
enum class StatType : u8 { Counter, Gauge, Histogram };

const char *statTypeName(StatType type);

/** One stat frozen into plain data. */
struct SnapEntry
{
    std::string path;
    StatType type = StatType::Counter;
    std::string desc;
    std::string unit;

    u64 count = 0;      ///< Counter value
    double gauge = 0.0; ///< Gauge value

    // Histogram payload (type == Histogram only).
    double histLo = 0.0;
    double histHi = 0.0;
    u64 histTotal = 0;
    u64 histUnderflow = 0;
    u64 histOverflow = 0;
    std::vector<u64> histBuckets;
};

/**
 * An ordered (path-sorted) snapshot of a registry, safe to copy
 * across threads and to merge with other snapshots.
 */
struct StatSnapshot
{
    std::vector<SnapEntry> entries; ///< always sorted by path

    bool empty() const { return entries.empty(); }

    /** Entry lookup by exact path; nullptr when absent. */
    const SnapEntry *find(const std::string &path) const;

    /** Counter/gauge value by path; 0 when absent (tests, reports). */
    double valueOf(const std::string &path) const;

    /**
     * Fold @p other into this snapshot: counters and histogram
     * buckets sum, gauges take @p other's value (last merged wins —
     * callers must merge in a deterministic order). Paths only in
     * @p other are inserted. Type or histogram-geometry conflicts
     * throw std::invalid_argument.
     */
    void merge(const StatSnapshot &other);

    /** Insert or overwrite a gauge entry (derived metrics). */
    void setGauge(const std::string &path, double value,
                  std::string desc = "", std::string unit = "");
};

/**
 * The registry. register-or-get semantics: asking for an existing
 * path of the same type (and, for histograms, the same geometry)
 * returns the existing object; a path collision across types throws
 * std::invalid_argument, as does a malformed path.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    Counter &counter(const std::string &path, std::string desc = "",
                     std::string unit = "events");
    Gauge &gauge(const std::string &path, std::string desc = "",
                 std::string unit = "");
    Histogram &histogram(const std::string &path, double lo, double hi,
                         std::size_t buckets, std::string desc = "",
                         std::string unit = "");

    bool contains(const std::string &path) const;
    std::size_t size() const { return entries_.size(); }

    /** Freeze every stat, sorted by path. */
    StatSnapshot snapshot() const;

    /** Reset every registered stat (registration is kept). */
    void reset();

    /**
     * Join two dotted-path fragments; either side may be empty
     * ("thread0" + "l1.hits" -> "thread0.l1.hits").
     */
    static std::string joinPath(const std::string &prefix,
                                const std::string &leaf);

  private:
    struct Entry
    {
        StatType type;
        std::string desc;
        std::string unit;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &findOrCreate(const std::string &path, StatType type,
                        std::string &&desc, std::string &&unit);

    std::map<std::string, Entry> entries_; ///< sorted -> snapshot order
};

} // namespace lva

#endif // LVA_UTIL_STAT_REGISTRY_HH
