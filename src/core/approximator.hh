/**
 * @file
 * The load value approximator — the paper's primary contribution.
 *
 * Structure (paper Figure 3): a global history buffer of recent precise
 * load values is hashed with the load PC to index a direct-mapped table;
 * each entry holds a tag, a signed saturating confidence counter, a
 * degree counter and a local history buffer. On an L1 miss the entry's
 * LHB is reduced by a computation function f (AVERAGE by default) to
 * produce X_approx, which the core consumes without speculation; the
 * block is fetched only when the entry's degree counter is exhausted, and
 * the fetched X_actual trains the entry after the configured value delay.
 */

#ifndef LVA_CORE_APPROXIMATOR_HH
#define LVA_CORE_APPROXIMATOR_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/approximator_config.hh"
#include "core/history_buffer.hh"
#include "util/sat_counter.hh"
#include "util/stat_registry.hh"
#include "util/stats.hh"
#include "util/types.hh"
#include "util/value.hh"

namespace lva {

/** What the approximator decided about one L1 load miss. */
struct MissResponse
{
    /** True if X_approx was generated and consumed by the core. */
    bool approximated = false;

    /** True if the block is fetched from the next level (training). */
    bool fetch = true;

    /** The generated value; meaningful only when approximated. */
    Value value{};
};

/**
 * Event counts for the approximator, registry-backed under
 * "<prefix>.lookups" etc.; the error histogram buckets the relative
 * error of every validated estimate (X_hat vs X_actual) and the
 * occupancy gauge tracks valid table entries at drain time.
 */
struct ApproximatorStats
{
    ApproximatorStats(StatRegistry &reg, const std::string &prefix);

    Counter &lookups;        ///< misses presented to the approximator
    Counter &approximations; ///< misses answered with X_approx
    Counter &fetchesSkipped; ///< misses whose block fetch was cancelled
    Counter &trainings;      ///< X_actual arrivals applied to the table
    Counter &allocations;    ///< table entries (re)allocated on tag miss
    Counter &confRejects;    ///< misses rejected by the confidence gate
    Counter &coldRejects;    ///< misses with a matching tag but empty LHB
    Counter &staleDrops;     ///< trainings dropped: entry re-allocated
    Histogram &error;        ///< relative error of validated estimates
    Gauge &occupancy;        ///< valid table entries (set at drain)

    void
    reset()
    {
        lookups.reset();
        approximations.reset();
        fetchesSkipped.reset();
        trainings.reset();
        allocations.reset();
        confRejects.reset();
        coldRejects.reset();
        staleDrops.reset();
        error.reset();
        occupancy.reset();
    }
};

/**
 * Load value approximator with relaxed confidence estimation,
 * approximation degree and value-delayed training.
 *
 * The approximator is oblivious to addresses: it operates on the
 * (PC, value-history) context stream, exactly as the hardware in the
 * paper. The caller (ApproxMemory) owns the cache and supplies precise
 * values so that deferred training can be simulated.
 */
class LoadValueApproximator
{
  public:
    /** Standalone approximator with a private registry ("lva.*"). */
    explicit LoadValueApproximator(const ApproximatorConfig &config);

    /** Approximator whose stats register in @p reg under @p prefix. */
    LoadValueApproximator(const ApproximatorConfig &config,
                          StatRegistry &reg, const std::string &prefix);

    const ApproximatorConfig &config() const { return config_; }

    /**
     * Handle an L1 load miss to approximable data.
     *
     * @param pc     static load site (instruction address)
     * @param precise the actual memory value; used ONLY to model the
     *               deferred training of the table (the generation path
     *               never inspects it)
     * @return what the core and the memory system should do
     */
    MissResponse onMiss(LoadSiteId pc, const Value &precise);

    /**
     * Handle an L1 load hit to approximable data: the precise value is
     * available immediately and enters the global history.
     */
    void onHit(LoadSiteId pc, const Value &precise);

    /**
     * Flush all pending (value-delayed) trainings, as at the end of a
     * region of interest.
     */
    void drainPending();

    const ApproximatorStats &stats() const { return stats_; }

    /** Coverage: fraction of presented misses that were approximated. */
    double
    coverage() const
    {
        return stats_.lookups.value() == 0
                   ? 0.0
                   : static_cast<double>(stats_.approximations.value()) /
                         static_cast<double>(stats_.lookups.value());
    }

    /** Number of table entries currently holding a valid tag (tests). */
    u32 validEntries() const;

  private:
    /**
     * Locate (or allocate-victimize) the slot for a context hash in
     * its (possibly multi-way) set.
     *
     * @param[out] tag_match true if the slot already held this tag
     * @param[out] tag_out   the tag derived from the hash
     * @return flat table index of the chosen slot
     */
    u32 lookup(u64 hash, bool &tag_match, u64 &tag_out);

    /** An X_actual in flight from the next memory level. */
    struct PendingTrain
    {
        u64 dueAtLoad;   ///< loadCount_ when the block arrives
        u32 index;       ///< table entry being trained
        u64 tag;         ///< tag at issue time
        bool hasXhat;    ///< true when xhat holds an estimate
        Value xhat;      ///< estimate to validate (when hasXhat)
        Value actual;    ///< X_actual from memory
    };

    /** The computation function f over slot @p slot's LHB ring. */
    /**
     * Memoized per slot: the estimate is a pure function of the
     * slot's LHB contents, so the cached Value is reused bit-exactly
     * until lhbPush()/lhbClear() touches the slot (frequent under
     * approximation degrees > 1, where fetch-skipped misses re-read
     * an unchanged history).
     */
    Value estimate(u32 slot);

    /** Does the confidence gate apply to values of this kind? */
    bool gateApplies(ValueKind kind) const;

    /** Apply all trainings whose data has arrived. */
    void applyDueTrainings();

    void applyTraining(const PendingTrain &train);

    void enqueueTraining(u32 index, u64 tag,
                         const std::optional<Value> &xhat,
                         const Value &actual);

    // --- LHB ring helpers over the contiguous SoA storage. Slot s's
    // values occupy lhbValues_[s*lhbCap .. s*lhbCap+lhbCap); ring
    // state (next-write head, fill) lives in lhbHead_/lhbSize_[s].

    void
    lhbClear(u32 slot)
    {
        lhbHead_[slot] = 0;
        lhbSize_[slot] = 0;
        estValid_[slot] = 0;
    }

    void
    lhbPush(u32 slot, const Value &v)
    {
        const u32 cap = config_.lhbEntries;
        const u32 head = lhbHead_[slot];
        lhbValues_[slot * cap + head] = v;
        // Conditional wrap instead of %: no integer divide per train.
        lhbHead_[slot] = (head + 1 == cap) ? 0 : head + 1;
        if (lhbSize_[slot] < cap)
            ++lhbSize_[slot];
        estValid_[slot] = 0;
    }

    /** i-th oldest LHB value of @p slot (0 = oldest), in place. */
    const Value &
    lhbOldest(u32 slot, u32 i) const
    {
        const u32 cap = config_.lhbEntries;
        // head + cap - size + i < 2*cap, so one conditional wrap
        // replaces the divide.
        u32 idx = lhbHead_[slot] + cap - lhbSize_[slot] + i;
        if (idx >= cap)
            idx -= cap;
        return lhbValues_[slot * cap + idx];
    }

    // --- Pending-train fixed ring. At most one enqueue per load and
    // every entry due within valueDelay loads of its enqueue, so
    // occupancy never exceeds valueDelay + 1 (enforced by lva_assert
    // in enqueueTraining); the ring is sized valueDelay + 2 once at
    // construction and the steady state never allocates.

    void popPendingFront();

    LoadValueApproximator(const ApproximatorConfig &config,
                          StatRegistry *reg, const std::string &prefix);

    ApproximatorConfig config_;

    /**
     * The table in structure-of-arrays layout — the columns of the
     * paper's Figure 3 as separate contiguous arrays, indexed by flat
     * slot. A lookup touches only the columns it needs (tags_ and
     * lastUse_ for the set scan), instead of striding across
     * full AoS entries; LHB values for all slots share one
     * contiguous allocation.
     */
    std::vector<u8> valid_;
    std::vector<u64> tags_;
    std::vector<u64> lastUse_; ///< LRU within a set (associative)
    std::vector<SignedSatCounter> conf_;
    std::vector<DegreeCounter> degree_;
    std::vector<Value> lhbValues_; ///< tableEntries x lhbEntries
    std::vector<u32> lhbHead_;     ///< per-slot ring next-write index
    std::vector<u32> lhbSize_;     ///< per-slot ring fill
    std::vector<Value> estCache_;  ///< memoized estimate per slot
    std::vector<u8> estValid_;     ///< estCache_ entry is current

    HistoryBuffer ghb_;

    std::vector<PendingTrain> pending_; ///< fixed ring, never resized
    u32 pendingHead_ = 0;  ///< index of the oldest pending training
    u32 pendingCount_ = 0; ///< live entries in the ring

    u64 loadCount_ = 0;
    u64 useClock_ = 0;
    std::unique_ptr<StatRegistry> ownedReg_; ///< standalone ctor only
    ApproximatorStats stats_;
};

} // namespace lva

#endif // LVA_CORE_APPROXIMATOR_HH
