/**
 * @file
 * Set-associative cache tag model with true-LRU replacement.
 *
 * The cache tracks block residency only; data values live in the workload's
 * host containers. This mirrors the Pin-based phase-1 methodology, where the
 * cache simulator decides hit/miss and the tool clobbers load values.
 *
 * Fetch policy is deliberately external: load value approximation decouples
 * fetches from misses (paper section III-C), so the caller decides whether a
 * missing block is actually brought in (insert()) or skipped.
 */

#ifndef LVA_MEM_CACHE_HH
#define LVA_MEM_CACHE_HH

#include <memory>
#include <string>
#include <vector>

#include "util/stat_registry.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace lva {

/** Geometry of one cache level. */
struct CacheConfig
{
    u64 sizeBytes = 64 * 1024; ///< total capacity
    u32 assoc = 8;             ///< ways per set
    u32 blockBytes = 64;       ///< block (line) size

    u64 numSets() const { return sizeBytes / (u64(assoc) * blockBytes); }

    /** 64 KB 8-way, the phase-1 (Pin) private L1 D-cache. */
    static CacheConfig pinL1() { return {64 * 1024, 8, 64}; }

    /** 16 KB 8-way, the phase-2 (full-system) private L1 D-cache. */
    static CacheConfig fullSystemL1() { return {16 * 1024, 8, 64}; }
};

/**
 * Event counts for one cache instance, registry-backed: the counters
 * live in a StatRegistry under "<prefix>.hits" etc. and this struct
 * holds references for the hot path.
 */
struct CacheStats
{
    CacheStats(StatRegistry &reg, const std::string &prefix);

    Counter &hits;      ///< accesses that found the block resident
    Counter &misses;    ///< accesses that did not
    Counter &fetches;   ///< blocks actually brought in (insert())
    Counter &evictions; ///< blocks displaced by fetches
    Counter &writebacks;///< dirty blocks displaced or invalidated

    void
    reset()
    {
        hits.reset();
        misses.reset();
        fetches.reset();
        evictions.reset();
        writebacks.reset();
    }
};

/**
 * A single cache: tag array + LRU state + statistics.
 */
class Cache
{
  public:
    /** Standalone cache with a private registry (paths "l1.*"). */
    explicit Cache(const CacheConfig &config);

    /** Cache whose stats register in @p reg under @p prefix. */
    Cache(const CacheConfig &config, StatRegistry &reg,
          const std::string &prefix);

    const CacheConfig &config() const { return config_; }

    /** Block-aligned address of @p addr. */
    Addr blockAlign(Addr addr) const { return addr & ~blockMask_; }

    /** Is the block containing @p addr resident? Does not touch LRU. */
    bool contains(Addr addr) const;

    /**
     * Demand access: updates hit/miss statistics and, on a hit, the LRU
     * ordering (and the dirty bit when @p is_write).
     *
     * @return true on hit. A miss does NOT fetch the block; call insert()
     *         if the block should be brought in.
     */
    bool access(Addr addr, bool is_write = false);

    /**
     * Bring the block containing @p addr into the cache, evicting the LRU
     * block of the set if needed. Counts one fetch. Inserting a block
     * already present refreshes its LRU position without re-fetching.
     *
     * @param is_write mark the newly inserted block dirty
     * @return address of the evicted block, or invalidAddr if none
     */
    Addr insert(Addr addr, bool is_write = false);

    /**
     * As insert(), but the caller guarantees the block is absent —
     * the immediately preceding access() or probe() on the same
     * address missed, with no intervening insert to the set. Skips
     * insert()'s residency re-scan; statistics and eviction choice
     * are identical.
     */
    Addr fill(Addr addr, bool is_write = false);

    /**
     * Probe for a hit without updating any statistics (used by
     * prefetchers to filter redundant prefetches).
     */
    bool probe(Addr addr) const { return contains(addr); }

    /** Remove the block if present; @return true if it was resident. */
    bool invalidate(Addr addr);

    /** Drop all blocks and reset LRU (statistics are kept). */
    void flush();

    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

    /** Number of resident blocks (for tests). */
    u64 residentBlocks() const;

    /** Misses per kilo-instruction given an instruction count. */
    static double
    mpki(u64 misses, u64 instructions)
    {
        return instructions == 0
                   ? 0.0
                   : 1000.0 * static_cast<double>(misses) /
                         static_cast<double>(instructions);
    }

  private:
    Cache(const CacheConfig &config, StatRegistry *reg,
          const std::string &prefix);

    /** First way slot of the set holding @p addr. */
    u64
    setBase(Addr addr) const
    {
        return ((addr >> setShift_) & setMask_) * config_.assoc;
    }

    CacheConfig config_;
    Addr blockMask_;
    u64 setShift_;
    u64 setMask_;

    /**
     * Tag array, structure-of-arrays: way w of set s lives at slot
     * s * assoc + w in each column. The hot access() scan reads only
     * tags_ — for an 8-way set that is a single 64-byte line —
     * instead of chasing a per-set heap vector of padded way structs.
     * tags_ holds the block-aligned address (invalidAddr = empty).
     */
    std::vector<Addr> tags_;
    std::vector<u64> lastUse_; ///< LRU timestamp per way slot
    std::vector<u8> dirty_;    ///< dirty flag per way slot
    u64 useClock_ = 0;
    std::unique_ptr<StatRegistry> ownedReg_; ///< standalone ctor only
    CacheStats stats_;
};

} // namespace lva

#endif // LVA_MEM_CACHE_HH
