/**
 * @file
 * Configuration of the load value approximator (paper Table II).
 */

#ifndef LVA_CORE_APPROXIMATOR_CONFIG_HH
#define LVA_CORE_APPROXIMATOR_CONFIG_HH

#include <limits>

#include "util/types.hh"

namespace lva {

/** The computation function f applied to the local history buffer. */
enum class Estimator : u8 {
    Average, ///< mean of the LHB values (the paper's choice)
    Last,    ///< most recent LHB value (ablation)
    Stride,  ///< newest value + mean successive delta (ablation)
};

const char *estimatorName(Estimator e);

/**
 * All tunables of the approximator. Defaults reproduce the paper's
 * baseline configuration (Table II):
 *
 *   512-entry direct-mapped table, 4-bit signed confidence in [-8, 7],
 *   +/-10% relaxed confidence window (floating-point data only),
 *   XOR(PC, GHB) context hash, 0-entry GHB, AVERAGE over a 4-entry LHB,
 *   21 tag bits, value delay of 4 load instructions, approximation
 *   degree 0.
 */
struct ApproximatorConfig
{
    /** Number of approximator table entries. */
    u32 tableEntries = 512;

    /**
     * Ways per table set. The paper's table is direct-mapped (1);
     * higher associativity is an alternative to growing the table for
     * reducing the destructive aliasing of similar floating-point
     * contexts (section VI-A). Must divide tableEntries.
     */
    u32 tableAssoc = 1;

    /** Width of the signed saturating confidence counter in bits. */
    u32 confidenceBits = 4;

    /**
     * Relaxed confidence window as a fraction (0.10 = +/-10%).
     * 0 demands exact match (traditional value prediction);
     * +infinity never decrements confidence.
     */
    double confidenceWindow = 0.10;

    /**
     * Apply the confidence gate to integer data. The paper's baseline
     * does not employ confidence for integer data (section VI); the
     * Figure 6 sweep enables it for both types.
     */
    bool confidenceForInts = false;

    /**
     * Disable the confidence gate entirely (always approximate when
     * history exists). Used by the Figure 13 precision study, which
     * disables confidence "to omit its effect on coverage".
     */
    bool confidenceDisabled = false;

    /** Number of global history buffer entries hashed into the context. */
    u32 ghbEntries = 0;

    /** Number of local history buffer entries per table entry. */
    u32 lhbEntries = 4;

    /** Tag bits stored per entry to disambiguate contexts. */
    u32 tagBits = 21;

    /**
     * Value delay: number of approximable load instructions between an
     * approximation and the arrival of X_actual for training.
     */
    u32 valueDelay = 4;

    /**
     * Approximation degree: how many additional misses reuse a generated
     * value before the block is fetched for training (fetch:miss ratio of
     * 1:(degree+1)). Degree 0 fetches on every miss.
     */
    u32 approxDegree = 0;

    /** The computation function f over the LHB. */
    Estimator estimator = Estimator::Average;

    /**
     * Proportional confidence updates — the optimization the paper
     * defers to future work (section III-B): instead of a fixed -1, a
     * failed validation decrements confidence by 1 plus how many
     * window-widths the estimate was off (capped at 4). Only possible
     * because approximation error is a distance, not a binary
     * mispredict.
     */
    bool proportionalConfidence = false;

    /**
     * Low-order floating-point mantissa bits zeroed before hashing GHB
     * values (paper section VII-B); improves FP context locality.
     */
    u32 mantissaDropBits = 0;

    /** Infinite confidence window constant. */
    static constexpr double infiniteWindow =
        std::numeric_limits<double>::infinity();

    /** Approximate storage cost in bytes (paper section VII-A). */
    u64 storageBytes(u32 value_bytes = 8) const;
};

} // namespace lva

#endif // LVA_CORE_APPROXIMATOR_CONFIG_HH
