/**
 * @file
 * Shared strict parsing for LVA_* environment knobs and numeric
 * command-line flags.
 *
 * Every numeric knob used to hand-roll its own getenv + strtol (or
 * worse, atoi), so "LVA_FLEET_SIZE=2x" silently became 2 and
 * "LVA_SERVE_QUEUE=-1" wrapped to a huge queue.  These helpers give
 * all knobs the discipline PR 4 gave LVA_JOBS: a strict decimal (or
 * decimal-float) parse that rejects trailing junk, signs and
 * out-of-range values with a warning, falling back to the documented
 * default instead of coercing.
 *
 * tools/lva_audit's knob-unvalidated rule enforces that production
 * code reads LVA_* knobs through these helpers (string-valued knobs
 * carry an explicit `lva-audit: allow(knob-unvalidated)` annotation
 * instead).
 */

#ifndef LVA_UTIL_ENV_KNOB_HH
#define LVA_UTIL_ENV_KNOB_HH

#include <optional>

#include "util/types.hh"

namespace lva {

/**
 * Strict unsigned decimal: pure digits (no sign, whitespace, hex or
 * trailing junk) in [@p lo, @p hi], else std::nullopt. Behind
 * envKnobU64 and every numeric tool flag.
 */
std::optional<u64> parseU64(const char *text, u64 lo, u64 hi);

/** Strict float: a full strtod parse in [@p lo, @p hi], no
 *  surrounding whitespace or junk, never NaN; else std::nullopt. */
std::optional<double> parseF64(const char *text, double lo, double hi);

/**
 * Read an unsigned integer knob.
 *
 * Unset or empty returns @p fallback silently.  A set value must pass
 * parseU64 over [@p lo, @p hi]; anything else warns once per call and
 * returns @p fallback.
 */
u64 envKnobU64(const char *name, u64 fallback, u64 lo, u64 hi);

/**
 * Read a floating-point knob.  Same contract as envKnobU64, with
 * parseF64 over [@p lo, @p hi].
 */
double envKnobF64(const char *name, double fallback, double lo,
                  double hi);

} // namespace lva

#endif // LVA_UTIL_ENV_KNOB_HH
