#include "util/env_knob.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "util/logging.hh"

namespace lva {
namespace {

/** Shared "is there a value to parse at all" gate. */
const char *
knobValue(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return nullptr;
    return env;
}

} // namespace

std::optional<u64>
parseU64(const char *text, u64 lo, u64 hi)
{
    // Digit first: strtoull would skip whitespace and happily wrap
    // "-1" to 2^64-1, exactly the silent coercion this exists to kill.
    if (text == nullptr ||
        !std::isdigit(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || *end != '\0' || v < lo || v > hi)
        return std::nullopt;
    return static_cast<u64>(v);
}

std::optional<double>
parseF64(const char *text, double lo, double hi)
{
    if (text == nullptr || *text == '\0' ||
        std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (*end != '\0' || !(v >= lo) || !(v <= hi))
        return std::nullopt;
    return v;
}

u64
envKnobU64(const char *name, u64 fallback, u64 lo, u64 hi)
{
    const char *env = knobValue(name);
    if (env == nullptr)
        return fallback;
    if (const std::optional<u64> v = parseU64(env, lo, hi))
        return *v;
    lva_warn("ignoring bad %s='%s' (want a decimal in [%llu, %llu])",
             name, env, static_cast<unsigned long long>(lo),
             static_cast<unsigned long long>(hi));
    return fallback;
}

double
envKnobF64(const char *name, double fallback, double lo, double hi)
{
    const char *env = knobValue(name);
    if (env == nullptr)
        return fallback;
    if (const std::optional<double> v = parseF64(env, lo, hi))
        return *v;
    lva_warn("ignoring bad %s='%s' (want a number in [%g, %g])", name,
             env, lo, hi);
    return fallback;
}

} // namespace lva
