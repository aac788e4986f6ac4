/**
 * @file
 * Rejection tests for the shared strict parsers (util/env_knob.hh):
 * parseU64/parseF64 as the tool flags use them, the env knobs built
 * on them, and their resolveServeOptions consumers.  Each
 * malformed value must warn and fall back to the documented default
 * — never be silently coerced the way the old atoi/strtol readers
 * coerced "2x" to 2 or wrapped "-1" to a huge unsigned.
 *
 * The knob names used below are the production ones (LVA_FLEET_SIZE,
 * LVA_SERVE_CACHE, LVA_SERVE_QUEUE, LVA_CLIENT_BUSY_RETRIES) so the
 * exact knob/range pairs the binaries pass are what gets exercised.
 */

#include <cstdlib>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "eval/service.hh"
#include "util/env_knob.hh"

namespace {

using lva::envKnobF64;
using lva::envKnobU64;
using lva::parseF64;
using lva::parseU64;

// The env-knob cases below run through the same parsers; these add
// the values the tool flags see.
TEST(ParseU64, ToolFlagValues)
{
    EXPECT_EQ(parseU64("0", 0, 65535), 0u); // --port 0: ephemeral
    EXPECT_EQ(parseU64("65535", 0, 65535), 65535u);
    // --port 70000 once became port 4464 through a u16 cast, and
    // --workers -1 became 2^32-1.
    EXPECT_FALSE(parseU64("70000", 0, 65535));
    EXPECT_FALSE(parseU64("-1", 0, 256));
    EXPECT_FALSE(parseU64(nullptr, 0, 256));
    // Past 2^64 strtoull saturates with ERANGE; no range admits it.
    EXPECT_FALSE(parseU64("99999999999999999999999", 0,
                          std::numeric_limits<lva::u64>::max()));
}

TEST(ParseF64, ToolFlagValues)
{
    // Scale flags are often written with std::to_string(double).
    EXPECT_DOUBLE_EQ(*parseF64(std::to_string(0.05).c_str(), 0.0, 4.0),
                     0.05);
    EXPECT_FALSE(parseF64(" 0.5", 0.0, 4.0));
    EXPECT_FALSE(parseF64("", 0.0, 4.0));
    EXPECT_FALSE(parseF64("inf", 0.0, 4.0));
    EXPECT_FALSE(parseF64("-0.5", 0.0, 4.0));
}

/** setenv-for-the-test-body helper; unsets on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

TEST(EnvKnobU64, UnsetAndEmptyReturnFallbackSilently)
{
    ::unsetenv("LVA_FLEET_SIZE");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    ScopedEnv env("LVA_FLEET_SIZE", "");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
}

TEST(EnvKnobU64, PureDecimalInRangeIsAccepted)
{
    ScopedEnv env("LVA_FLEET_SIZE", "8");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 8u);
}

TEST(EnvKnobU64, TrailingJunkIsRejectedNotTruncated)
{
    // The pre-PR-8 reader turned "2x" into 2.
    ScopedEnv env("LVA_FLEET_SIZE", "2x");
    EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
}

TEST(EnvKnobU64, SignsAreRejectedNotWrapped)
{
    // strtoull would wrap "-1" to 2^64-1; the knob must not.
    {
        ScopedEnv env("LVA_CLIENT_BUSY_RETRIES", "-1");
        EXPECT_EQ(envKnobU64("LVA_CLIENT_BUSY_RETRIES", 5, 0, 1000),
                  5u);
    }
    {
        ScopedEnv env("LVA_CLIENT_BUSY_RETRIES", "+3");
        EXPECT_EQ(envKnobU64("LVA_CLIENT_BUSY_RETRIES", 5, 0, 1000),
                  5u);
    }
}

TEST(EnvKnobU64, HexWhitespaceAndWordsAreRejected)
{
    {
        ScopedEnv env("LVA_SERVE_CACHE", "0x10");
        EXPECT_EQ(envKnobU64("LVA_SERVE_CACHE", 0, 0, 1000000), 0u);
    }
    {
        ScopedEnv env("LVA_SERVE_CACHE", " 7");
        EXPECT_EQ(envKnobU64("LVA_SERVE_CACHE", 0, 0, 1000000), 0u);
    }
    {
        ScopedEnv env("LVA_SERVE_CACHE", "unbounded");
        EXPECT_EQ(envKnobU64("LVA_SERVE_CACHE", 0, 0, 1000000), 0u);
    }
}

TEST(EnvKnobU64, OutOfRangeFallsBackInsteadOfClamping)
{
    {
        ScopedEnv env("LVA_FLEET_SIZE", "65");
        EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    }
    {
        ScopedEnv env("LVA_FLEET_SIZE", "0");
        EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    }
    {
        // Past 2^64: strtoull saturates with ERANGE; still rejected.
        ScopedEnv env("LVA_FLEET_SIZE", "99999999999999999999999");
        EXPECT_EQ(envKnobU64("LVA_FLEET_SIZE", 4, 1, 64), 4u);
    }
}

TEST(EnvKnobF64, StrictFloatParseAndRange)
{
    {
        ScopedEnv env("LVA_FIX_F", "0.25");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0),
                         0.25);
    }
    {
        ScopedEnv env("LVA_FIX_F", "0.25x");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0), 1.0);
    }
    {
        ScopedEnv env("LVA_FIX_F", "nan");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0), 1.0);
    }
    {
        ScopedEnv env("LVA_FIX_F", "3.5");
        EXPECT_DOUBLE_EQ(envKnobF64("LVA_FIX_F", 1.0, 0.0, 2.0), 1.0);
    }
}

TEST(ServeOptions, MalformedQueueAndCacheKnobsFallBackToDefaults)
{
    ScopedEnv queue("LVA_SERVE_QUEUE", "-1");
    ScopedEnv cache("LVA_SERVE_CACHE", "lots");
    const lva::ServeOptions opts =
        lva::resolveServeOptions(lva::ServeOptions{});
    EXPECT_EQ(opts.queueCap, 16u);  // documented default
    EXPECT_EQ(opts.cacheCap, 0u);   // unbounded default
}

TEST(ServeOptions, ValidKnobsResolveAndExplicitFieldsWin)
{
    ScopedEnv queue("LVA_SERVE_QUEUE", "32");
    ScopedEnv cache("LVA_SERVE_CACHE", "128");
    lva::ServeOptions opts = lva::resolveServeOptions(lva::ServeOptions{});
    EXPECT_EQ(opts.queueCap, 32u);
    EXPECT_EQ(opts.cacheCap, 128u);

    lva::ServeOptions forced;
    forced.queueCap = 3;
    forced.cacheCap = 9;
    opts = lva::resolveServeOptions(forced);
    EXPECT_EQ(opts.queueCap, 3u);
    EXPECT_EQ(opts.cacheCap, 9u);
}

} // namespace
