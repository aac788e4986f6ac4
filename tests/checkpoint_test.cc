/**
 * @file
 * Tests for the checkpoint manifest layer (util/checkpoint): the
 * minimal JSON reader, the stable digest helpers, and the manifest's
 * load/append/resume behavior including torn-tail truncation and
 * header-mismatch recovery.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/checkpoint.hh"

namespace lva {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Fresh scratch file per test; removed afterwards. */
class ManifestTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test case: ctest runs cases as separate parallel
        // processes, so a shared scratch directory races TearDown of
        // one case against SetUp of another.
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               (std::string("lva_checkpoint_test_") + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        path_ = (dir_ / "m.jsonl").string();
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
    std::string path_;
};

// ---------------------------------------------------------------------
// Digest helpers
// ---------------------------------------------------------------------

TEST(Fnv1a64, MatchesKnownVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1a64, HexRenderingIsFixedWidthLowercase)
{
    EXPECT_EQ(hexU64(0), "0000000000000000");
    EXPECT_EQ(hexU64(0xcbf29ce484222325ull), "cbf29ce484222325");
    EXPECT_EQ(hexU64(0xffffffffffffffffull), "ffffffffffffffff");
}

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(ParseJson, ScalarsAndContainers)
{
    const JsonValue v = parseJson(
        R"({"s":"hi","n":-2.5,"u":18446744073709551615,)"
        R"("t":true,"f":false,"z":null,"a":[1,2,3],"o":{"k":"v"}})");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("s").asString(), "hi");
    EXPECT_EQ(v.at("n").asDouble(), -2.5);
    // u64 counters round-trip exactly (no detour through double).
    EXPECT_EQ(v.at("u").asU64(), 18446744073709551615ull);
    EXPECT_TRUE(v.at("t").boolean);
    EXPECT_FALSE(v.at("f").boolean);
    EXPECT_EQ(v.at("z").type, JsonValue::Type::Null);
    ASSERT_TRUE(v.at("a").isArray());
    ASSERT_EQ(v.at("a").items.size(), 3u);
    EXPECT_EQ(v.at("a").items[2].asU64(), 3u);
    EXPECT_EQ(v.at("o").at("k").asString(), "v");
}

TEST(ParseJson, StringEscapes)
{
    const JsonValue v =
        parseJson(R"("line\nquote\"back\\slash\ttab\u0007")");
    EXPECT_EQ(v.asString(), "line\nquote\"back\\slash\ttab\a");
}

TEST(ParseJson, NumberTextPreserved)
{
    // %.17g doubles survive as source text.
    const JsonValue v = parseJson("0.10000000000000001");
    EXPECT_EQ(v.text, "0.10000000000000001");
    EXPECT_EQ(v.asDouble(), 0.1);
}

TEST(ParseJson, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson(""), std::runtime_error);
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("{\"a\":}"), std::runtime_error);
    EXPECT_THROW(parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(parseJson("\"unterminated"), std::runtime_error);
    EXPECT_THROW(parseJson("1 2"), std::runtime_error); // trailing
    EXPECT_THROW(parseJson("nope"), std::runtime_error);
}

/** @p depth nested arrays, innermost holding 1: "[[1]]" at depth 2. */
std::string
nestedArrays(std::size_t depth)
{
    return std::string(depth, '[') + "1" + std::string(depth, ']');
}

/** @p depth nested objects: {"a":{"a":1}} at depth 2. */
std::string
nestedObjects(std::size_t depth)
{
    std::string out;
    for (std::size_t i = 0; i < depth; ++i)
        out += "{\"a\":";
    return out + "1" + std::string(depth, '}');
}

/** The parse diagnostic for @p text, or "" when it parsed. */
std::string
parseError(const std::string &text)
{
    try {
        parseJson(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ParseJson, NestingAtTheLimitParses)
{
    const JsonValue arrays = parseJson(nestedArrays(kMaxJsonDepth));
    const JsonValue *v = &arrays;
    for (u32 i = 0; i < kMaxJsonDepth; ++i) {
        ASSERT_TRUE(v->isArray());
        ASSERT_EQ(v->items.size(), 1u);
        v = &v->items[0];
    }
    EXPECT_EQ(v->asU64(), 1u);
    EXPECT_TRUE(parseJson(nestedObjects(kMaxJsonDepth)).isObject());
}

TEST(ParseJson, DeeperNestingIsRejectedNotACrash)
{
    // One level past the limit, and hostile 100 000-deep documents
    // that would overflow the stack of an unbounded recursive reader.
    for (const std::string &text :
         {nestedArrays(kMaxJsonDepth + 1), nestedObjects(kMaxJsonDepth + 1),
          std::string(100000, '['), nestedObjects(100000)}) {
        const std::string err = parseError(text);
        EXPECT_NE(err.find("bad JSON"), std::string::npos) << err;
        EXPECT_NE(err.find("nesting too deep"), std::string::npos)
            << err;
    }
}

TEST(ParseJson, AsU64RejectsNonUnsignedNumbers)
{
    // asU64 guards every count the manifest and RPC layers trust
    // (shard indices, result counts): a negative, fractional or
    // overflowing number must throw, never silently truncate the way
    // strtoull-with-no-checks would.
    EXPECT_THROW(parseJson("\"7\"").asU64(), std::runtime_error);
    EXPECT_THROW(parseJson("-3").asU64(), std::runtime_error);
    EXPECT_THROW(parseJson("1.5").asU64(), std::runtime_error);
    EXPECT_THROW(parseJson("1e3").asU64(), std::runtime_error);
    EXPECT_THROW(parseJson("[-1]").items[0].asU64(),
                 std::runtime_error);
    // One past u64 max: in range for strtoull's saturating parse but
    // flagged by ERANGE.
    EXPECT_THROW(parseJson("18446744073709551616").asU64(),
                 std::runtime_error);
    // The boundary itself still round-trips.
    EXPECT_EQ(parseJson("18446744073709551615").asU64(),
              18446744073709551615ull);
    EXPECT_EQ(parseJson("0").asU64(), 0u);
}

TEST(ParseJson, FindAndAt)
{
    const JsonValue v = parseJson(R"({"a":1})");
    EXPECT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("b"), nullptr);
    EXPECT_THROW(v.at("b"), std::runtime_error);
}

// ---------------------------------------------------------------------
// CheckpointManifest
// ---------------------------------------------------------------------

TEST_F(ManifestTest, AppendThenResumeRestoresPayloadBytes)
{
    const std::string payload1 = R"({"x":1,"y":"a"})";
    const std::string payload2 = R"({"x":2})";
    {
        CheckpointManifest m(path_, "drv", "ctx", false);
        EXPECT_EQ(m.loadedCount(), 0u);
        m.append("digest-one", payload1);
        m.append("digest-two", payload2);
        EXPECT_NE(m.find("digest-one"), nullptr);
    }
    CheckpointManifest m(path_, "drv", "ctx", true);
    EXPECT_EQ(m.loadedCount(), 2u);
    ASSERT_NE(m.find("digest-one"), nullptr);
    // Byte-exact payload restoration is what makes resumed exports
    // byte-identical to uninterrupted runs.
    EXPECT_EQ(*m.find("digest-one"), payload1);
    EXPECT_EQ(*m.find("digest-two"), payload2);
    EXPECT_EQ(m.find("digest-missing"), nullptr);
}

TEST_F(ManifestTest, NonResumeOpenDiscardsExistingRecords)
{
    {
        CheckpointManifest m(path_, "drv", "ctx", false);
        m.append("d", R"({"x":1})");
    }
    CheckpointManifest m(path_, "drv", "ctx", false);
    EXPECT_EQ(m.loadedCount(), 0u);
    EXPECT_EQ(m.find("d"), nullptr);
}

TEST_F(ManifestTest, TornTailIsTruncatedAndOverwritten)
{
    {
        CheckpointManifest m(path_, "drv", "ctx", false);
        m.append("good", R"({"x":1})");
    }
    const std::string durable = slurp(path_);
    // Simulate a kill mid-append: a record with no trailing newline.
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << R"({"digest":"torn","payload":{"x":)";
    }
    CheckpointManifest m(path_, "drv", "ctx", true);
    EXPECT_EQ(m.loadedCount(), 1u);
    EXPECT_NE(m.find("good"), nullptr);
    EXPECT_EQ(m.find("torn"), nullptr);
    // The constructor truncated the torn bytes away.
    EXPECT_EQ(slurp(path_), durable);
    m.append("next", R"({"x":2})");
    CheckpointManifest again(path_, "drv", "ctx", true);
    EXPECT_EQ(again.loadedCount(), 2u);
}

TEST_F(ManifestTest, CorruptMiddleRecordStopsTheLoadThere)
{
    {
        CheckpointManifest m(path_, "drv", "ctx", false);
        m.append("one", R"({"x":1})");
    }
    {
        std::ofstream out(path_, std::ios::binary | std::ios::app);
        out << "not json at all\n";
        out << R"({"digest":"after","payload":{"x":2}})" << "\n";
    }
    // Everything after the first bad line is dropped: the file is an
    // append-only log, so a corrupt line invalidates its suffix.
    CheckpointManifest m(path_, "drv", "ctx", true);
    EXPECT_EQ(m.loadedCount(), 1u);
    EXPECT_NE(m.find("one"), nullptr);
    EXPECT_EQ(m.find("after"), nullptr);
}

TEST_F(ManifestTest, HeaderMismatchStartsFresh)
{
    {
        CheckpointManifest m(path_, "drv", "ctx-old", false);
        m.append("d", R"({"x":1})");
    }
    // Same driver, different context (e.g. LVA_SEEDS changed): stale
    // results must not be resumed.
    CheckpointManifest m(path_, "drv", "ctx-new", true);
    EXPECT_EQ(m.loadedCount(), 0u);
    EXPECT_EQ(m.find("d"), nullptr);

    // And the fresh manifest is fully usable afterwards.
    m.append("d2", R"({"x":2})");
    CheckpointManifest again(path_, "drv", "ctx-new", true);
    EXPECT_EQ(again.loadedCount(), 1u);
    EXPECT_NE(again.find("d2"), nullptr);
}

TEST_F(ManifestTest, MissingFileResumesEmpty)
{
    CheckpointManifest m(path_, "drv", "ctx", true);
    EXPECT_EQ(m.loadedCount(), 0u);
}

TEST_F(ManifestTest, HeaderLineBindsSchemaDriverContext)
{
    { CheckpointManifest m(path_, "mydriver", "mycontext", false); }
    std::ifstream in(path_);
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    const JsonValue v = parseJson(header);
    EXPECT_EQ(v.at("schema").asString(), manifestSchema());
    EXPECT_EQ(v.at("driver").asString(), "mydriver");
    EXPECT_EQ(v.at("context").asString(), "mycontext");
}

TEST_F(ManifestTest, CreatesParentDirectories)
{
    const std::string nested =
        (dir_ / "a" / "b" / "m.jsonl").string();
    CheckpointManifest m(nested, "drv", "ctx", false);
    m.append("d", R"({"x":1})");
    EXPECT_TRUE(fs::exists(nested));
}

// ---------------------------------------------------------------------
// writeAllFd — the EINTR/short-write retry loop under every manifest
// header and record append. WriteFn is a plain function pointer, so
// the injected fakes script their behavior through file-static state.
// ---------------------------------------------------------------------

/** What the fake write functions append and consume. */
std::string g_written;        // NOLINT: test scripting state
std::vector<ssize_t> g_script; // per-call results; empty = write all
std::size_t g_calls = 0;

ssize_t
fakeWrite(int /*fd*/, const void *buf, std::size_t n)
{
    ++g_calls;
    ssize_t take = static_cast<ssize_t>(n);
    if (!g_script.empty()) {
        take = g_script.front();
        g_script.erase(g_script.begin());
    }
    if (take < 0) {
        errno = take == -2 ? EINTR : EIO;
        return -1;
    }
    if (static_cast<std::size_t>(take) > n)
        take = static_cast<ssize_t>(n);
    g_written.append(static_cast<const char *>(buf),
                     static_cast<std::size_t>(take));
    return take;
}

class WriteAllFdTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        g_written.clear();
        g_script.clear();
        g_calls = 0;
    }
};

TEST_F(WriteAllFdTest, WritesEverythingInOneCall)
{
    const std::string data = "hello manifest";
    EXPECT_TRUE(writeAllFd(-1, data.data(), data.size(), fakeWrite));
    EXPECT_EQ(g_written, data);
    EXPECT_EQ(g_calls, 1u);
}

TEST_F(WriteAllFdTest, RetriesShortWritesUntilComplete)
{
    // The kernel may accept any prefix; the loop must resume at the
    // right offset every time (1-byte drips are the worst case).
    const std::string data = "0123456789";
    g_script = {1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
    EXPECT_TRUE(writeAllFd(-1, data.data(), data.size(), fakeWrite));
    EXPECT_EQ(g_written, data);
    EXPECT_EQ(g_calls, 10u);
}

TEST_F(WriteAllFdTest, RetriesEintrWithoutLosingBytes)
{
    // -2 scripts an EINTR failure: a signal (SIGCHLD from a fleet
    // worker, SIGTERM forwarded by a supervisor) interrupting the
    // write must not drop the record or double-write a prefix.
    const std::string data = "abcdef";
    g_script = {-2, 3, -2, -2, 3};
    EXPECT_TRUE(writeAllFd(-1, data.data(), data.size(), fakeWrite));
    EXPECT_EQ(g_written, data);
    EXPECT_EQ(g_calls, 5u);
}

TEST_F(WriteAllFdTest, HardErrorReturnsFalseWithErrno)
{
    const std::string data = "abcdef";
    g_script = {3, -1}; // EIO after a partial write
    errno = 0;
    EXPECT_FALSE(writeAllFd(-1, data.data(), data.size(), fakeWrite));
    EXPECT_EQ(errno, EIO);
    EXPECT_EQ(g_written, "abc");
}

TEST_F(WriteAllFdTest, ZeroReturnIsTreatedAsAHardError)
{
    // A write(2) returning 0 for a nonzero count would loop forever
    // if treated as progress; the helper converts it to EIO.
    const std::string data = "xyz";
    g_script = {0};
    EXPECT_FALSE(writeAllFd(-1, data.data(), data.size(), fakeWrite));
    EXPECT_EQ(errno, EIO);
}

TEST_F(WriteAllFdTest, ZeroLengthWriteSucceedsWithoutCalling)
{
    EXPECT_TRUE(writeAllFd(-1, "", 0, fakeWrite));
    EXPECT_EQ(g_calls, 0u);
}

} // namespace
} // namespace lva
