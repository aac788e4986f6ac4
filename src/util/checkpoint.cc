#include "util/checkpoint.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "util/logging.hh"

namespace lva {

const char *
manifestSchema()
{
    return "lva-manifest-v1";
}

u64
fnv1a64(const std::string &data)
{
    u64 h = 14695981039346656037ull;
    for (const char c : data) {
        h ^= static_cast<u8>(c);
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hexU64(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------

namespace {

class JsonReader
{
  public:
    explicit JsonReader(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *why)
    {
        throw std::runtime_error(
            "bad JSON at offset " + std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *w)
    {
        const std::size_t n = std::strlen(w);
        if (text_.compare(pos_, n, w) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/'); break;
              case 'n':  out.push_back('\n'); break;
              case 't':  out.push_back('\t'); break;
              case 'r':  out.push_back('\r'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("short \\u escape");
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                char *end = nullptr;
                const unsigned long cp =
                    std::strtoul(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4)
                    fail("bad \\u escape");
                // Our writers only escape control bytes (< 0x20).
                if (cp > 0xff)
                    fail("unsupported \\u code point");
                out.push_back(static_cast<char>(cp));
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("bad number");
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.text = text_.substr(start, pos_ - start);
        // Validate now so asDouble()/asU64() cannot fail later.
        char *end = nullptr;
        std::strtod(v.text.c_str(), &end);
        if (end != v.text.c_str() + v.text.size())
            fail("bad number");
        return v;
    }

    JsonValue
    object()
    {
        ++pos_; // '{'
        JsonValue v;
        v.type = JsonValue::Type::Object;
        skipWs();
        if (consume('}'))
            return v;
        for (;;) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            v.members.emplace_back(std::move(key), value());
            skipWs();
            if (consume(','))
                continue;
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        ++pos_; // '['
        JsonValue v;
        v.type = JsonValue::Type::Array;
        skipWs();
        if (consume(']'))
            return v;
        for (;;) {
            v.items.push_back(value());
            skipWs();
            if (consume(','))
                continue;
            expect(']');
            return v;
        }
    }

    JsonValue
    value()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            // Parsing (and later destroying) a value recurses once
            // per nesting level, so the depth is bounded before a
            // short hostile document can exhaust the stack.
            if (depth_ == kMaxJsonDepth)
                fail("nesting too deep");
            ++depth_;
            JsonValue v = c == '{' ? object() : array();
            --depth_;
            return v;
        }
        JsonValue v;
        if (c == '"') {
            v.type = JsonValue::Type::String;
            v.text = string();
            return v;
        }
        if (consumeWord("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeWord("false")) {
            v.type = JsonValue::Type::Bool;
            return v;
        }
        if (consumeWord("null"))
            return v;
        return number();
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    u32 depth_ = 0; ///< open arrays/objects around pos_
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (v == nullptr)
        throw std::runtime_error("missing JSON member '" + key + "'");
    return *v;
}

double
JsonValue::asDouble() const
{
    if (type != Type::Number)
        throw std::runtime_error("JSON value is not a number");
    return std::strtod(text.c_str(), nullptr);
}

u64
JsonValue::asU64() const
{
    if (type != Type::Number)
        throw std::runtime_error("JSON value is not a number");
    // strtoull alone would wrap "-3" and truncate "1.5"; a u64
    // counter is exactly a run of digits, so demand that (mirroring
    // the strict parse in env_knob).
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        throw std::runtime_error("JSON number '" + text +
                                 "' is not an unsigned integer");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        throw std::runtime_error("JSON number '" + text +
                                 "' does not fit in a u64");
    return v;
}

const std::string &
JsonValue::asString() const
{
    if (type != Type::String)
        throw std::runtime_error("JSON value is not a string");
    return text;
}

JsonValue
parseJson(const std::string &text)
{
    return JsonReader(text).parse();
}

bool
writeAllFd(int fd, const void *data, std::size_t n, WriteFn writeFn)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t wrote =
            writeFn != nullptr ? writeFn(fd, p, n) : ::write(fd, p, n);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (wrote == 0) {
            // A regular file should never return 0 for n > 0; treat
            // it as an I/O error rather than spinning forever.
            errno = EIO;
            return false;
        }
        p += wrote;
        n -= static_cast<std::size_t>(wrote);
    }
    return true;
}

// ---------------------------------------------------------------------
// CheckpointManifest
// ---------------------------------------------------------------------

namespace {

std::string
quoted(const std::string &s)
{
    // Digests and schema tags are plain [0-9a-z-]+; driver/context
    // strings come from our own code. Escape the two dangerous chars
    // anyway so a hostile label cannot corrupt the line format.
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

CheckpointManifest::CheckpointManifest(const std::string &path,
                                       const std::string &driver,
                                       const std::string &context,
                                       bool resume)
    : path_(path)
{
    const std::filesystem::path p(path_);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }

    if (resume)
        load(driver, context);

    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0)
        lva_fatal("cannot open checkpoint manifest '%s': %s",
                  path_.c_str(), std::strerror(errno));
    // Drop the torn tail (or, when not resuming, the whole old file)
    // so appends always start after the last durable record.
    if (::ftruncate(fd_, static_cast<off_t>(goodBytes_)) != 0)
        lva_fatal("cannot truncate '%s': %s", path_.c_str(),
                  std::strerror(errno));
    if (::lseek(fd_, 0, SEEK_END) < 0)
        lva_fatal("cannot seek '%s': %s", path_.c_str(),
                  std::strerror(errno));

    if (goodBytes_ == 0) {
        const std::string header =
            "{\"schema\":" + quoted(manifestSchema()) +
            ",\"driver\":" + quoted(driver) +
            ",\"context\":" + quoted(context) + "}\n";
        if (!writeAllFd(fd_, header.data(), header.size()))
            lva_fatal("cannot write manifest header to '%s': %s",
                      path_.c_str(), std::strerror(errno));
        ::fsync(fd_);
        goodBytes_ = header.size();
    }
}

CheckpointManifest::~CheckpointManifest()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
CheckpointManifest::load(const std::string &driver,
                         const std::string &context)
{
    std::ifstream in(path_, std::ios::binary);
    if (!in.is_open())
        return; // nothing to resume from

    std::string line;
    u64 offset = 0;
    bool have_header = false;
    while (std::getline(in, line)) {
        // getline strips '\n'; a final line without one is a torn
        // write — eof with an unterminated line means stop.
        const bool terminated = !in.eof();
        if (!terminated) {
            lva_warn("checkpoint %s: ignoring torn trailing record",
                     path_.c_str());
            break;
        }
        JsonValue v;
        try {
            v = parseJson(line);
        } catch (const std::exception &e) {
            lva_warn("checkpoint %s: corrupt record ignored (%s)",
                     path_.c_str(), e.what());
            break;
        }
        if (!have_header) {
            const JsonValue *schema = v.find("schema");
            const JsonValue *drv = v.find("driver");
            const JsonValue *ctx = v.find("context");
            if (schema == nullptr || drv == nullptr || ctx == nullptr ||
                schema->asString() != manifestSchema() ||
                drv->asString() != driver ||
                ctx->asString() != context) {
                lva_warn("checkpoint %s: header mismatch "
                         "(stale schema/driver/context); starting "
                         "fresh", path_.c_str());
                records_.clear();
                goodBytes_ = 0;
                return;
            }
            have_header = true;
        } else {
            const JsonValue *digest = v.find("digest");
            const JsonValue *payload = v.find("payload");
            if (digest == nullptr || payload == nullptr) {
                lva_warn("checkpoint %s: record without "
                         "digest/payload ignored", path_.c_str());
                break;
            }
            // Keep the payload's original bytes: resumed points must
            // re-export byte-identically.
            const auto at = line.find("\"payload\":");
            std::string raw = line.substr(at + 10);
            lva_assert(!raw.empty() && raw.back() == '}',
                       "malformed manifest record survived parsing");
            raw.pop_back(); // the record object's closing brace
            records_[digest->asString()] = raw;
        }
        offset += line.size() + 1;
        goodBytes_ = offset;
    }
    loaded_ = records_.size();
}

const std::string *
CheckpointManifest::find(const std::string &digest) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = records_.find(digest);
    return it == records_.end() ? nullptr : &it->second;
}

void
CheckpointManifest::append(const std::string &digest,
                           const std::string &payloadJson)
{
    lva_assert(payloadJson.find('\n') == std::string::npos,
               "manifest payloads must be single-line JSON");
    const std::string line = "{\"digest\":" + quoted(digest) +
                             ",\"payload\":" + payloadJson + "}\n";
    std::lock_guard<std::mutex> lock(mutex_);
    if (!writeAllFd(fd_, line.data(), line.size()))
        lva_fatal("cannot append to checkpoint manifest '%s': %s",
                  path_.c_str(), std::strerror(errno));
    ::fsync(fd_);
    records_[digest] = payloadJson;
}

} // namespace lva
