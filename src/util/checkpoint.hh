/**
 * @file
 * Append-only, fsync'd sweep checkpoint manifests (lva-manifest-v1).
 *
 * A manifest records each completed sweep point as one JSON line so a
 * crashed or killed sweep can restart and skip the work it already
 * finished. The file layout is:
 *
 *   {"schema":"lva-manifest-v1","driver":"<d>","context":"<key>"}
 *   {"digest":"<16-hex>","payload":{...}}
 *   {"digest":"<16-hex>","payload":{...}}
 *   ...
 *
 * The header binds the manifest to a (driver, context) pair; the
 * context key encodes everything that invalidates cached results
 * (seeds, scale, export schema — see sweepContextKey in eval/sweep).
 * Records are keyed by a stable digest of the sweep point; payloads
 * are opaque one-line JSON values owned by the caller.
 *
 * Crash tolerance: every append is flushed and fsync'd before it is
 * reported durable, and the loader stops at the first incomplete or
 * unparseable line (the torn tail a kill leaves behind), truncating
 * the file back to the last good record before appending resumes.
 * A header mismatch (different driver/context/schema) discards the
 * stale manifest with a warning rather than resuming wrong results.
 */

#ifndef LVA_UTIL_CHECKPOINT_HH
#define LVA_UTIL_CHECKPOINT_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"

namespace lva {

/** The manifest schema tag written into every header. */
const char *manifestSchema();

/** Signature of a write(2)-shaped function (injectable for tests). */
using WriteFn = ssize_t (*)(int fd, const void *buf, std::size_t n);

/**
 * Write all @p n bytes of @p data to @p fd, retrying interrupted
 * (EINTR) and short writes until everything is on its way to the
 * kernel. Returns false on a hard error with errno describing it.
 * @p writeFn substitutes for ::write in tests; nullptr uses the
 * real syscall.
 */
bool writeAllFd(int fd, const void *data, std::size_t n,
                WriteFn writeFn = nullptr);

/** FNV-1a 64-bit over @p data (stable across platforms/runs). */
u64 fnv1a64(const std::string &data);

/** @p v as 16 lowercase hex digits (manifest digest rendering). */
std::string hexU64(u64 v);

/**
 * A minimal JSON value, sufficient to read back what the manifest
 * and stats writers emit. Numbers keep their source text so u64
 * counters round-trip exactly (no detour through double).
 */
class JsonValue
{
  public:
    enum class Type : int { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    std::string text; ///< number source text, or string contents
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Member that must exist; throws std::runtime_error otherwise. */
    const JsonValue &at(const std::string &key) const;

    double asDouble() const;  ///< number as double (%.17g round-trip)
    u64 asU64() const;        ///< number as exact u64
    const std::string &asString() const;
};

/** Deepest array/object nesting parseJson accepts (every document
 *  the project writes nests a handful of levels). */
constexpr u32 kMaxJsonDepth = 64;

/**
 * Parse @p text as one JSON value; throws std::runtime_error with an
 * offset on malformed input, including nesting deeper than
 * kMaxJsonDepth. Accepts exactly the subset our writers produce
 * (objects, arrays, strings with the jsonQuote escapes, numbers,
 * true/false/null).
 */
JsonValue parseJson(const std::string &text);

/**
 * One open manifest: loaded records plus an append handle.
 *
 * append() is thread-safe (sweep workers complete in arbitrary
 * order); loading happens once in the constructor.
 */
class CheckpointManifest
{
  public:
    /**
     * Open @p path for the given (driver, context).
     *
     * With @p resume true an existing file with a matching header is
     * loaded (completed records become visible through find()) and
     * appends continue after the last good record; a missing file, a
     * mismatched header, or a corrupt file starts fresh with a
     * warning. With @p resume false any existing file is discarded.
     */
    CheckpointManifest(const std::string &path,
                       const std::string &driver,
                       const std::string &context, bool resume);

    ~CheckpointManifest();

    CheckpointManifest(const CheckpointManifest &) = delete;
    CheckpointManifest &operator=(const CheckpointManifest &) = delete;

    const std::string &path() const { return path_; }

    /** Records restored from disk by the constructor. */
    std::size_t loadedCount() const { return loaded_; }

    /** Payload JSON for @p digest, or nullptr if not recorded. */
    const std::string *find(const std::string &digest) const;

    /**
     * Durably record @p digest -> @p payloadJson (one line; the
     * payload must not contain raw newlines). Flushed and fsync'd
     * before returning. Thread-safe.
     */
    void append(const std::string &digest,
                const std::string &payloadJson);

  private:
    void load(const std::string &driver, const std::string &context);

    std::string path_;
    mutable std::mutex mutex_;
    std::map<std::string, std::string> records_;
    std::size_t loaded_ = 0;
    u64 goodBytes_ = 0; ///< offset of the last durable byte on load
    int fd_ = -1;
};

} // namespace lva

#endif // LVA_UTIL_CHECKPOINT_HH
