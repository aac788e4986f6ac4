#include "util/stat_registry.hh"

#include <algorithm>
#include <stdexcept>

namespace lva {

namespace {

/** Dotted path: non-empty alnum/underscore segments joined by '.'. */
bool
validPath(const std::string &path)
{
    if (path.empty() || path.front() == '.' || path.back() == '.')
        return false;
    bool prev_dot = false;
    for (char c : path) {
        if (c == '.') {
            if (prev_dot)
                return false;
            prev_dot = true;
            continue;
        }
        prev_dot = false;
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace

const char *
statTypeName(StatType type)
{
    switch (type) {
      case StatType::Counter:
        return "counter";
      case StatType::Gauge:
        return "gauge";
      case StatType::Histogram:
        return "histogram";
    }
    return "?";
}

// --- StatSnapshot -----------------------------------------------------

const SnapEntry *
StatSnapshot::find(const std::string &path) const
{
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), path,
        [](const SnapEntry &e, const std::string &p) {
            return e.path < p;
        });
    if (it == entries.end() || it->path != path)
        return nullptr;
    return &*it;
}

double
StatSnapshot::valueOf(const std::string &path) const
{
    const SnapEntry *e = find(path);
    if (e == nullptr)
        return 0.0;
    if (e->type == StatType::Counter)
        return static_cast<double>(e->count);
    if (e->type == StatType::Gauge)
        return e->gauge;
    return static_cast<double>(e->histTotal);
}

void
StatSnapshot::merge(const StatSnapshot &other)
{
    // Both sides are path-sorted; classic sorted merge keeps the
    // result sorted without a full re-sort.
    std::vector<SnapEntry> out;
    out.reserve(entries.size() + other.entries.size());
    std::size_t i = 0, j = 0;
    while (i < entries.size() || j < other.entries.size()) {
        if (j >= other.entries.size() ||
            (i < entries.size() &&
             entries[i].path < other.entries[j].path)) {
            out.push_back(std::move(entries[i++]));
            continue;
        }
        if (i >= entries.size() ||
            other.entries[j].path < entries[i].path) {
            out.push_back(other.entries[j++]);
            continue;
        }
        // Same path: fold.
        SnapEntry merged = std::move(entries[i++]);
        const SnapEntry &b = other.entries[j++];
        if (merged.type != b.type)
            throw std::invalid_argument(
                "stat merge type conflict at '" + merged.path + "': " +
                statTypeName(merged.type) + " vs " + statTypeName(b.type));
        switch (merged.type) {
          case StatType::Counter:
            merged.count += b.count;
            break;
          case StatType::Gauge:
            merged.gauge = b.gauge; // last merged wins
            break;
          case StatType::Histogram:
            if (merged.histLo != b.histLo || merged.histHi != b.histHi ||
                merged.histBuckets.size() != b.histBuckets.size())
                throw std::invalid_argument(
                    "histogram geometry conflict at '" + merged.path +
                    "'");
            merged.histTotal += b.histTotal;
            merged.histUnderflow += b.histUnderflow;
            merged.histOverflow += b.histOverflow;
            for (std::size_t k = 0; k < merged.histBuckets.size(); ++k)
                merged.histBuckets[k] += b.histBuckets[k];
            break;
        }
        out.push_back(std::move(merged));
    }
    entries = std::move(out);
}

void
StatSnapshot::setGauge(const std::string &path, double value,
                       std::string desc, std::string unit)
{
    const auto it = std::lower_bound(
        entries.begin(), entries.end(), path,
        [](const SnapEntry &e, const std::string &p) {
            return e.path < p;
        });
    if (it != entries.end() && it->path == path) {
        if (it->type != StatType::Gauge)
            throw std::invalid_argument(
                "setGauge on non-gauge '" + path + "'");
        it->gauge = value;
        return;
    }
    SnapEntry e;
    e.path = path;
    e.type = StatType::Gauge;
    e.desc = std::move(desc);
    e.unit = std::move(unit);
    e.gauge = value;
    entries.insert(it, std::move(e));
}

// --- StatRegistry -----------------------------------------------------

StatRegistry::Entry &
StatRegistry::findOrCreate(const std::string &path, StatType type,
                           std::string &&desc, std::string &&unit)
{
    if (!validPath(path))
        throw std::invalid_argument("bad stat path '" + path + "'");
    const auto it = entries_.find(path);
    if (it != entries_.end()) {
        if (it->second.type != type)
            throw std::invalid_argument(
                "stat path collision at '" + path + "': registered as " +
                statTypeName(it->second.type) + ", requested as " +
                statTypeName(type));
        return it->second;
    }
    Entry entry;
    entry.type = type;
    entry.desc = std::move(desc);
    entry.unit = std::move(unit);
    return entries_.emplace(path, std::move(entry)).first->second;
}

Counter &
StatRegistry::counter(const std::string &path, std::string desc,
                      std::string unit)
{
    Entry &e = findOrCreate(path, StatType::Counter, std::move(desc),
                            std::move(unit));
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
StatRegistry::gauge(const std::string &path, std::string desc,
                    std::string unit)
{
    Entry &e = findOrCreate(path, StatType::Gauge, std::move(desc),
                            std::move(unit));
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
StatRegistry::histogram(const std::string &path, double lo, double hi,
                        std::size_t buckets, std::string desc,
                        std::string unit)
{
    Entry &e = findOrCreate(path, StatType::Histogram, std::move(desc),
                            std::move(unit));
    if (!e.histogram) {
        e.histogram = std::make_unique<Histogram>(lo, hi, buckets);
    } else if (e.histogram->lo() != lo || e.histogram->hi() != hi ||
               e.histogram->buckets() != buckets) {
        throw std::invalid_argument(
            "histogram geometry collision at '" + path + "'");
    }
    return *e.histogram;
}

bool
StatRegistry::contains(const std::string &path) const
{
    return entries_.count(path) != 0;
}

StatSnapshot
StatRegistry::snapshot() const
{
    StatSnapshot snap;
    snap.entries.reserve(entries_.size());
    for (const auto &[path, entry] : entries_) {
        SnapEntry e;
        e.path = path;
        e.type = entry.type;
        e.desc = entry.desc;
        e.unit = entry.unit;
        switch (entry.type) {
          case StatType::Counter:
            e.count = entry.counter->value();
            break;
          case StatType::Gauge:
            e.gauge = entry.gauge->value();
            break;
          case StatType::Histogram: {
            const Histogram &h = *entry.histogram;
            e.histLo = h.lo();
            e.histHi = h.hi();
            e.histTotal = h.total();
            e.histUnderflow = h.underflow();
            e.histOverflow = h.overflow();
            e.histBuckets.reserve(h.buckets());
            for (std::size_t b = 0; b < h.buckets(); ++b)
                e.histBuckets.push_back(h.bucketCount(b));
            break;
          }
        }
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

void
StatRegistry::reset()
{
    for (auto &[path, entry] : entries_) {
        (void)path;
        switch (entry.type) {
          case StatType::Counter:
            entry.counter->reset();
            break;
          case StatType::Gauge:
            entry.gauge->reset();
            break;
          case StatType::Histogram:
            entry.histogram->reset();
            break;
        }
    }
}

std::string
StatRegistry::joinPath(const std::string &prefix,
                       const std::string &leaf)
{
    if (prefix.empty())
        return leaf;
    if (leaf.empty())
        return prefix;
    return prefix + "." + leaf;
}

} // namespace lva
