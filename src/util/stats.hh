/**
 * @file
 * Lightweight statistics collection: scalar counters, gauges and
 * histograms, in the spirit of gem5's stats package but trimmed to what the
 * LVA evaluation needs.
 */

#ifndef LVA_UTIL_STATS_HH
#define LVA_UTIL_STATS_HH

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace lva {

/** Monotonic event counter. */
class Counter
{
  public:
    void inc(u64 n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    u64 value() const { return value_; }

  private:
    u64 value_ = 0;
};

/** Point-in-time value (occupancy, derived metric set at end of run). */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    void reset() { value_ = 0.0; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets)
        : lo_(lo), hi_(hi), counts_(buckets + 2, 0)
    {
        lva_assert(hi > lo && buckets > 0, "bad histogram bounds");
    }

    void
    sample(double x)
    {
        ++total_;
        if (x < lo_) {
            ++counts_.front();
        } else if (x >= hi_) {
            ++counts_.back();
        } else {
            const std::size_t inner = counts_.size() - 2;
            auto idx = static_cast<std::size_t>(
                (x - lo_) / (hi_ - lo_) * static_cast<double>(inner));
            if (idx >= inner)
                idx = inner - 1;
            counts_[idx + 1] += 1;
        }
    }

    u64 total() const { return total_; }
    u64 underflow() const { return counts_.front(); }
    u64 overflow() const { return counts_.back(); }
    std::size_t buckets() const { return counts_.size() - 2; }
    u64 bucketCount(std::size_t i) const { return counts_.at(i + 1); }
    double lo() const { return lo_; }
    double hi() const { return hi_; }

    void
    reset()
    {
        total_ = 0;
        std::fill(counts_.begin(), counts_.end(), u64(0));
    }

  private:
    double lo_;
    double hi_;
    std::vector<u64> counts_;
    u64 total_ = 0;
};

/** Geometric mean of a set of strictly positive values. */
double geomean(const std::vector<double> &xs);

} // namespace lva

#endif // LVA_UTIL_STATS_HH
