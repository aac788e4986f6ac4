/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a layer: a name, a start, an end and
 * the span that was open when it began (its parent). Spans are kept
 * in memory and folded into per-layer numbers when the run ends. A
 * disabled recorder records nothing, so the untraced run pays one
 * branch per span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 = top level

    double duration() const { return end - start; }
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name);

    /** Close span @p index (the innermost open span). */
    void end(int index);

    /** Add an already-timed span (tests build span trees with it). */
    int add(const std::string &name, double start, double end,
            int parent);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Span @p index's duration minus the part of it that its direct
     * children cover (overlapping children are counted once, and a
     * child reaching outside its parent is clipped to the parent).
     */
    double selfTime(int index) const;

    /** Sum of the durations of all top-level spans. */
    double topLevelTime() const;

    /** Self time of every span, grouped by span name. */
    std::map<std::string, std::vector<double>> selfTimes() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * RAII span: opens on construction, closes on destruction; does
 * nothing when the recorder is disabled.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const std::string &name)
        : rec_(rec), index_(rec.enabled() ? rec.begin(name) : -1)
    {}

    ~ScopedSpan()
    {
        if (index_ >= 0)
            rec_.end(index_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    int index_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
