#include "spans.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace perfbench {

int
SpanRecorder::begin(const std::string &name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, nowSeconds(), 0.0, parent});
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    if (open_.empty() || open_.back() != index)
        throw std::logic_error("span closed out of order");
    open_.pop_back();
    spans_[static_cast<std::size_t>(index)].end = nowSeconds();
}

int
SpanRecorder::add(const std::string &name, double start, double end,
                  int parent)
{
    spans_.push_back(Span{name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
}

double
SpanRecorder::selfTime(int index) const
{
    const Span &s = spans_.at(static_cast<std::size_t>(index));
    std::vector<std::pair<double, double>> kids;
    for (const Span &c : spans_) {
        if (c.parent != index)
            continue;
        const double lo = std::max(c.start, s.start);
        const double hi = std::min(c.end, s.end);
        if (hi > lo)
            kids.emplace_back(lo, hi);
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double runLo = 0.0;
    double runHi = -1.0;
    for (const auto &[lo, hi] : kids) {
        if (lo > runHi) {
            if (runHi > runLo)
                covered += runHi - runLo;
            runLo = lo;
            runHi = hi;
        } else {
            runHi = std::max(runHi, hi);
        }
    }
    if (runHi > runLo)
        covered += runHi - runLo;
    return s.duration() - covered;
}

double
SpanRecorder::topLevelTime() const
{
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            total += s.duration();
    return total;
}

std::map<std::string, std::vector<double>>
SpanRecorder::selfTimes() const
{
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name].push_back(selfTime(static_cast<int>(i)));
    return out;
}

} // namespace perfbench
