#include "summary.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "util/random.hh"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double>
tailPercentile(std::vector<double> v, double p)
{
    if (v.empty() || p <= 0.0 || p >= 1.0)
        return std::nullopt;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    const std::size_t k = std::max<std::size_t>(rank, 1);
    if (n - k < 10)
        return std::nullopt;
    return v[k - 1];
}

std::optional<double>
windowedPercentile(const std::vector<double> &v, double p, u32 windows)
{
    if (windows == 0 || v.size() < windows)
        return std::nullopt;
    std::vector<double> perWindow;
    const std::size_t n = v.size();
    for (u32 w = 0; w < windows; ++w) {
        const auto lo = static_cast<long>(n * w / windows);
        const auto hi = static_cast<long>(n * (w + 1) / windows);
        const auto q = tailPercentile(
            std::vector<double>(v.begin() + lo, v.begin() + hi), p);
        if (!q)
            return std::nullopt;
        perWindow.push_back(*q);
    }
    return median(perWindow);
}

std::vector<u32>
unitOrder(u64 seed, u32 round, u32 count)
{
    std::vector<u32> order(count);
    std::iota(order.begin(), order.end(), 0u);
    lva::Rng rng(lva::mix64(seed) ^ lva::mix64(0x726f756eULL + round));
    for (u32 i = count; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::vector<u32>
blockSchedule(u64 seed, const std::vector<u32> &block, u64 total)
{
    std::vector<u32> proto;
    for (u32 kind = 0; kind < block.size(); ++kind)
        proto.insert(proto.end(), block[kind], kind);
    if (proto.empty())
        throw std::invalid_argument("empty request block");
    std::vector<u32> out;
    out.reserve(total);
    for (u32 b = 0; out.size() < total; ++b) {
        const std::vector<u32> order =
            unitOrder(seed, b, static_cast<u32>(proto.size()));
        for (u32 i : order) {
            if (out.size() == total)
                break;
            out.push_back(proto[i]);
        }
    }
    return out;
}

u32
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<u32>(CPU_COUNT(&set));
    return 1;
}

CpuRotation::CpuRotation()
{
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &original_))
            cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof(original_), &original_);
}

void
CpuRotation::pinForRound(u32 round)
{
    if (cpus_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[round % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
}

double
loadAverage1()
{
    double load[3] = {0, 0, 0};
    return getloadavg(load, 3) >= 1 ? load[0] : -1.0;
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
childrenPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
checkCoreBudget(const std::string &workload, u32 busyThreads)
{
    const u32 cpus = cpuCount();
    if (busyThreads > cpus) {
        char msg[256];
        std::snprintf(msg, sizeof(msg),
                      "%s needs %u busy threads but only %u CPUs are "
                      "available; refusing to measure an "
                      "oversubscribed host",
                      workload.c_str(), busyThreads, cpus);
        throw std::runtime_error(msg);
    }
}

} // namespace perfbench
