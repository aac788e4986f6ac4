/**
 * @file
 * What every workload shares: the seeded unit and request schedules,
 * order statistics, the metric record a run prints, and the host
 * facts (nproc, load average, peak RSS) it records.
 */

#ifndef PERFBENCH_SUMMARY_HH
#define PERFBENCH_SUMMARY_HH

#include <sched.h>

#include <optional>
#include <string>
#include <vector>

#include "util/types.hh"

namespace perfbench {

using lva::u32;
using lva::u64;

/** Median of @p v (mean of the middle two for an even count). */
double median(std::vector<double> v);

/**
 * Nearest-rank @p p-quantile (0 < p < 1) of @p v, or nullopt when
 * fewer than ten samples lie beyond it: a tail percentile read from
 * a handful of samples says which samples happened to land there,
 * not how the system behaves.
 */
std::optional<double> tailPercentile(std::vector<double> v, double p);

/**
 * The median, over @p windows equal consecutive slices of @p v, of
 * each slice's tailPercentile(p); nullopt when any slice has too few
 * samples. A one-second stall on the host lands in one slice and
 * leaves the median of the slices alone.
 */
std::optional<double> windowedPercentile(const std::vector<double> &v,
                                         double p, u32 windows);

/**
 * The order in which round @p round visits @p count units: a
 * permutation of 0..count-1 drawn from (@p seed, @p round). The same
 * seed always gives the same schedule.
 */
std::vector<u32> unitOrder(u64 seed, u32 round, u32 count);

/**
 * A request-kind schedule of @p total slots built from blocks: every
 * block holds exactly the per-kind counts of @p block (so the mix
 * proportions never depend on the seed) in an order shuffled by
 * (@p seed, block index). Entry i is the kind of request i.
 */
std::vector<u32> blockSchedule(u64 seed, const std::vector<u32> &block,
                               u64 total);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark run produced. */
struct RunResult
{
    u64 attempted = 0; ///< operations whose output was checked
    u64 failed = 0;    ///< operations whose output was wrong or missing
    std::vector<Metric> metrics;

    bool correct() const { return attempted > 0 && failed == 0; }

    void
    put(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back(Metric{name, value, unit});
    }
};

/** Options every workload receives. */
struct RunOptions
{
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir; ///< scratch space inside the checkout
    std::string bindir;  ///< where lva_served / lva_sweep_coord live
};

/** CPUs this process may run on (what `nproc` prints). */
u32 cpuCount();

/**
 * Moves this thread to the next allowed CPU at every round, so a
 * batch run samples every CPU of the host equally instead of the one
 * the scheduler happened to pick (on a shared virtual machine the
 * CPUs run at different speeds, and the speeds drift). Restores the
 * original affinity when destroyed.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void pinForRound(u32 round);

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
};

/** The 1-minute load average, or -1 when unavailable. */
double loadAverage1();

/** Peak resident set of this process, in MB. */
double selfPeakRssMb();

/** Largest peak resident set among reaped children, in MB. */
double childrenPeakRssMb();

/**
 * Refuse a configuration whose busy threads exceed the CPUs: the
 * generator and the system under test must not compete for cores,
 * or the benchmark measures the scheduler. Throws with a message.
 */
void checkCoreBudget(const std::string &workload, u32 busyThreads);

} // namespace perfbench

#endif // PERFBENCH_SUMMARY_HH
