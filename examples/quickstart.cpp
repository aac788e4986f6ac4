/**
 * @file
 * Quickstart: the smallest end-to-end use of the library.
 *
 * We run a noise-tolerant streaming computation (a moving average over
 * a sensor trace) twice — once precisely and once with a load value
 * approximator beside a 64 KB L1 — and report what LVA bought us:
 * effective-MPKI reduction, coverage, fetch savings, and what it cost:
 * application output error.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <vector>

#include "core/approx_memory.hh"
#include "sim/machine_config.hh"
#include "util/arena.hh"
#include "util/random.hh"
#include "workloads/region.hh"

using namespace lva;

namespace {

/** A noisy but smooth "sensor" trace: ideal approximate value
 *  locality (consecutive values within a few percent). */
std::vector<float>
makeSensorTrace(std::size_t n)
{
    Rng rng(1234);
    std::vector<float> out(n);
    double level = 20.0;
    for (std::size_t i = 0; i < n; ++i) {
        level += rng.gaussian() * 0.05;
        out[i] = static_cast<float>(level);
    }
    return out;
}

/** The kernel: windowed moving average over the samples, reading the
 *  sensor data through the (possibly approximating) memory system. */
double
movingAverage(MemoryBackend &mem, Region<float> &samples,
              LoadSiteId site)
{
    double checksum = 0.0;
    constexpr std::size_t window = 8;
    for (std::size_t i = 0; i + window < samples.size(); ++i) {
        float sum = 0.0f;
        for (std::size_t k = 0; k < window; ++k)
            sum += samples.load(mem, /*tid=*/0, site, i + k);
        checksum += sum / window;
        mem.tickInstructions(0, 24);
    }
    return checksum;
}

} // namespace

int
main()
{
    const std::size_t n = 1 << 18; // 1 MB of floats: misses guaranteed
    const std::vector<float> trace = makeSensorTrace(n);

    // Declare the sensor array as approximable (the EnerJ-style
    // annotation) and place it in simulated memory.
    VirtualArena arena;
    Region<float> samples;
    samples.init(arena, n, /*approximable=*/true);
    for (std::size_t i = 0; i < n; ++i)
        samples.raw(i) = trace[i];
    const LoadSiteId site = 0x400; // this load's static PC

    // --- Precise run. ---
    ApproxMemory::Config precise_cfg = defaultMachine().phase1Precise();
    precise_cfg.threads = 1;
    ApproxMemory precise_mem(precise_cfg);
    const double golden = movingAverage(precise_mem, samples, site);

    // --- LVA run: paper-baseline approximator, degree 4. ---
    ApproxMemory::Config lva_cfg = defaultMachine().phase1Lva();
    lva_cfg.threads = 1;
    lva_cfg.editApprox([](ApproximatorConfig &a) {
        a.approxDegree = 16; // skip 16 of every 17 fetches
    });
    ApproxMemory lva_mem(lva_cfg);
    const double approx = movingAverage(lva_mem, samples, site);

    const MemMetrics p = precise_mem.metrics();
    const MemMetrics a = lva_mem.metrics();

    std::printf("quickstart: moving average over %zu samples\n\n", n);
    std::printf("%-28s %12s %12s\n", "", "precise", "LVA(deg 16)");
    std::printf("%-28s %12.3f %12.3f\n", "effective MPKI", p.mpki(),
                a.mpki());
    std::printf("%-28s %12llu %12llu\n", "L1 blocks fetched",
                static_cast<unsigned long long>(p.fetches),
                static_cast<unsigned long long>(a.fetches));
    std::printf("%-28s %12s %11.1f%%\n", "coverage", "-",
                a.coverage() * 100.0);
    std::printf("\noutput checksum: precise=%.2f approx=%.2f "
                "(error %.4f%%)\n",
                golden, approx,
                relativeError(approx, golden) * 100.0);
    std::printf("MPKI reduced %.1f%%, fetches reduced %.1f%%\n",
                (1.0 - a.mpki() / p.mpki()) * 100.0,
                (1.0 - static_cast<double>(a.fetches) /
                           static_cast<double>(p.fetches)) * 100.0);
    return 0;
}
