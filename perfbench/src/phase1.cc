/**
 * @file
 * phase1_sweep: the functional design-space sweep (paper fig4-9,
 * table1). Seven kernels x {LVA with GHB 0/1/2/4, LVA at degree 4 and
 * 16, LVP, GHB prefetch}, goldens built in set-up. The timed unit is
 * one Evaluator::evaluate call; no sim, noc or RPC code runs.
 */

#include <memory>
#include <stdexcept>

#include "perfbench.hh"
#include "spans.hh"

#include "core/approx_memory.hh"
#include "eval/evaluator.hh"
#include "eval/sweep.hh"
#include "sim/machine_config.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

/** Working-set scale: ~1 s per sweep round on one core. */
constexpr double kScale = 0.2;

struct Point
{
    lva::SweepPoint sweep;
    std::size_t kernel = 0; ///< index into allWorkloadNames()
    int mode = -1;          ///< index into the direct-run modes, or -1
};

/** The mechanism runs the traced rounds repeat outside the evaluator. */
enum DirectMode { kPrecise, kLva, kLvp, kPrefetch, kModes };

lva::ApproxMemory::Config
directConfig(int mode)
{
    const lva::MachineConfig &m = lva::defaultMachine();
    switch (mode) {
      case kPrecise:
        return m.phase1Precise();
      case kLva:
        return m.phase1Lva();
      case kLvp:
        return m.phase1Config(lva::MemMode::Lvp);
      default:
        return m.phase1Config(lva::MemMode::Prefetch);
    }
}

std::vector<Point>
sweepPoints()
{
    std::vector<Point> points;
    const std::vector<std::string> &kernels = lva::allWorkloadNames();
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        auto add = [&](const std::string &tag,
                       const lva::ApproxMemory::Config &cfg, int mode) {
            points.push_back(
                Point{lva::SweepPoint{kernels[k] + "/" + tag,
                                      kernels[k], cfg},
                      k, mode});
        };
        for (const lva::u32 ghb : {0u, 1u, 2u, 4u}) {
            lva::ApproxMemory::Config cfg = directConfig(kLva);
            cfg.editApprox([&](lva::ApproximatorConfig &a) {
                a.ghbEntries = ghb;
            });
            // GHB 0 is the baseline LVA the direct kLva run repeats.
            add("ghb" + std::to_string(ghb), cfg, ghb == 0 ? kLva : -1);
        }
        for (const lva::u32 degree : {4u, 16u}) {
            lva::ApproxMemory::Config cfg = directConfig(kLva);
            cfg.editApprox([&](lva::ApproximatorConfig &a) {
                a.approxDegree = degree;
            });
            add("deg" + std::to_string(degree), cfg, -1);
        }
        add("lvp", directConfig(kLvp), kLvp);
        add("prefetch", directConfig(kPrefetch), kPrefetch);
    }
    return points;
}

/**
 * Run kernel @p k once outside the evaluator: on NullBackend when
 * @p mode is -1, else on ApproxMemory in that mode, under spans named
 * "<layer>/<kernel>". Returns generate-plus-run seconds, the part of
 * an Evaluator::evaluate call that is not the evaluator's own; the
 * LVA run's counts land in @p lvaMetrics.
 */
double
directRun(SpanRecorder &rec, std::size_t k, int mode,
          lva::MemMetrics &lvaMetrics)
{
    static const char *const kLayer[kModes] = {"mem.precise", "core.lva",
                                                "core.lvp",
                                                "prefetch.ghb"};
    const std::string &kernel = lva::allWorkloadNames()[k];
    lva::WorkloadParams params;
    params.scale = kScale;
    params.seed = 1;
    params.threads = directConfig(kPrecise).threads;
    const double t0 = nowSeconds();
    std::unique_ptr<lva::Workload> w;
    {
        ScopedSpan span(rec, "workloads.generate/" + kernel);
        w = lva::makeWorkload(kernel, params);
        w->generate();
    }
    if (mode < 0) {
        lva::NullBackend null;
        ScopedSpan span(rec, "workloads.kernel/" + kernel);
        w->run(null);
    } else {
        lva::ApproxMemory mem(directConfig(mode));
        {
            ScopedSpan span(rec, std::string(kLayer[mode]) + "/" + kernel);
            w->run(mem);
        }
        if (mode == kLva)
            lvaMetrics = mem.metrics();
    }
    return nowSeconds() - t0;
}

} // namespace

RunResult
runPhase1(const RunOptions &opt, Reference &ref)
{
    const std::vector<Point> points = sweepPoints();
    const std::vector<std::string> &kernels = lva::allWorkloadNames();

    // Set-up: a fresh evaluator builds every golden (precise run).
    std::vector<double> setup;
    std::unique_ptr<lva::Evaluator> eval;
    for (u32 rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = nowSeconds();
        eval = std::make_unique<lva::Evaluator>(1, kScale);
        for (const std::string &k : kernels)
            eval->evaluatePrecise(k);
        setup.push_back(nowSeconds() - t0);
    }

    SpanRecorder rec(opt.trace);
    RunResult out;
    u64 ok = 0;
    std::vector<std::vector<double>> plain(points.size());
    std::vector<std::vector<double>> traced(points.size());
    std::vector<double> all;
    std::vector<double> instr(points.size(), 0.0);
    std::vector<lva::MemMetrics> lvaMetrics(kernels.size());
    std::vector<std::vector<double>> evaluateSelf(points.size());
    double tracedWall = 0.0;

    CpuRotation rotation;
    const double deadline = nowSeconds() + opt.seconds;
    for (u32 round = 0; round < minRounds(static_cast<u32>(points.size())) ||
                         nowSeconds() < deadline;
         ++round) {
        // In the traced run odd rounds carry spans and the direct
        // per-layer runs; even rounds stay untraced, so one run
        // yields the tracing overhead as well.
        const bool tracedRound = opt.trace && round % 2 == 1;
        SpanRecorder off(false);
        SpanRecorder &r = tracedRound ? rec : off;
        // A traced round and the untraced one before it share a CPU,
        // so the overhead comparison is not a comparison of CPUs.
        rotation.pinForRound(round / 2);
        const double roundStart = nowSeconds();
        for (const u32 i :
             unitOrder(opt.seed, round, static_cast<u32>(points.size()))) {
            const Point &p = points[i];
            const double t0 = nowSeconds();
            lva::EvalResult res;
            {
                ScopedSpan span(r, "eval.evaluate");
                res = eval->evaluate(p.sweep.workload, p.sweep.config);
            }
            const double dt = nowSeconds() - t0;
            (tracedRound ? traced : plain)[i].push_back(dt);
            if (!tracedRound)
                all.push_back(dt * 1e3);
            // The evaluator's own time: the unit minus the same run
            // done directly right after it, so host drift cancels.
            if (tracedRound && p.mode >= 0)
                evaluateSelf[i].push_back(
                    dt - directRun(r, p.kernel, p.mode,
                                   lvaMetrics[p.kernel]));
            instr[i] = res.instructions;

            std::string bytes;
            {
                ScopedSpan span(r, "util.stats_render/" + p.sweep.label);
                bytes = lva::renderSweepStats("phase1_sweep", {p.sweep},
                                              {res});
            }
            bool match = false;
            {
                ScopedSpan span(r, "check.digest");
                match = ref.check("phase1_sweep/" + p.sweep.label, bytes);
            }
            ++out.attempted;
            if (match)
                ++ok;
            else
                ++out.failed;
        }
        if (tracedRound) {
            for (std::size_t k = 0; k < kernels.size(); ++k) {
                directRun(r, k, -1, lvaMetrics[k]);
                directRun(r, k, kPrecise, lvaMetrics[k]);
            }
            tracedWall += nowSeconds() - roundStart;
        }
    }

    if (!opt.trace) {
        double totalInstr = 0.0;
        for (double n : instr)
            totalInstr += n;
        const double roundS = sumOfMedians(plain);
        const auto p50 = tailPercentile(all, 0.5);
        const auto p90 = tailPercentile(all, 0.9);
        if (!p50 || !p90)
            throw std::runtime_error("phase1_sweep: too few units for "
                                     "the latency percentiles");
        out.put("setup_s", median(setup), "s");
        out.put("sim_minstr_per_s", totalInstr / roundS / 1e6,
                "Minstr/s");
        out.put("peak_rss_mb", selfPeakRssMb(), "MB");
        out.put("req_p50_ms", *p50, "ms");
        out.put("req_p90_ms", *p90, "ms");
        out.put("max_rps_under_slo",
                static_cast<double>(points.size()) / roundS, "1/s");
        out.put("ok_frac",
                static_cast<double>(ok) /
                    static_cast<double>(out.attempted),
                "frac");
        return out;
    }

    // Per-layer times are the spans' self times: each kernel's or
    // point's median, summed over the round.
    const auto self = rec.selfTimes();
    auto layer = [&](const char *name, const std::string &key) {
        return median(self.at(std::string(name) + "/" + key));
    };
    double kernelS = 0.0, l1S = 0.0, lvaS = 0.0, lvpS = 0.0, ghbS = 0.0,
           loadS = 0.0;
    lva::MemMetrics m{};
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const double kernel = layer("workloads.kernel", kernels[k]);
        const double precise = layer("mem.precise", kernels[k]);
        const double lvaRun = layer("core.lva", kernels[k]);
        kernelS += kernel;
        l1S += precise - kernel;
        lvaS += lvaRun - precise;
        lvpS += layer("core.lvp", kernels[k]) - precise;
        ghbS += layer("prefetch.ghb", kernels[k]) - precise;
        loadS += lvaRun;
        m.loads += lvaMetrics[k].loads;
        m.loadMisses += lvaMetrics[k].loadMisses;
        m.approxLoads += lvaMetrics[k].approxLoads;
        m.approximableLoads += lvaMetrics[k].approximableLoads;
        m.fetches += lvaMetrics[k].fetches;
    }
    double renderS = 0.0;
    for (const Point &p : points)
        renderS += layer("util.stats_render", p.sweep.label);
    double evaluateSelfS = 0.0;
    for (const std::vector<double> &samples : evaluateSelf)
        if (!samples.empty())
            evaluateSelfS += median(samples);
    out.put("workloads.kernel_ms", kernelS * 1e3, "ms");
    out.put("mem.l1_ms", l1S * 1e3, "ms");
    out.put("core.lva_ms", lvaS * 1e3, "ms");
    out.put("core.lvp_ms", lvpS * 1e3, "ms");
    out.put("prefetch.ghb_ms", ghbS * 1e3, "ms");
    out.put("core.host_ns_per_load",
            loadS * 1e9 / static_cast<double>(m.loads), "ns");
    out.put("core.loads", static_cast<double>(m.loads), "count");
    out.put("mem.l1_misses", static_cast<double>(m.loadMisses), "count");
    out.put("core.approximations", static_cast<double>(m.approxLoads),
            "count");
    out.put("core.fetches", static_cast<double>(m.fetches), "count");
    out.put("core.coverage", m.coverage(), "frac");
    out.put("eval.evaluate_self_ms", evaluateSelfS * 1e3, "ms");
    out.put("eval.golden_build_ms", median(setup) * 1e3, "ms");
    out.put("util.stats_render_ms", renderS * 1e3, "ms");
    out.put("trace.coverage", rec.topLevelTime() / tracedWall, "frac");
    out.put("trace.overhead_frac",
            sumOfMedians(traced) / sumOfMedians(plain) - 1.0, "frac");
    return out;
}

} // namespace perfbench
