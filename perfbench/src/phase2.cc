/**
 * @file
 * phase2_replay: trace-driven full-system replay (paper fig10/11).
 * Set-up captures every kernel's trace (TraceRecorder) and round-trips
 * it through writeTraces/readTraces; the timed unit is one
 * FullSystemSim construction plus run at precise or LVA degree
 * 0/4/16. The phase-1 evaluator is bypassed entirely.
 */

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "perfbench.hh"
#include "spans.hh"

#include "cpu/trace.hh"
#include "cpu/trace_io.hh"
#include "eval/stat_report.hh"
#include "sim/full_system.hh"
#include "sim/machine_config.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

/** Working-set scale: ~0.6 s per replay round on one core. */
constexpr double kScale = 0.1;

/** The fig10 shape: precise, then LVA at each degree. */
struct Config
{
    const char *tag;    ///< export label suffix
    const char *layer;  ///< per-layer metric
    bool lva;
    u32 degree;
};

const Config kConfigs[] = {
    {"baseline", "sim.replay_precise_ms", false, 0},
    {"lva-d0", "sim.replay_d0_ms", true, 0},
    {"lva-d4", "sim.replay_d4_ms", true, 4},
    {"lva-d16", "sim.replay_d16_ms", true, 16},
};
constexpr u32 kConfigCount = sizeof(kConfigs) / sizeof(kConfigs[0]);

} // namespace

RunResult
runPhase2(const RunOptions &opt, Reference &ref)
{
    const std::vector<std::string> &kernels = lva::allWorkloadNames();
    const u32 units = static_cast<u32>(kernels.size()) * kConfigCount;

    // Set-up: capture each kernel's precise trace and round-trip it
    // through the trace file format; the replays use the copy read
    // back, so a lossy writer or reader shows as a digest mismatch.
    std::vector<double> setup, capture, io;
    std::vector<std::vector<lva::ThreadTrace>> traces(kernels.size());
    double traceBytes = 0.0;
    for (u32 rep = 0; rep < kSetupReps; ++rep) {
        double captureS = 0.0, ioS = 0.0;
        traceBytes = 0.0;
        const double t0 = nowSeconds();
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            const double c0 = nowSeconds();
            lva::WorkloadParams params;
            params.scale = kScale;
            params.threads = lva::defaultMachine().cores;
            auto w = lva::makeWorkload(kernels[k], params);
            w->generate();
            lva::TraceRecorder recorder(params.threads);
            w->run(recorder);
            const double c1 = nowSeconds();
            const std::string path =
                opt.workdir + "/" + kernels[k] + ".trace";
            lva::writeTraces(recorder.traces(), path);
            traces[k] = lva::readTraces(path);
            const double c2 = nowSeconds();
            struct stat st = {};
            if (::stat(path.c_str(), &st) == 0)
                traceBytes += static_cast<double>(st.st_size);
            std::remove(path.c_str());
            captureS += c1 - c0;
            ioS += c2 - c1;
        }
        setup.push_back(nowSeconds() - t0);
        capture.push_back(captureS);
        io.push_back(ioS);
    }

    SpanRecorder rec(opt.trace);
    RunResult out;
    u64 ok = 0;
    std::vector<std::vector<double>> plain(units), traced(units);
    std::vector<double> all;
    std::vector<lva::FullSystemResult> results(units);
    double tracedWall = 0.0;

    CpuRotation rotation;
    const double deadline = nowSeconds() + opt.seconds;
    for (u32 round = 0; round < minRounds(units) ||
                         nowSeconds() < deadline;
         ++round) {
        const bool tracedRound = opt.trace && round % 2 == 1;
        SpanRecorder off(false);
        SpanRecorder &r = tracedRound ? rec : off;
        // A traced round and the untraced one before it share a CPU,
        // so the overhead comparison is not a comparison of CPUs.
        rotation.pinForRound(round / 2);
        const double roundStart = nowSeconds();
        for (const u32 i : unitOrder(opt.seed, round, units)) {
            const std::size_t k = i / kConfigCount;
            const Config &c = kConfigs[i % kConfigCount];
            const std::string label = kernels[k] + "/" + c.tag;
            const double t0 = nowSeconds();
            lva::FullSystemResult res;
            {
                ScopedSpan unit(r, "sim.unit");
                std::unique_ptr<lva::FullSystemSim> sim;
                {
                    ScopedSpan span(r, "sim.construct/" + label);
                    sim = std::make_unique<lva::FullSystemSim>(
                        lva::defaultMachine().fullSystem(c.lva,
                                                         c.degree));
                }
                ScopedSpan span(r, "sim.replay/" + label);
                res = sim->run(traces[k]);
            }
            const double dt = nowSeconds() - t0;
            (tracedRound ? traced : plain)[i].push_back(dt);
            if (!tracedRound)
                all.push_back(dt * 1e3);

            bool match = false;
            {
                ScopedSpan span(r, "check.digest");
                match = ref.check(
                    "phase2_replay/" + label,
                    lva::renderStatsJson("phase2_replay",
                                         {lva::NamedSnapshot{
                                             label, kernels[k],
                                             res.stats}}));
            }
            results[i] = std::move(res);
            ++out.attempted;
            if (match)
                ++ok;
            else
                ++out.failed;
        }
        if (tracedRound)
            tracedWall += nowSeconds() - roundStart;
    }

    double totalInstr = 0.0;
    for (const lva::FullSystemResult &res : results)
        totalInstr += static_cast<double>(res.instructions);

    if (!opt.trace) {
        const double roundS = sumOfMedians(plain);
        const auto p50 = tailPercentile(all, 0.5);
        const auto p90 = tailPercentile(all, 0.9);
        if (!p50 || !p90)
            throw std::runtime_error("phase2_replay: too few units for "
                                     "the latency percentiles");
        out.put("setup_s", median(setup), "s");
        out.put("sim_minstr_per_s", totalInstr / roundS / 1e6,
                "Minstr/s");
        out.put("peak_rss_mb", selfPeakRssMb(), "MB");
        out.put("req_p50_ms", *p50, "ms");
        out.put("req_p90_ms", *p90, "ms");
        out.put("max_rps_under_slo", static_cast<double>(units) / roundS,
                "1/s");
        out.put("ok_frac",
                static_cast<double>(ok) /
                    static_cast<double>(out.attempted),
                "frac");
        return out;
    }

    // Per-layer times are the spans' self times: each unit's median,
    // summed over the round.
    const auto self = rec.selfTimes();
    double construct = 0.0, replay = 0.0;
    double perConfig[kConfigCount] = {};
    for (u32 i = 0; i < units; ++i) {
        const std::string label = kernels[i / kConfigCount] + "/" +
                                  kConfigs[i % kConfigCount].tag;
        construct += median(self.at("sim.construct/" + label));
        const double run = median(self.at("sim.replay/" + label));
        perConfig[i % kConfigCount] += run;
        replay += run;
    }
    double l2 = 0, dram = 0, flits = 0, approx = 0, skipped = 0;
    for (const lva::FullSystemResult &res : results) {
        l2 += static_cast<double>(res.l2Accesses);
        dram += static_cast<double>(res.dramAccesses);
        flits += static_cast<double>(res.flitHops);
        approx += static_cast<double>(res.approxMisses);
        skipped += static_cast<double>(res.fetchesSkipped);
    }
    out.put("cpu.trace_capture_ms", median(capture) * 1e3, "ms");
    out.put("cpu.trace_io_ms", median(io) * 1e3, "ms");
    out.put("cpu.trace_bytes", traceBytes, "bytes");
    out.put("sim.construct_ms", construct * 1e3, "ms");
    for (u32 c = 0; c < kConfigCount; ++c)
        out.put(kConfigs[c].layer, perConfig[c] * 1e3, "ms");
    out.put("sim.host_ns_per_instr", replay * 1e9 / totalInstr, "ns");
    out.put("mem.l2_accesses", l2, "count");
    out.put("mem.dram_accesses", dram, "count");
    out.put("noc.flit_hops", flits, "count");
    out.put("sim.approx_misses", approx, "count");
    out.put("sim.fetches_skipped", skipped, "count");
    out.put("trace.coverage", rec.topLevelTime() / tracedWall, "frac");
    out.put("trace.overhead_frac",
            sumOfMedians(traced) / sumOfMedians(plain) - 1.0, "frac");
    return out;
}

} // namespace perfbench
