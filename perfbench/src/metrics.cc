#include "perfbench.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

u32
busyThreads(const std::string &workload)
{
    // serve_mixed: one generator thread plus two daemon handlers
    // (--workers 2 --jobs 1). coord_sweep: two single-threaded
    // workers (--workers 1 --jobs 1) plus the coordinator. The batch
    // phases run in this process on one thread (LVA_JOBS=1).
    if (workload == "serve_mixed" || workload == "coord_sweep")
        return 3;
    return 1;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs{
        {"setup_s", "s"},
        {"sim_minstr_per_s", "Minstr/s"},
        {"peak_rss_mb", "MB"},
        {"req_p50_ms", "ms"},
        {"req_p90_ms", "ms"},
        {"max_rps_under_slo", "1/s"},
        {"ok_frac", "frac"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs{
        // phase1_sweep
        {"workloads.kernel_ms", "ms"},
        {"mem.l1_ms", "ms"},
        {"core.lva_ms", "ms"},
        {"core.lvp_ms", "ms"},
        {"prefetch.ghb_ms", "ms"},
        {"core.host_ns_per_load", "ns"},
        {"core.loads", "count"},
        {"mem.l1_misses", "count"},
        {"core.approximations", "count"},
        {"core.fetches", "count"},
        {"core.coverage", "frac"},
        {"eval.evaluate_self_ms", "ms"},
        {"eval.golden_build_ms", "ms"},
        {"util.stats_render_ms", "ms"},
        // phase2_replay
        {"cpu.trace_capture_ms", "ms"},
        {"cpu.trace_io_ms", "ms"},
        {"cpu.trace_bytes", "bytes"},
        {"sim.construct_ms", "ms"},
        {"sim.replay_precise_ms", "ms"},
        {"sim.replay_d0_ms", "ms"},
        {"sim.replay_d4_ms", "ms"},
        {"sim.replay_d16_ms", "ms"},
        {"sim.host_ns_per_instr", "ns"},
        {"mem.l2_accesses", "count"},
        {"mem.dram_accesses", "count"},
        {"noc.flit_hops", "count"},
        {"sim.approx_misses", "count"},
        {"sim.fetches_skipped", "count"},
        // serve_mixed
        {"util.rpc_ping_ms", "ms"},
        {"eval.handle_ms", "ms"},
        {"util.rpc_overhead_ms", "ms"},
        {"util.json_parse_ms", "ms"},
        {"eval.golden_hit_frac", "frac"},
        {"eval.golden_builds", "count"},
        {"eval.golden_evictions", "count"},
        {"serve.busy_frac", "frac"},
        {"gen.late_ms_p90", "ms"},
        // coord_sweep
        {"tools.fleet_spawn_ms", "ms"},
        {"eval.coord_plan_ms", "ms"},
        {"eval.coord_merge_ms", "ms"},
        {"eval.coord_overhead_frac", "ratio"},
        // every workload: the tracing itself
        {"trace.coverage", "frac"},
        {"trace.overhead_frac", "frac"},
    };
    return defs;
}

std::string
renderResult(const RunResult &r, bool trace)
{
    const std::vector<MetricDef> &defs =
        trace ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricDef &def : defs) {
        const Metric *found = nullptr;
        for (const Metric &m : r.metrics)
            if (m.name == def.name)
                found = &m;
        if (found == nullptr && !trace)
            throw std::runtime_error(std::string("metric ") + def.name +
                                     " was not measured");
        const double value = found ? found->value : 0.0;
        if (!std::isfinite(value))
            throw std::runtime_error(std::string("metric ") + def.name +
                                     " is not finite");
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        if (!metrics.empty())
            metrics += ", ";
        metrics += std::string("\"") + def.name + "\": {\"value\": " +
                   buf + ", \"unit\": \"" + def.unit + "\"}";
    }
    return std::string("{\"correct\": ") +
           (r.correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"metrics\": {" + metrics + "}}";
}

u32
minRounds(u32 unitsPerRound)
{
    return std::max(3u, (100 + unitsPerRound - 1) / unitsPerRound);
}

double
sumOfMedians(const std::vector<std::vector<double>> &samples)
{
    double total = 0.0;
    for (const std::vector<double> &s : samples)
        total += median(s);
    return total;
}

} // namespace perfbench
