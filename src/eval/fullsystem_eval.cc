#include "eval/fullsystem_eval.hh"

#include "cpu/trace.hh"
#include "util/env_knob.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace lva {

double
fsScaleFromEnv()
{
    return envKnobF64("LVA_SCALE", 1.0, 1e-6, 4.0);
}

FsSweep
runFullSystemSweep(const std::string &workload,
                   const std::vector<u32> &degrees, u64 seed,
                   double scale, const MachineConfig &machine)
{
    WorkloadParams params;
    params.seed = seed;
    params.scale = scale > 0.0 ? scale : fsScaleFromEnv();
    params.threads = machine.cores;

    // Record the precise execution once.
    auto w = makeWorkload(workload, params);
    w->generate();
    TraceRecorder recorder(params.threads);
    w->run(recorder);

    FsSweep sweep;
    sweep.workload = workload;
    sweep.degrees = degrees;

    {
        FullSystemSim sim(machine.fullSystem(/*lvaEnabled=*/false));
        sweep.baseline = sim.run(recorder.traces());
    }
    for (u32 d : degrees) {
        FullSystemSim sim(machine.fullSystem(/*lvaEnabled=*/true, d));
        sweep.lva.push_back(sim.run(recorder.traces()));
    }
    return sweep;
}

std::vector<NamedSnapshot>
fsSweepSnapshots(const std::vector<FsSweep> &sweeps)
{
    std::vector<NamedSnapshot> snaps;
    for (const FsSweep &s : sweeps) {
        snaps.push_back(
            {s.workload + "/baseline", s.workload, s.baseline.stats});
        for (std::size_t i = 0; i < s.lva.size(); ++i)
            snaps.push_back(
                {s.workload + "/lva-d" + std::to_string(s.degrees[i]),
                 s.workload, s.lva[i].stats});
    }
    return snaps;
}

} // namespace lva
