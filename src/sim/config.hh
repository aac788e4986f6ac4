/**
 * @file
 * Phase-2 (full-system timing model) configuration: the projection
 * MachineConfig::fullSystem() makes of a machine description.
 *
 * The field values all come from a MachineConfig (src/sim/
 * machine_config.hh), whose all-defaults object is the paper's
 * Table II CMP. FullSystemConfig carries no machine defaults of its
 * own and cannot be default-constructed outside MachineConfig, so
 * every FullSystemSim is configured through a machine; callers edit
 * the projection (protocol, heteroNoc, ...) for ablations.
 */

#ifndef LVA_SIM_CONFIG_HH
#define LVA_SIM_CONFIG_HH

#include <vector>

#include "core/approximator_config.hh"
#include "cpu/ooo_core.hh"
#include "energy/energy_model.hh"
#include "mem/cache.hh"
#include "noc/mesh.hh"
#include "sim/directory.hh"

namespace lva {

/** Parameters of the CMP timing model (MachineConfig::fullSystem). */
struct FullSystemConfig
{
    u32 cores{};
    CoreConfig core{};
    CacheConfig l1{};
    u32 l1Latency{};

    CacheConfig l2{};                        ///< shared, distributed
    u32 l2Latency{};
    u32 l2Banks{};                           ///< one bank per mesh node
    u32 l2Occupancy{};                       ///< bank port busy cycles

    /** Coherence protocol; the paper's system uses MSI (Table II),
     *  MESI is provided as an ablation (silent E->M upgrades). */
    CoherenceProtocol protocol{};

    u32 memLatency{};
    u32 memOccupancy{};                      ///< controller busy cycles

    MeshConfig mesh{};
    EnergyParams energy{};

    /**
     * Approximation: enabled when lvaEnabled, using approx. The
     * machine projection runs it at the requested degree with a value
     * delay of ~1 load (paper section VI-E observes ~1 in full-system
     * runs).
     */
    bool lvaEnabled{};
    ApproximatorConfig approx{};

    /**
     * Per-core approximator variants (from MachineConfig::coreApprox):
     * empty means homogeneous — every core uses approx; otherwise
     * exactly one entry per core.
     */
    std::vector<ApproximatorConfig> coreApprox;

    /**
     * Extra latency added to background (training / write-allocate)
     * fetches, modelling the deprioritized, low-energy NoC and memory
     * paths of paper section VI-C. LVA tolerates this because stale
     * training only costs accuracy, never a rollback.
     */
    u32 backgroundFetchExtraLatency{};

    /**
     * Heterogeneous NoC (paper section VI-C, citing Mishra et al.):
     * when enabled, background training fetches travel over a second
     * mesh plane with narrower links and deeper (low-voltage) router
     * pipelines, whose flit-hops cost nocFlitHopSlow instead of
     * nocFlitHop. Demand traffic keeps the fast plane to itself,
     * which can even help tail latency.
     */
    bool heteroNoc{};
    MeshConfig slowMesh{};

  private:
    friend struct MachineConfig;
    FullSystemConfig() = default;
};

} // namespace lva

#endif // LVA_SIM_CONFIG_HH
