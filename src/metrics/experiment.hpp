/**
 * @file
 * Experiment runner: one call = one (network configuration, benchmark
 * pair) simulation, returning the metrics every figure of the paper is
 * built from — throughput, latency, energy per bit, average laser power
 * and wavelength-state residency.
 */

#ifndef PEARL_METRICS_EXPERIMENT_HPP
#define PEARL_METRICS_EXPERIMENT_HPP

#include <array>
#include <string>

#include "core/arch_config.hpp"
#include "core/dba.hpp"
#include "core/power_policy.hpp"
#include "core/system.hpp"
#include "electrical/cmesh.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "photonic/wl_state.hpp"
#include "traffic/suite.hpp"

namespace pearl {

namespace sim {
class WorkerPool;
} // namespace sim

namespace metrics {

/** Wall-clock split of one run, by phase (observability plane). */
struct PhaseTimings
{
    double buildSeconds = 0.0;   //!< network/system construction
    double warmupSeconds = 0.0;  //!< warmup cycles
    double runSeconds = 0.0;     //!< measured cycles
    double collectSeconds = 0.0; //!< metric extraction / publishing

    double
    totalSeconds() const
    {
        return buildSeconds + warmupSeconds + runSeconds +
               collectSeconds;
    }
};

/** Everything a figure needs from one run. */
struct RunMetrics
{
    std::string configName;
    std::string pairLabel;

    sim::Cycle cycles = 0;
    std::uint64_t deliveredPackets = 0;
    std::uint64_t deliveredFlits = 0;
    std::uint64_t deliveredBits = 0;
    std::uint64_t cpuPackets = 0;
    std::uint64_t gpuPackets = 0;

    double throughputFlitsPerCycle = 0.0;
    double throughputGbps = 0.0;
    double avgLatencyCycles = 0.0;
    double cpuLatencyCycles = 0.0; //!< CPU-class packets only
    double gpuLatencyCycles = 0.0; //!< GPU-class packets only

    double totalEnergyJ = 0.0;
    double energyPerBitPj = 0.0;
    double laserPowerW = 0.0; //!< average laser power (photonic only)

    // Resilience counters (nonzero only with the fault plane enabled,
    // except thermalUnlockedCycles which the thermal model feeds too).
    std::uint64_t corruptedPackets = 0;
    std::uint64_t reservationDrops = 0;
    std::uint64_t retransmittedPackets = 0;
    std::uint64_t ackTimeouts = 0;
    std::uint64_t droppedPackets = 0;
    std::uint64_t thermalUnlockedCycles = 0;

    // Guard-layer counters (nonzero only under ml::GuardedPolicy).
    std::uint64_t policyFallbackEntries = 0;
    std::uint64_t policyFallbackExits = 0;
    std::uint64_t policyFallbackWindows = 0;

    /** Time share per wavelength state, WL8..WL64 (photonic only). */
    std::array<double, photonic::kNumWlStates> residency = {};
};

/** Options shared by all runs. */
struct RunOptions
{
    sim::Cycle warmupCycles = 2000;  //!< excluded from metrics
    sim::Cycle measureCycles = 30000;
    std::uint64_t seed = 1;
    core::SystemConfig system;

    /** Kept only so pearlbench builds; every run steps on one thread.
     *  Both fields are ignored. */
    unsigned stepThreads = 0;
    sim::WorkerPool *pool = nullptr;

    // Observability-plane sinks (all optional, non-owning; null — the
    // default — keeps the run bit-identical to an uninstrumented one).
    obs::Tracer *tracer = nullptr;        //!< per-window event trace
    obs::MetricsRegistry *registry = nullptr; //!< end-of-run metrics
    PhaseTimings *phases = nullptr;       //!< wall-clock phase split
};

/**
 * Run a benchmark pair on the PEARL photonic network.
 * @param policy wavelength policy (shared across routers).
 */
RunMetrics runPearl(const traffic::BenchmarkPair &pair,
                    const core::PearlConfig &net_cfg,
                    const core::DbaConfig &dba, core::PowerPolicy &policy,
                    const RunOptions &opts, const std::string &config_name);

/** Run a benchmark pair on the electrical CMESH baseline. */
RunMetrics runCmesh(const traffic::BenchmarkPair &pair,
                    const electrical::CmeshConfig &net_cfg,
                    const RunOptions &opts, const std::string &config_name);

/** Arithmetic mean of the numeric fields over several runs (used to
 *  aggregate the 16 test pairs into one figure bar). */
RunMetrics average(const std::vector<RunMetrics> &runs,
                   const std::string &label);

} // namespace metrics
} // namespace pearl

#endif // PEARL_METRICS_EXPERIMENT_HPP
