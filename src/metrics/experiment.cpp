#include "metrics/experiment.hpp"

#include <chrono>
#include <memory>

#include "common/log.hpp"
#include "core/network.hpp"
#include "photonic/power_model.hpp"
#include "verify/invariants.hpp"

namespace pearl {
namespace metrics {

using sim::Cycle;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Deterministic run-metadata event ("sweep" category, run track). */
void
traceRunStart(const RunOptions &opts, const std::string &config_name,
              const std::string &pair_label)
{
    obs::TraceEvent e;
    e.cat = obs::Category::Sweep;
    e.name = "run";
    e.ts = 0;
    e.sarg("config", config_name).sarg("pair", pair_label);
    e.arg("seed", static_cast<double>(opts.seed))
        .arg("warmup_cycles", static_cast<double>(opts.warmupCycles))
        .arg("measure_cycles", static_cast<double>(opts.measureCycles));
    opts.tracer->record(std::move(e));
}

/**
 * Phase-timing events on the run track (tid 0).  Timeline positions
 * are cycle-based and deterministic; only the "seconds" arguments carry
 * (nondeterministic) wall time — tests filter the "sweep" category
 * before byte-comparing traces.
 */
void
tracePhases(const RunOptions &opts, const PhaseTimings &t)
{
    const std::uint64_t warmup = opts.warmupCycles;
    const std::uint64_t measure = opts.measureCycles;
    obs::TraceEvent build;
    build.cat = obs::Category::Sweep;
    build.name = "phase:build";
    build.ts = 0;
    build.arg("seconds", t.buildSeconds);
    opts.tracer->record(std::move(build));

    obs::TraceEvent warm;
    warm.cat = obs::Category::Sweep;
    warm.name = "phase:warmup";
    warm.phase = 'X';
    warm.ts = 0;
    warm.dur = warmup;
    warm.arg("seconds", t.warmupSeconds);
    opts.tracer->record(std::move(warm));

    obs::TraceEvent run;
    run.cat = obs::Category::Sweep;
    run.name = "phase:run";
    run.phase = 'X';
    run.ts = warmup;
    run.dur = measure;
    run.arg("seconds", t.runSeconds);
    opts.tracer->record(std::move(run));

    obs::TraceEvent collect;
    collect.cat = obs::Category::Sweep;
    collect.name = "phase:collect";
    collect.ts = warmup + measure;
    collect.arg("seconds", t.collectSeconds);
    opts.tracer->record(std::move(collect));
}

/**
 * End-of-run fault/resilience roll-up ("fault" category).  Emitted on
 * every traced run — healthy runs report zeros — so a trace always
 * carries all four event categories.
 */
void
traceFaultSummary(const RunOptions &opts, const sim::NetworkStats &stats,
                  std::uint64_t bank_failures,
                  std::uint64_t bank_repairs)
{
    obs::TraceEvent e;
    e.cat = obs::Category::Fault;
    e.name = "fault_summary";
    e.ts = static_cast<std::uint64_t>(opts.warmupCycles) +
           static_cast<std::uint64_t>(opts.measureCycles);
    e.arg("corrupted_packets",
          static_cast<double>(stats.corruptedPackets()))
        .arg("reservation_drops",
             static_cast<double>(stats.reservationDrops()))
        .arg("retransmitted_packets",
             static_cast<double>(stats.retransmittedPackets()))
        .arg("ack_timeouts", static_cast<double>(stats.ackTimeouts()))
        .arg("dropped_packets",
             static_cast<double>(stats.droppedPackets()))
        .arg("thermal_unlocked_cycles",
             static_cast<double>(stats.thermalUnlockedCycles()))
        .arg("bank_failures", static_cast<double>(bank_failures))
        .arg("bank_repairs", static_cast<double>(bank_repairs));
    opts.tracer->record(std::move(e));
}

/** Counter snapshot for warmup exclusion. */
struct Snapshot
{
    std::uint64_t packets = 0;
    std::uint64_t flits = 0;
    std::uint64_t bits = 0;
    std::uint64_t cpuPackets = 0;
    std::uint64_t gpuPackets = 0;
    double energyJ = 0.0;
    double laserJ = 0.0;
    std::uint64_t corrupted = 0;
    std::uint64_t resDrops = 0;
    std::uint64_t retransmitted = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t dropped = 0;
    std::uint64_t unlockedCycles = 0;
    std::uint64_t fallbackEntries = 0;
    std::uint64_t fallbackExits = 0;
    std::uint64_t fallbackWindows = 0;

    static Snapshot
    of(const sim::NetworkStats &s, double energy, double laser)
    {
        Snapshot snap;
        snap.packets = s.deliveredPackets();
        snap.flits = s.deliveredFlits();
        snap.bits = s.deliveredBits();
        snap.cpuPackets = s.cpuDeliveredPackets();
        snap.gpuPackets = s.gpuDeliveredPackets();
        snap.energyJ = energy;
        snap.laserJ = laser;
        snap.corrupted = s.corruptedPackets();
        snap.resDrops = s.reservationDrops();
        snap.retransmitted = s.retransmittedPackets();
        snap.timeouts = s.ackTimeouts();
        snap.dropped = s.droppedPackets();
        snap.unlockedCycles = s.thermalUnlockedCycles();
        snap.fallbackEntries = s.policyFallbackEntries();
        snap.fallbackExits = s.policyFallbackExits();
        snap.fallbackWindows = s.policyFallbackWindows();
        return snap;
    }
};

void
fillCommon(RunMetrics &m, const sim::NetworkStats &stats,
           const Snapshot &warm, Cycle measure_cycles,
           double cycle_seconds, double total_energy)
{
    m.cycles = measure_cycles;
    m.deliveredPackets = stats.deliveredPackets() - warm.packets;
    m.deliveredFlits = stats.deliveredFlits() - warm.flits;
    m.deliveredBits = stats.deliveredBits() - warm.bits;
    m.cpuPackets = stats.cpuDeliveredPackets() - warm.cpuPackets;
    m.gpuPackets = stats.gpuDeliveredPackets() - warm.gpuPackets;
    m.throughputFlitsPerCycle =
        measure_cycles ? static_cast<double>(m.deliveredFlits) /
                             static_cast<double>(measure_cycles)
                       : 0.0;
    m.throughputGbps = measure_cycles
                           ? static_cast<double>(m.deliveredBits) /
                                 (measure_cycles * cycle_seconds) * 1e-9
                           : 0.0;
    m.avgLatencyCycles = stats.avgLatency();
    m.cpuLatencyCycles = stats.avgLatency(sim::CoreType::CPU);
    m.gpuLatencyCycles = stats.avgLatency(sim::CoreType::GPU);
    m.totalEnergyJ = total_energy - warm.energyJ;
    m.energyPerBitPj =
        m.deliveredBits
            ? m.totalEnergyJ / static_cast<double>(m.deliveredBits) * 1e12
            : 0.0;
    m.corruptedPackets = stats.corruptedPackets() - warm.corrupted;
    m.reservationDrops = stats.reservationDrops() - warm.resDrops;
    m.retransmittedPackets =
        stats.retransmittedPackets() - warm.retransmitted;
    m.ackTimeouts = stats.ackTimeouts() - warm.timeouts;
    m.droppedPackets = stats.droppedPackets() - warm.dropped;
    m.thermalUnlockedCycles =
        stats.thermalUnlockedCycles() - warm.unlockedCycles;
    m.policyFallbackEntries =
        stats.policyFallbackEntries() - warm.fallbackEntries;
    m.policyFallbackExits =
        stats.policyFallbackExits() - warm.fallbackExits;
    m.policyFallbackWindows =
        stats.policyFallbackWindows() - warm.fallbackWindows;
}

/** Chip-wide MSHR-full waits per core type (cache.mshr_waits.*). */
void
publishCacheCounters(obs::MetricsRegistry &reg,
                     const core::HeteroSystem &system)
{
    const cache::ClusterStats s = system.aggregateClusterStats();
    reg.counter("cache.mshr_waits.cpu") +=
        s.mshrWaits[static_cast<int>(sim::CoreType::CPU)];
    reg.counter("cache.mshr_waits.gpu") +=
        s.mshrWaits[static_cast<int>(sim::CoreType::GPU)];
}

} // namespace

RunMetrics
runPearl(const traffic::BenchmarkPair &pair,
         const core::PearlConfig &net_cfg, const core::DbaConfig &dba,
         core::PowerPolicy &policy, const RunOptions &opts,
         const std::string &config_name)
{
    PhaseTimings timing;
    const Clock::time_point t_build = Clock::now();
    const photonic::PowerModel power;
    core::PearlNetwork net(net_cfg, power, dba, &policy);

    // Verification plane: audit every step in Debug builds or under
    // PEARL_VERIFY=1; Release runs keep a bare null-pointer test in the
    // cycle loop (see verify::runtimeChecksEnabled).
    verify::Invariants invariants;
    if (verify::runtimeChecksEnabled())
        net.setAuditor(&invariants);

    if (opts.tracer) {
        net.setTracer(opts.tracer);
        traceRunStart(opts, config_name, pair.label());
    }

    core::SystemConfig sys = opts.system;
    sys.seed = opts.seed;
    core::HeteroSystem system(
        net, pair, sys,
        [&net](int node) { return &net.telemetryOf(node); });
    timing.buildSeconds = secondsSince(t_build);

    const Clock::time_point t_warmup = Clock::now();
    system.run(opts.warmupCycles);
    const Snapshot warm =
        Snapshot::of(net.stats(), net.totalEnergyJ(), net.laserEnergyJ());
    timing.warmupSeconds = secondsSince(t_warmup);

    const Clock::time_point t_run = Clock::now();
    system.run(opts.measureCycles);
    timing.runSeconds = secondsSince(t_run);

    const Clock::time_point t_collect = Clock::now();
    RunMetrics m;
    m.configName = config_name;
    m.pairLabel = pair.label();
    fillCommon(m, net.stats(), warm, opts.measureCycles,
               net_cfg.cycleSeconds, net.totalEnergyJ());
    m.laserPowerW =
        (net.laserEnergyJ() - warm.laserJ) /
        (static_cast<double>(opts.measureCycles) * net_cfg.cycleSeconds);
    for (int s = 0; s < photonic::kNumWlStates; ++s) {
        m.residency[static_cast<std::size_t>(s)] =
            net.residency(photonic::stateFromIndex(s));
    }
    if (opts.registry) {
        net.stats().publishTo(*opts.registry);
        net.faults().publishTo(*opts.registry);
        publishCacheCounters(*opts.registry, system);
        // Per-router telemetry covers the final (possibly partial)
        // window — the window counters reset at every boundary.
        for (int r = 0; r < net.numNodes(); ++r)
            net.telemetryOf(r).publishTo(*opts.registry,
                                         "router" + std::to_string(r));
        opts.registry->gauge("power.laser_w") = m.laserPowerW;
        opts.registry->gauge("power.energy_per_bit_pj") =
            m.energyPerBitPj;
    }
    if (opts.tracer) {
        traceFaultSummary(opts, net.stats(), net.faults().bankFailures(),
                          net.faults().bankRepairs());
        timing.collectSeconds = secondsSince(t_collect);
        tracePhases(opts, timing);
        net.setTracer(nullptr); // the network outlives this scope's use
    } else {
        timing.collectSeconds = secondsSince(t_collect);
    }
    if (opts.phases)
        *opts.phases = timing;
    return m;
}

RunMetrics
runCmesh(const traffic::BenchmarkPair &pair,
         const electrical::CmeshConfig &net_cfg, const RunOptions &opts,
         const std::string &config_name)
{
    PhaseTimings timing;
    const Clock::time_point t_build = Clock::now();
    electrical::CmeshNetwork net(net_cfg);

    core::SystemConfig sys = opts.system;
    sys.seed = opts.seed;
    core::HeteroSystem system(net, pair, sys);
    if (opts.tracer)
        traceRunStart(opts, config_name, pair.label());
    timing.buildSeconds = secondsSince(t_build);

    const double dt = sys.arch.networkCycleSeconds();
    const Clock::time_point t_warmup = Clock::now();
    system.run(opts.warmupCycles);
    const Snapshot warm =
        Snapshot::of(net.stats(), net.totalEnergyJ(dt), 0.0);
    timing.warmupSeconds = secondsSince(t_warmup);

    const Clock::time_point t_run = Clock::now();
    system.run(opts.measureCycles);
    timing.runSeconds = secondsSince(t_run);

    const Clock::time_point t_collect = Clock::now();
    RunMetrics m;
    m.configName = config_name;
    m.pairLabel = pair.label();
    fillCommon(m, net.stats(), warm, opts.measureCycles, dt,
               net.totalEnergyJ(dt));
    if (opts.registry) {
        net.stats().publishTo(*opts.registry);
        publishCacheCounters(*opts.registry, system);
    }
    if (opts.tracer) {
        // The electrical mesh has no fault plane; the zero summary
        // still stamps the "fault" category into the trace.
        traceFaultSummary(opts, net.stats(), 0, 0);
        timing.collectSeconds = secondsSince(t_collect);
        tracePhases(opts, timing);
    } else {
        timing.collectSeconds = secondsSince(t_collect);
    }
    if (opts.phases)
        *opts.phases = timing;
    return m;
}

RunMetrics
average(const std::vector<RunMetrics> &runs, const std::string &label)
{
    PEARL_ASSERT(!runs.empty());
    RunMetrics avg;
    avg.configName = runs.front().configName;
    avg.pairLabel = label;
    const double n = static_cast<double>(runs.size());
    for (const RunMetrics &r : runs) {
        avg.cycles += r.cycles;
        avg.deliveredPackets += r.deliveredPackets;
        avg.deliveredFlits += r.deliveredFlits;
        avg.deliveredBits += r.deliveredBits;
        avg.cpuPackets += r.cpuPackets;
        avg.gpuPackets += r.gpuPackets;
        avg.throughputFlitsPerCycle += r.throughputFlitsPerCycle / n;
        avg.throughputGbps += r.throughputGbps / n;
        avg.avgLatencyCycles += r.avgLatencyCycles / n;
        avg.cpuLatencyCycles += r.cpuLatencyCycles / n;
        avg.gpuLatencyCycles += r.gpuLatencyCycles / n;
        avg.totalEnergyJ += r.totalEnergyJ;
        avg.energyPerBitPj += r.energyPerBitPj / n;
        avg.laserPowerW += r.laserPowerW / n;
        avg.corruptedPackets += r.corruptedPackets;
        avg.reservationDrops += r.reservationDrops;
        avg.retransmittedPackets += r.retransmittedPackets;
        avg.ackTimeouts += r.ackTimeouts;
        avg.droppedPackets += r.droppedPackets;
        avg.thermalUnlockedCycles += r.thermalUnlockedCycles;
        avg.policyFallbackEntries += r.policyFallbackEntries;
        avg.policyFallbackExits += r.policyFallbackExits;
        avg.policyFallbackWindows += r.policyFallbackWindows;
        for (std::size_t s = 0; s < avg.residency.size(); ++s)
            avg.residency[s] += r.residency[s] / n;
    }
    return avg;
}

} // namespace metrics
} // namespace pearl
