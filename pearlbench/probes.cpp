#include "probes.hpp"

#include <algorithm>

#include "core/network.hpp"
#include "electrical/cmesh.hpp"
#include "photonic/power_model.hpp"
#include "sim/worker_pool.hpp"

namespace pearlbench {

using namespace pearl;

namespace {

std::uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

/** Warmup-boundary counters; the same fields metrics::runPearl()
 *  snapshots, so the measured-window arithmetic matches it exactly. */
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
fillCommon(metrics::RunMetrics &m, const sim::NetworkStats &stats,
           const Snapshot &warm, sim::Cycle measure_cycles,
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

/** Outboxes HeteroSystem allocates for `sys`: one per cluster + MC. */
int
outboxCount(const core::SystemConfig &sys)
{
    return (sys.clusters > 0 ? sys.clusters : sys.home.numBanks) + 1;
}

/** Lease step lanes the way runPearl()/runCmesh() do and install them. */
template <typename Net>
sim::PoolLease
installLanes(const metrics::RunOptions &opts, Net &net,
             core::HeteroSystem &system)
{
    sim::PoolLease lease;
    sim::WorkerPool *pool = opts.pool;
    if (!pool) {
        lease = sim::ExecutionEngine::instance().lease(
            sim::resolveStepThreads(opts.stepThreads));
        pool = lease.pool();
    }
    if (pool && pool->lanes() > 1) {
        net.setWorkerPool(pool);
        system.setWorkerPool(pool);
    }
    return lease;
}

/** Run warmup + measure through the system, timing the whole loop. */
template <typename SnapFn>
Snapshot
runTimed(core::HeteroSystem &system, const metrics::RunOptions &opts,
         LayerTotals &totals, SnapFn snapshot)
{
    const Clock::time_point start = Clock::now();
    system.run(opts.warmupCycles);
    const Snapshot warm = snapshot();
    system.run(opts.measureCycles);
    totals.runS += secondsSince(start);
    return warm;
}

void
readNodeStats(const core::HeteroSystem &system, LayerTotals &run)
{
    run.cluster = system.aggregateClusterStats();
    run.l3 = system.aggregateL3Stats();
    run.memoryBusyStallCycles = system.memory().stats().busyStallCycles;
}

} // namespace

void
LayerTotals::merge(const LayerTotals &o)
{
    runS += o.runS;
    stepS += o.stepS;
    injectS += o.injectS;
    probeS += o.probeS;
    steps += o.steps;
    idleSteps += o.idleSteps;
    injectCalls += o.injectCalls;
    injectRefused += o.injectRefused;
    outboxMax = std::max(outboxMax, o.outboxMax);
    outboxSum += o.outboxSum;
    expressAcquired += o.expressAcquired;
    expressStallCycles += o.expressStallCycles;
    for (int t = 0; t < sim::kNumCoreTypes; ++t) {
        cluster.accesses[t] += o.cluster.accesses[t];
        cluster.stalled[t] += o.cluster.stalled[t];
        cluster.l1Hits[t] += o.cluster.l1Hits[t];
        cluster.l1Misses[t] += o.cluster.l1Misses[t];
        cluster.l2Hits[t] += o.cluster.l2Hits[t];
        cluster.l2Misses[t] += o.cluster.l2Misses[t];
        cluster.writebacks[t] += o.cluster.writebacks[t];
    }
    cluster.probesReceived += o.cluster.probesReceived;
    l3 += o.l3;
    memoryBusyStallCycles += o.memoryBusyStallCycles;
}

photonic::WlState
TimedPolicy::nextState(const core::WindowObservation &obs)
{
    const Clock::time_point start = Clock::now();
    const photonic::WlState next = inner_->nextState(obs);
    counters_.hostNs.fetch_add(nsSince(start), std::memory_order_relaxed);
    counters_.decisions.fetch_add(1, std::memory_order_relaxed);
    if (next != obs.currentState)
        counters_.stateChanges.fetch_add(1, std::memory_order_relaxed);
    return next;
}

bool
TimedNetwork::inject(const sim::Packet &pkt)
{
    const Clock::time_point start = Clock::now();
    const bool accepted = inner_.inject(pkt);
    totals_.injectS += secondsSince(start);
    ++totals_.injectCalls;
    if (!accepted)
        ++totals_.injectRefused;
    return accepted;
}

void
TimedNetwork::step()
{
    // Probe work (backlog sampling, the idle test) is timed on its own
    // so the node-model share can exclude it.
    const Clock::time_point probe = Clock::now();
    if (system_) {
        std::uint64_t backlog = 0;
        for (int n = 0; n < outboxes_; ++n)
            backlog += system_->outboxDepth(n);
        totals_.outboxMax = std::max(totals_.outboxMax, backlog);
        totals_.outboxSum += static_cast<double>(backlog);
    }
    if (inner_.idle())
        ++totals_.idleSteps;
    const Clock::time_point start = Clock::now();
    totals_.probeS +=
        std::chrono::duration<double>(start - probe).count();
    inner_.step();
    totals_.stepS += secondsSince(start);
    ++totals_.steps;
}

metrics::RunMetrics
tracedPearlRun(const traffic::BenchmarkPair &pair,
               const core::PearlConfig &net_cfg, const core::DbaConfig &dba,
               core::PowerPolicy &policy, const metrics::RunOptions &opts,
               const std::string &config_name, LayerTotals &totals)
{
    LayerTotals run;
    const photonic::PowerModel power;
    core::PearlNetwork net(net_cfg, power, dba, &policy);
    TimedNetwork probe(net, run);

    core::SystemConfig sys = opts.system;
    sys.seed = opts.seed;
    core::HeteroSystem system(
        probe, pair, sys,
        [&net](int node) { return &net.telemetryOf(node); });
    probe.watchOutboxes(&system, outboxCount(sys));
    const sim::PoolLease lease = installLanes(opts, net, system);

    const Snapshot warm = runTimed(system, opts, run, [&net] {
        return Snapshot::of(net.stats(), net.totalEnergyJ(),
                            net.laserEnergyJ());
    });

    metrics::RunMetrics m;
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
    run.expressAcquired = net.expressAcquired();
    run.expressStallCycles = net.expressStallCycles();
    readNodeStats(system, run);
    totals.merge(run);
    return m;
}

metrics::RunMetrics
tracedCmeshRun(const traffic::BenchmarkPair &pair,
               const electrical::CmeshConfig &net_cfg,
               const metrics::RunOptions &opts,
               const std::string &config_name, LayerTotals &totals)
{
    LayerTotals run;
    electrical::CmeshNetwork net(net_cfg);
    TimedNetwork probe(net, run);

    core::SystemConfig sys = opts.system;
    sys.seed = opts.seed;
    core::HeteroSystem system(probe, pair, sys);
    probe.watchOutboxes(&system, outboxCount(sys));
    const sim::PoolLease lease = installLanes(opts, net, system);

    const double dt = sys.arch.networkCycleSeconds();
    const Snapshot warm = runTimed(system, opts, run, [&net, dt] {
        return Snapshot::of(net.stats(), net.totalEnergyJ(dt), 0.0);
    });

    metrics::RunMetrics m;
    m.configName = config_name;
    m.pairLabel = pair.label();
    fillCommon(m, net.stats(), warm, opts.measureCycles, dt,
               net.totalEnergyJ(dt));
    readNodeStats(system, run);
    totals.merge(run);
    return m;
}

double
constructPearl(const traffic::BenchmarkPair &pair,
               const core::PearlConfig &net_cfg, const core::DbaConfig &dba,
               core::PowerPolicy &policy, const metrics::RunOptions &opts)
{
    const Clock::time_point start = Clock::now();
    const photonic::PowerModel power;
    core::PearlNetwork net(net_cfg, power, dba, &policy);
    core::SystemConfig sys = opts.system;
    sys.seed = opts.seed;
    const core::HeteroSystem system(
        net, pair, sys, [&net](int node) { return &net.telemetryOf(node); });
    return secondsSince(start);
}

double
constructCmesh(const traffic::BenchmarkPair &pair,
               const electrical::CmeshConfig &net_cfg,
               const metrics::RunOptions &opts)
{
    const Clock::time_point start = Clock::now();
    electrical::CmeshNetwork net(net_cfg);
    core::SystemConfig sys = opts.system;
    sys.seed = opts.seed;
    const core::HeteroSystem system(net, pair, sys);
    return secondsSince(start);
}

int
WarnTap::overflow(int ch)
{
    if (ch != traits_type::eof()) {
        const char c = static_cast<char>(ch);
        append(&c, 1);
    }
    return ch;
}

std::streamsize
WarnTap::xsputn(const char *s, std::streamsize n)
{
    append(s, n);
    return n;
}

void
WarnTap::append(const char *s, std::streamsize n)
{
    thread_local std::string line;
    for (std::streamsize i = 0; i < n; ++i) {
        line.push_back(s[i]);
        if (s[i] != '\n')
            continue;
        if (line.rfind("warn: ", 0) == 0 &&
            (line.find("L3 bank") != std::string::npos ||
             line.find("cluster ") != std::string::npos))
            protocolWarnings_.fetch_add(1, std::memory_order_relaxed);
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            sink_ << line << std::flush;
        }
        line.clear();
    }
}

} // namespace pearlbench
