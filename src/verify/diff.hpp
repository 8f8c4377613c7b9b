/**
 * @file
 * Differential driver: optimized PearlNetwork vs naive RefNetwork.
 *
 * runDiff builds both simulators from the same config, offers them the
 * same seeded traffic, steps them in lockstep, and after every cycle
 * compares all externally visible state: injection acceptance,
 * delivered packets field by field, cumulative NetworkStats (latency
 * mean compared bit for bit), per-router laser state / switch counts /
 * fault caps / buffer occupancies, every RouterTelemetry field the
 * reference models and betaTotalMean() (doubles bit for bit), idleness,
 * and the three energy integrals compared bit for bit.  The optimized
 * side also carries the runtime invariant checker, so a conservation or
 * legality violation surfaces through the same DiffResult as a
 * divergence.
 *
 * runCmeshDiff does the same for the electrical baseline: the optimized
 * electrical::CmeshNetwork against the naive verify::RefCmesh.
 *
 * runClusterDiff covers the cache side: cache::ClusterNode, whose
 * MSHR-full accesses wait on a queue and whose cores are scanned ahead
 * to their next issue, against verify::RefCluster, which polls and
 * draws every core every cycle, both answered by one seeded fake L3.
 */

#ifndef PEARL_VERIFY_DIFF_HPP
#define PEARL_VERIFY_DIFF_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/config.hpp"
#include "common/rng.hpp"
#include "core/arch_config.hpp"
#include "core/dba.hpp"
#include "core/power_policy.hpp"
#include "electrical/cmesh.hpp"
#include "sim/packet.hpp"
#include "traffic/profile.hpp"

namespace pearl {
namespace verify {

/**
 * Deterministic open-loop traffic source shared by both simulators.
 * Each cycle every router flips a weighted coin per core type; accepted
 * flips become single packets to a uniformly random other node, split
 * evenly between 1-flit requests and 5-flit responses.
 */
class TrafficGen
{
  public:
    TrafficGen(std::uint64_t seed, double cpu_rate, double gpu_rate,
               int num_nodes)
        : rng_(seed), cpuRate_(cpu_rate), gpuRate_(gpu_rate),
          numNodes_(num_nodes)
    {}

    /** Injection attempts for one cycle (may be empty). */
    std::vector<sim::Packet> cycleTraffic(sim::Cycle now);

  private:
    Rng rng_;
    double cpuRate_;
    double gpuRate_;
    int numNodes_;
    std::uint64_t nextId_ = 1;
};

/** One differential run: a config, a traffic pattern, and a policy
 *  factory invoked once per simulator so each side owns stateful
 *  policies (guardrails) independently. */
struct DiffCase
{
    core::PearlConfig cfg;
    core::DbaConfig dba;
    std::uint64_t cycles = 500;
    std::uint64_t trafficSeed = 1;
    double cpuRate = 0.05;
    double gpuRate = 0.05;
    std::function<std::unique_ptr<core::PowerPolicy>()> makePolicy;
    /** Install the runtime invariant checker on the optimized side. */
    bool checkInvariants = true;
};

/** Outcome of a differential run. */
struct DiffResult
{
    bool diverged = false;
    sim::Cycle cycle = 0;      //!< first divergent cycle when diverged
    std::string description;   //!< what differed, both values
    std::uint64_t injectedPackets = 0;
    std::uint64_t deliveredPackets = 0;
    std::uint64_t rxRetries = 0; //!< arrivals bounced off full rx buffers
    /** Cluster diffs: accesses that waited on a full MSHR table. */
    std::uint64_t mshrWaits = 0;
    bool ok() const { return !diverged; }
};

/** Run the two simulators in lockstep (see file comment). */
DiffResult runDiff(const DiffCase &c);

/** One CMESH differential run: a mesh config and a traffic pattern. */
struct CmeshDiffCase
{
    electrical::CmeshConfig cfg;
    std::uint64_t cycles = 500;
    std::uint64_t trafficSeed = 1;
    double cpuRate = 0.05;
    double gpuRate = 0.05;
    /** When >= 0, every other endpoint sends all its packets to this
     *  one; -1 keeps TrafficGen's uniform destinations. */
    int hotspot = -1;
};

/**
 * Step an electrical::CmeshNetwork and a verify::RefCmesh in lockstep on
 * the same traffic.  Every cycle compares injection acceptance, the
 * delivered packets in order field by field, the cumulative stats, the
 * dynamic energy integral bit for bit, flitsInFlight(), idleness, and on
 * both sides the ledger identity flitsInFlight() == countBufferedFlits().
 */
DiffResult runCmeshDiff(const CmeshDiffCase &c);

/** One cluster differential run: a hierarchy, the two demand profiles
 *  and the fake L3's behaviour. */
struct ClusterDiffCase
{
    cache::HierarchyConfig cfg;
    traffic::BenchmarkProfile cpu;
    traffic::BenchmarkProfile gpu;
    std::uint64_t cycles = 2000;
    std::uint64_t seed = 1;   //!< the cluster's demand streams
    std::uint64_t l3Seed = 1; //!< the fake L3's latencies and probes
    /** Fake L3 read latency, uniform in [minLatency, maxLatency]. */
    sim::Cycle minLatency = 1;
    sim::Cycle maxLatency = 40;
    double exclusiveRate = 0.5; //!< plain reads granted exclusive
    double probeRate = 0.05;    //!< per-cycle chance of a probe
    double preTickRate = 0.3;   //!< answers delivered before the tick
    /** Drive both nodes' cores with chip-wide phases built from the
     *  same seeds, as HeteroSystem does, instead of private burst
     *  chains: the reference's phases are ticked every cycle, the
     *  node's are read ahead. */
    bool sharedPhases = false;
};

/**
 * A seeded cluster fuzz case: 1-2 MSHR entries per core type, a tiny L2,
 * a long l2AccessCycles, a few outstanding accesses per core, tiny
 * working and shared sets, and a fake L3 that may answer faster than
 * the 2 * l2AccessCycles MSHR poll period.
 */
ClusterDiffCase makeClusterFuzzCase(std::uint64_t seed);

/**
 * Step a cache::ClusterNode and a verify::RefCluster in lockstep.  A
 * seeded fake L3 answers each read after a random latency (a store
 * miss always exclusively, a plain read exclusively at exclusiveRate),
 * sends share and invalidate probes for lines it granted, and absorbs
 * writebacks and probe replies.  Each answer is delivered before or
 * after the tick of its cycle.  After each delivery phase and each tick
 * it compares the packets both nodes emitted, field by field,
 * their ClusterStats, local telemetry counters, mshrOccupancy() per
 * core type and quiescent().
 */
DiffResult runClusterDiff(const ClusterDiffCase &c);

} // namespace verify
} // namespace pearl

#endif // PEARL_VERIFY_DIFF_HPP
