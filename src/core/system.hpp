/**
 * @file
 * The heterogeneous system driver.
 *
 * Wires 16 ClusterNodes (2 CPU + 4 GPU cores each, running one benchmark
 * pair), the 16 L3 bank slices co-located with the cluster routers, and
 * the memory-controller node to any sim::Network implementation — the
 * PEARL photonic crossbar or the electrical CMESH — and runs the cycle
 * loop: core demand -> caches -> per-node outboxes -> network injection
 * -> delivery -> cache/bank/memory handlers.  Packets whose source and
 * destination share a router (a cluster talking to its own L3 bank) are
 * short-circuited through the local crossbar with a fixed latency instead
 * of touching the optical link.
 */

#ifndef PEARL_CORE_SYSTEM_HPP
#define PEARL_CORE_SYSTEM_HPP

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/cluster.hpp"
#include "cache/l3.hpp"
#include "cache/memory.hpp"
#include "core/arch_config.hpp"
#include "sim/min_heap.hpp"
#include "sim/network.hpp"
#include "sim/sink.hpp"
#include "traffic/suite.hpp"

namespace pearl {

namespace sim {
class WorkerPool;
} // namespace sim

namespace core {

/** System-level configuration. */
struct SystemConfig
{
    cache::HierarchyConfig hierarchy;
    ArchSpec arch;
    cache::HomeMap home;          //!< 16 banks, memory at node 16
    /** Cluster count; 0 = auto (one cluster per L3 bank, the legacy
     *  coupling).  Set explicitly (via core::makeSystemConfig) to run
     *  fewer banks than clusters. */
    int clusters = 0;
    std::uint64_t seed = 1;
    std::uint64_t localHopCycles = 4; //!< same-router crossbar round
    double memResponsesPerCycle = 1.6; //!< aggregate MC bandwidth
};

/** Looks up the telemetry block of a node, or nullptr if none. */
using TelemetryLookup = std::function<sim::RouterTelemetry *(int)>;

/** The full chip: clusters + L3 banks + memory + network. */
class HeteroSystem : public sim::PacketSink
{
  public:
    /**
     * @param network   the interconnect under test (not owned), not
     *                  yet stepped.
     * @param pair      CPU benchmark + GPU benchmark to run.
     * @param cfg       system configuration.
     * @param telemetry optional per-node telemetry lookup (PEARL only).
     */
    HeteroSystem(sim::Network &network, const traffic::BenchmarkPair &pair,
                 const SystemConfig &cfg = SystemConfig{},
                 TelemetryLookup telemetry = nullptr);

    /** Run `cycles` network cycles. */
    void run(sim::Cycle cycles);

    // sim::PacketSink ----------------------------------------------------
    void send(sim::Packet &&pkt) override;

    /** Kept only so pearlbench builds; every run steps on one thread. */
    void setWorkerPool(sim::WorkerPool *) {}

    // Introspection ---------------------------------------------------
    sim::Network &network() { return network_; }
    const cache::ClusterNode &cluster(int i) const { return *clusters_[i]; }
    const cache::L3Bank &bank(int i) const { return *banks_[i]; }
    const cache::MemoryNode &memory() const { return *memory_; }
    std::size_t outboxDepth(int node) const { return outbox_[node].size(); }

    /** Aggregate cluster statistics over the whole chip. */
    cache::ClusterStats aggregateClusterStats() const;

    /** Aggregate L3 statistics over all banks. */
    cache::L3Stats aggregateL3Stats() const;

  private:
    /** A same-router packet on the local crossbar.  Pops in (due, seq)
     *  order; seq is taken when the packet is sent. */
    struct LocalHop
    {
        sim::Cycle due;
        std::uint64_t seq;
        sim::Packet pkt;

        bool
        operator>(const LocalHop &o) const
        {
            return due != o.due ? due > o.due : seq > o.seq;
        }
    };

    void stepOnce();
    void dispatch(const sim::Packet &pkt, sim::Cycle now);

    sim::Network &network_;
    SystemConfig cfg_;
    TelemetryLookup telemetry_;
    std::unique_ptr<traffic::GlobalPhase> cpuPhase_;
    std::unique_ptr<traffic::GlobalPhase> gpuPhase_;
    std::vector<std::unique_ptr<cache::ClusterNode>> clusters_;
    std::vector<std::unique_ptr<cache::L3Bank>> banks_;
    std::unique_ptr<cache::MemoryNode> memory_;
    std::vector<std::deque<sim::Packet>> outbox_;
    sim::MinHeap<LocalHop> localHops_;
    std::uint64_t localHopSeq_ = 0; //!< last seq handed to a LocalHop
};

} // namespace core
} // namespace pearl

#endif // PEARL_CORE_SYSTEM_HPP
