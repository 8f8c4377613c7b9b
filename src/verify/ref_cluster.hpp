/**
 * @file
 * A reference cluster node that polls a full MSHR table.
 *
 * RefCluster keeps cache::ClusterNode as it was before the MSHR wait
 * queue: an access that finds its type's MSHR table full is requeued
 * every 2 * l2AccessCycles until it gets an entry, with the version memo
 * that requeues without repeating the L2 lookup while the table is
 * unchanged.  Its events sit in an ordered std::set keyed by
 * (due, seq), not a sim::MinHeap, so a diff against it also shows that
 * the cluster's event order does not depend on heap shape.  It shares
 * only leaf components with the optimized node: CacheArray, AddrMap,
 * the NMOESI tables, the demand generators and ClusterStats.  It draws
 * each core's demand one cycle at a time (CoreDemandGenerator::draw),
 * reading phases the caller ticks every cycle, where the node scans
 * ahead on phases read through GlobalPhase::at().
 *
 * verify::runClusterDiff (verify/diff.hpp) steps a RefCluster and a
 * ClusterNode in lockstep against a seeded fake L3 and compares what
 * they emit and count every cycle.
 */

#ifndef PEARL_VERIFY_REF_CLUSTER_HPP
#define PEARL_VERIFY_REF_CLUSTER_HPP

#include <cstdint>
#include <set>
#include <vector>

#include "cache/addr_map.hpp"
#include "cache/cache_array.hpp"
#include "cache/cluster.hpp"
#include "cache/config.hpp"
#include "cache/home_map.hpp"
#include "common/rng.hpp"
#include "sim/packet.hpp"
#include "sim/sink.hpp"
#include "sim/telemetry.hpp"
#include "traffic/generator.hpp"

namespace pearl {
namespace verify {

/** The polling reference cluster (see file comment).  Its interface
 *  mirrors cache::ClusterNode's. */
class RefCluster
{
  public:
    /** @param cpu_phase / gpu_phase optional chip-wide phases, which
     *  the caller tick()s once before each tick(). */
    RefCluster(int id, const cache::HomeMap &home,
               const cache::HierarchyConfig &cfg,
               const traffic::BenchmarkProfile &cpu_prof,
               const traffic::BenchmarkProfile &gpu_prof, Rng rng,
               traffic::GlobalPhase *cpu_phase = nullptr,
               traffic::GlobalPhase *gpu_phase = nullptr);

    void
    attach(sim::PacketSink *sink, sim::RouterTelemetry *telemetry)
    {
        sink_ = sink;
        telemetry_ = telemetry;
    }

    void tick(sim::Cycle now);
    void deliver(const sim::Packet &pkt, sim::Cycle now);

    const cache::ClusterStats &stats() const { return stats_; }

    std::size_t
    mshrOccupancy(sim::CoreType t) const
    {
        return mshr_[static_cast<int>(t)].size();
    }

    bool
    quiescent() const
    {
        return events_.empty() && mshr_[0].empty() && mshr_[1].empty();
    }

  private:
    struct L2Meta
    {
        std::uint8_t l1Mask = 0;
    };

    using L1Array = cache::CacheArray<cache::NoMeta>;
    using L2Array = cache::CacheArray<L2Meta>;

    struct Waiter
    {
        int l1Index;
        int coreSlot;
        bool write;
        bool instr;
    };

    struct MshrEntry
    {
        bool write = false;
        bool nonCoherent = false;
        std::vector<Waiter> waiters;
    };

    struct LocalEvent
    {
        sim::Cycle due;
        std::uint64_t addr;
        std::uint64_t seq;
        /** The mshrVersion_ seen when a retry was queued. */
        std::uint32_t mshrVersion;
        sim::CoreType type;
        enum class Kind : std::uint8_t { L2Access, Fill } kind;
        int l1Index;
        int coreSlot;
        bool write;
        bool instr;
        bool isRetry;

        bool
        operator<(const LocalEvent &o) const
        {
            return due != o.due ? due < o.due : seq < o.seq;
        }
    };

    void coreAccess(sim::CoreType type, int core_slot,
                    const traffic::MemAccess &acc, sim::Cycle now);
    void l2Access(const LocalEvent &ev, sim::Cycle now);
    void completeFill(const LocalEvent &ev);
    void handleFillResponse(const sim::Packet &pkt, sim::Cycle now);
    void handleProbe(const sim::Packet &pkt, sim::Cycle now);
    void evictL2Victim(sim::CoreType type, L2Array::Line &victim,
                       sim::Cycle now);

    L1Array &l1Array(int l1_index);
    L2Array &l2Array(sim::CoreType t);
    int l1IndexFor(sim::CoreType t, int core_slot, bool instr) const;
    int mshrCapacity(sim::CoreType t) const;
    void sendNetwork(sim::MsgClass cls, sim::CoherenceOp op,
                     std::uint64_t addr, sim::NodeId dst, sim::Cycle now);
    void noteLocalRequest(sim::MsgClass cls);
    void noteLocalResponse(sim::MsgClass cls);

    int id_;
    cache::HomeMap home_;
    cache::HierarchyConfig cfg_;
    sim::PacketSink *sink_ = nullptr;
    sim::RouterTelemetry *telemetry_ = nullptr;

    std::vector<traffic::CoreDemandGenerator> cpuCores_;
    std::vector<traffic::CoreDemandGenerator> gpuCores_;
    std::vector<int> outstanding_[sim::kNumCoreTypes];

    std::vector<L1Array> l1s_;
    L2Array cpuL2_;
    L2Array gpuL2_;

    cache::AddrMap<MshrEntry> mshr_[sim::kNumCoreTypes];
    /** Bumped on every MSHR erase, the only event that can change a
     *  queued MSHR-full retry's outcome. */
    std::uint32_t mshrVersion_[sim::kNumCoreTypes] = {0, 0};

    std::set<LocalEvent> events_;
    std::uint64_t eventSeq_ = 0;

    cache::ClusterStats stats_;
    std::uint64_t packetSeq_ = 0;
};

} // namespace verify
} // namespace pearl

#endif // PEARL_VERIFY_REF_CLUSTER_HPP
