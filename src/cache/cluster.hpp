/**
 * @file
 * The cluster node: 2 CPU cores + 4 GPU compute units, their private L1s,
 * the per-type shared L2s, MSHRs and the local router-side traffic.
 *
 * A cluster is the unit the PEARL checkerboard attaches to one router
 * (Figure 1b).  Core demand comes from traffic::CoreDemandGenerator;
 * memory accesses flow L1 -> L2 -> (network) -> L3.  Local L1<->L2 packets
 * cross only the router crossbar and are recorded in the router telemetry
 * (they are features of the ML model) without occupying the optical link.
 */

#ifndef PEARL_CACHE_CLUSTER_HPP
#define PEARL_CACHE_CLUSTER_HPP

#include <cstdint>
#include <vector>

#include "cache/addr_map.hpp"
#include "cache/cache_array.hpp"
#include "cache/config.hpp"
#include "cache/home_map.hpp"
#include "cache/nmoesi.hpp"
#include "common/rng.hpp"
#include "sim/min_heap.hpp"
#include "sim/packet.hpp"
#include "sim/sink.hpp"
#include "sim/telemetry.hpp"
#include "traffic/generator.hpp"

namespace pearl {
namespace cache {

/** Aggregate hit/miss statistics for one cluster. */
struct ClusterStats
{
    std::uint64_t accesses[sim::kNumCoreTypes] = {};
    std::uint64_t stalled[sim::kNumCoreTypes] = {};
    std::uint64_t l1Hits[sim::kNumCoreTypes] = {};
    std::uint64_t l1Misses[sim::kNumCoreTypes] = {};
    std::uint64_t l2Hits[sim::kNumCoreTypes] = {};
    std::uint64_t l2Misses[sim::kNumCoreTypes] = {};
    std::uint64_t writebacks[sim::kNumCoreTypes] = {};
    std::uint64_t probesReceived = 0;

    double
    l1MissRate(sim::CoreType t) const
    {
        const auto i = static_cast<int>(t);
        const auto total = l1Hits[i] + l1Misses[i];
        return total ? static_cast<double>(l1Misses[i]) /
                           static_cast<double>(total)
                     : 0.0;
    }

    double
    l2MissRate(sim::CoreType t) const
    {
        const auto i = static_cast<int>(t);
        const auto total = l2Hits[i] + l2Misses[i];
        return total ? static_cast<double>(l2Misses[i]) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** One CPU+GPU cluster with its cache hierarchy. */
class ClusterNode
{
  public:
    /**
     * @param id       cluster id == network node id of its router.
     * @param home     address-to-L3-bank mapping.
     * @param cfg      hierarchy configuration.
     * @param cpu_prof benchmark profile for the CPU cores.
     * @param gpu_prof benchmark profile for the GPU compute units.
     * @param rng      forked stream owned by this cluster.
     * @param cpu_phase / gpu_phase optional chip-wide program phases.
     */
    ClusterNode(int id, const HomeMap &home, const HierarchyConfig &cfg,
                const traffic::BenchmarkProfile &cpu_prof,
                const traffic::BenchmarkProfile &gpu_prof, Rng rng,
                const traffic::GlobalPhase *cpu_phase = nullptr,
                const traffic::GlobalPhase *gpu_phase = nullptr);

    /** Wire the packet sink (network) and telemetry before running. */
    void
    attach(sim::PacketSink *sink, sim::RouterTelemetry *telemetry)
    {
        sink_ = sink;
        telemetry_ = telemetry;
    }

    /** Advance one network cycle: demand generation + due local events. */
    void tick(sim::Cycle now);

    /** Handle a packet the network delivered to this cluster's router. */
    void deliver(const sim::Packet &pkt, sim::Cycle now);

    int id() const { return id_; }
    const ClusterStats &stats() const { return stats_; }

    /** Outstanding MSHR entries for one core type (tests). */
    std::size_t
    mshrOccupancy(sim::CoreType t) const
    {
        return mshr_[static_cast<int>(t)].size();
    }

    /** True when no local event or outstanding miss is pending. */
    bool
    quiescent() const
    {
        return events_.empty() && mshr_[0].empty() && mshr_[1].empty();
    }

  private:
    struct L2Meta
    {
        std::uint8_t l1Mask = 0; //!< which local L1s hold this line
    };

    using L1Array = CacheArray<NoMeta>;
    using L2Array = CacheArray<L2Meta>;

    /** A core request waiting on an outstanding miss. */
    struct Waiter
    {
        int l1Index;    //!< local L1 slot (see l1ArrayFor)
        int coreSlot;   //!< per-type core index for outstanding accounting
        bool write;
        bool instr;
    };

    /** One outstanding L2 miss. */
    struct MshrEntry
    {
        bool write = false;
        bool nonCoherent = false;
        std::vector<Waiter> waiters;
    };

    /** Deferred local work (L1->L2 hop, L2 array access, fills).
     *  Deliberately packed to 32 bytes: the event heap is churned every
     *  cycle (MSHR-full retries circulate through it), and sift cost is
     *  proportional to element size.  The comparator is unchanged, so
     *  heap order — and therefore behaviour — is unaffected. */
    struct LocalEvent
    {
        sim::Cycle due;
        std::uint64_t addr;
        /** MSHR-full retry memoization (see tick()): the mshrVersion_
         *  observed when the retry was queued.  Ignored unless
         *  isRetry. */
        std::uint32_t mshrVersion;
        sim::CoreType type;
        enum class Kind : std::uint8_t { L2Access, Fill } kind;
        std::int8_t l1Index;
        std::int8_t coreSlot;
        bool write;
        bool instr;
        bool isRetry;

        bool
        operator>(const LocalEvent &o) const
        {
            return due > o.due;
        }
    };
    static_assert(sizeof(LocalEvent) <= 32,
                  "LocalEvent grew; the event heap is hot");

    // Demand + L1 ----------------------------------------------------------
    void coreAccess(sim::CoreType type, int core_slot,
                    const traffic::MemAccess &acc, sim::Cycle now);
    void l2Access(const LocalEvent &ev, sim::Cycle now);
    void completeFill(const LocalEvent &ev, sim::Cycle now);

    // Coherence ------------------------------------------------------------
    void handleFillResponse(const sim::Packet &pkt, sim::Cycle now);
    void handleProbe(const sim::Packet &pkt, sim::Cycle now);
    void evictL2Victim(sim::CoreType type, L2Array::Line &victim,
                       sim::Cycle now);

    // Helpers ----------------------------------------------------------
    L1Array &l1Array(int l1_index);
    L2Array &l2Array(sim::CoreType t);
    int l1IndexFor(sim::CoreType t, int core_slot, bool instr) const;
    bool isSharedAddr(std::uint64_t line_addr) const;
    void sendNetwork(sim::MsgClass cls, sim::CoherenceOp op,
                     std::uint64_t addr, sim::NodeId dst, sim::Cycle now);
    void noteLocalRequest(sim::MsgClass cls);
    void noteLocalResponse(sim::MsgClass cls);
    std::uint64_t nextPacketId();

    int id_;
    HomeMap home_;
    HierarchyConfig cfg_;
    sim::PacketSink *sink_ = nullptr;
    sim::RouterTelemetry *telemetry_ = nullptr;

    std::vector<traffic::CoreDemandGenerator> cpuCores_;
    std::vector<traffic::CoreDemandGenerator> gpuCores_;
    std::vector<int> outstanding_[sim::kNumCoreTypes];

    // L1 layout: [0..1] CPU L1I, [2..3] CPU L1D, [4..7] GPU L1.
    std::vector<L1Array> l1s_;
    L2Array cpuL2_;
    L2Array gpuL2_;

    AddrMap<MshrEntry> mshr_[sim::kNumCoreTypes];

    /**
     * Per-type MSHR generation counter, bumped whenever an MSHR entry is
     * erased — the only event that can change a queued MSHR-full retry's
     * outcome.  A retry exists only because the table was full; while it
     * stays full no insert can execute, so capacity can't free and no
     * same-address entry can appear without an erase first (fills erase
     * before they install, so every L2 install bumps too).  A retry
     * event whose stamp still matches is requeued in O(1) without
     * re-running the L2 lookup: provably the same behaviour, since the
     * full-MSHR path touches no stats and probes can only downgrade line
     * states (they never turn a queued retry's miss into a hit).
     */
    std::uint32_t mshrVersion_[sim::kNumCoreTypes] = {0, 0};

    sim::MinHeap<LocalEvent> events_;

    ClusterStats stats_;
    std::uint64_t packetSeq_ = 0;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_CLUSTER_HPP
