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
 *
 * Each core's issue cycles are fixed by its own stream and the chip-wide
 * phase, so the node scans each core ahead to its next issue and a tick
 * works only when a core issues or a local event is due (see tick()).
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
#include "common/log.hpp"
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
    /** L2 accesses that found their type's MSHR table full and waited
     *  for an entry (each access counts once per wait). */
    std::uint64_t mshrWaits[sim::kNumCoreTypes] = {};
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
     * @param cpu_phase / gpu_phase optional chip-wide program phases,
     *                 read ahead through GlobalPhase::at() with cycles
     *                 keyed on the `now` the ticks pass.
     */
    ClusterNode(int id, const HomeMap &home, const HierarchyConfig &cfg,
                const traffic::BenchmarkProfile &cpu_prof,
                const traffic::BenchmarkProfile &gpu_prof, Rng rng,
                traffic::GlobalPhase *cpu_phase = nullptr,
                traffic::GlobalPhase *gpu_phase = nullptr);

    /** Wire the packet sink (network) and telemetry before running. */
    void
    attach(sim::PacketSink *sink, sim::RouterTelemetry *telemetry)
    {
        sink_ = sink;
        telemetry_ = telemetry;
    }

    /**
     * Advance one network cycle: demand generation + due local events.
     * Call it every cycle, in order: waiting accesses poll at slots
     * counted from the cycle they started waiting, so nextPoll() reads
     * the loop position even an idle tick records.  Most ticks find no
     * core issuing (no scan stops at `now`) and no event due, and do
     * only that.
     */
    void
    tick(sim::Cycle now)
    {
        PEARL_ASSERT(now == posCycle_ + 1 || !scanned_,
                     "ClusterNode::tick skipped or repeated a cycle");
        if (now < wake_ && (events_.empty() || events_.top().due > now)) {
            posCycle_ = now;
            posSeq_ = kDrained;
            return;
        }
        tickActive(now);
    }

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

    /** True when no local event, waiting access or outstanding miss is
     *  pending. */
    bool
    quiescent() const
    {
        return events_.empty() && parked_[0].empty() &&
               parked_[1].empty() && mshr_[0].empty() && mshr_[1].empty();
    }

    /** Feed one access as if core `core_slot` of `type` had issued it
     *  at `now` (tests: scripted access sequences). */
    void
    issue(sim::CoreType type, int core_slot, const traffic::MemAccess &acc,
          sim::Cycle now)
    {
        coreAccess(type, core_slot, acc, now);
    }

  private:
    struct L2Meta
    {
        std::uint8_t l1Mask = 0; //!< which local L1s hold this line
    };

    using L1Array = CacheArray<NoMeta>;
    using L2Array = CacheArray<L2Meta>;
    static_assert(sizeof(L1Array::Line) == 24 && sizeof(L2Array::Line) == 24,
                  "L1/L2 lines grew; bytes per line are bytes per miss");

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
     *  Events pop in (due, seq) order: seq is taken from eventSeq_ when
     *  the access or fill event is created, and an access that waits on
     *  a full MSHR table keeps its seq, so equal-due events pop in
     *  creation order whatever the heap's shape.  Kept to 32 bytes: sift
     *  cost is proportional to element size. */
    struct LocalEvent
    {
        sim::Cycle due;
        std::uint64_t addr;
        std::uint64_t seq;
        sim::CoreType type;
        enum class Kind : std::uint8_t { L2Access, Fill } kind;
        std::int8_t l1Index;
        std::int8_t coreSlot;
        bool write;
        bool instr;
        /** An L2Access back from the wait queue (see l2Access). */
        bool woken;

        bool
        operator>(const LocalEvent &o) const
        {
            return due != o.due ? due > o.due : seq > o.seq;
        }
    };
    static_assert(sizeof(LocalEvent) <= 32,
                  "LocalEvent grew; the event heap is hot");

    // Demand + L1 ----------------------------------------------------------
    void tickActive(sim::Cycle now);
    void coreAccess(sim::CoreType type, int core_slot,
                    const traffic::MemAccess &acc, sim::Cycle now);
    void l2Access(const LocalEvent &ev, sim::Cycle now);
    void completeFill(const LocalEvent &ev, sim::Cycle now);

    // MSHR wait queue ------------------------------------------------------
    sim::Cycle pollPeriod() const { return 2 * cfg_.l2AccessCycles; }
    int mshrCapacity(sim::CoreType t) const;
    void park(LocalEvent ev, sim::Cycle now);
    sim::Cycle nextPoll(const LocalEvent &parked) const;
    void wakeNext(int ti);
    void wakeAddr(int ti, std::uint64_t addr);
    void unpark(int ti, std::size_t i, sim::Cycle slot);

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

    /** Demand generators: the CPU cores, then the GPU CUs. */
    std::vector<traffic::CoreDemandGenerator> cores_;
    /** Each core's last scan stop.  A core draws nothing the node acts
     *  on before its stop: the stop is its next issue, or the end of a
     *  scan horizon, where it scans on. */
    std::vector<traffic::CoreDemandGenerator::Stop> stops_;
    /** The earliest stop; ticks before it run no core. */
    sim::Cycle wake_ = 0;
    /** The first tick has scanned every core.  Scans start there, so a
     *  node that is built but never ticked takes no draw. */
    bool scanned_ = false;
    std::vector<int> outstanding_[sim::kNumCoreTypes];

    // L1 layout: [0..1] CPU L1I, [2..3] CPU L1D, [4..7] GPU L1.
    std::vector<L1Array> l1s_;
    L2Array cpuL2_;
    L2Array gpuL2_;

    AddrMap<MshrEntry> mshr_[sim::kNumCoreTypes];

    /**
     * MSHR wait queue, per core type.  An access that finds its type's
     * table full (and no entry for its address) parks here instead of
     * polling the table every pollPeriod(): it keeps its LocalEvent,
     * with `due` set to its first poll slot, and is woken back into
     * events_ at its next poll slot only when that poll could succeed.
     * The result is the same as polling, event for event (see DESIGN.md,
     * "Event order"):
     *  - an erase wakes the parked access with the earliest
     *    (next poll slot, seq), so woken accesses ahead of every parked
     *    one never fall short of the free entries;
     *  - a woken access that hits or attaches instead of allocating
     *    wakes the next one while entries are free;
     *  - inserting an address wakes that address's parked accesses;
     *  - a woken access that finds the table full again (and no entry
     *    for its address) parks again, as polling would requeue it.
     * Parked accesses are virtual polls, so quiescent() counts them.
     */
    std::vector<LocalEvent> parked_[sim::kNumCoreTypes];

    sim::MinHeap<LocalEvent> events_;
    std::uint64_t eventSeq_ = 0; //!< last seq handed to a LocalEvent
    /** The event loop's position: the cycle of the last tick() and the
     *  seq of the event it is processing; kDrained once it has drained
     *  that cycle.  nextPoll() reads it so that a parked access whose
     *  slot is this cycle still polls now if its seq comes later. */
    sim::Cycle posCycle_ = 0;
    std::uint64_t posSeq_ = 0;
    static constexpr std::uint64_t kDrained = ~std::uint64_t{0};

    ClusterStats stats_;
    std::uint64_t packetSeq_ = 0;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_CLUSTER_HPP
