/**
 * @file
 * An L3 bank + directory slice.
 *
 * The 8 MB shared L3 is banked across the cluster routers (one slice
 * per tile, Figure 1b); each bank owns the lines the HomeMap hashes to it
 * and runs a full-map directory over up to kMaxClusters clusters
 * (SharerMask holds the sharer set).  Transactions are
 * serialised per line with an MSHR: reads may require a share-probe of
 * the owning cluster, read-for-ownership invalidates every holder, and
 * bank misses fetch from the memory-controller node over the network
 * (Request L3 / Response L3 in Table III terms).
 */

#ifndef PEARL_CACHE_L3_HPP
#define PEARL_CACHE_L3_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/addr_map.hpp"
#include "cache/cache_array.hpp"
#include "cache/config.hpp"
#include "cache/home_map.hpp"
#include "cache/sharer_mask.hpp"
#include "sim/packet.hpp"
#include "sim/sink.hpp"

namespace pearl {
namespace cache {

/** L3 bank / directory statistics. */
struct L3Stats
{
    std::uint64_t reads = 0;
    std::uint64_t readExcls = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t memoryReads = 0;
    std::uint64_t memoryWrites = 0;
    std::uint64_t probesSent = 0;
    std::uint64_t invalidationsSent = 0;

    double
    hitRate() const
    {
        const auto total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    L3Stats &
    operator+=(const L3Stats &o)
    {
        reads += o.reads;
        readExcls += o.readExcls;
        writebacks += o.writebacks;
        hits += o.hits;
        misses += o.misses;
        memoryReads += o.memoryReads;
        memoryWrites += o.memoryWrites;
        probesSent += o.probesSent;
        invalidationsSent += o.invalidationsSent;
        return *this;
    }
};

/** One L3 bank slice with its directory. */
class L3Bank
{
  public:
    /**
     * @param node_id      router this bank lives at.
     * @param num_clusters directory width.
     * @param cfg          hierarchy configuration (total L3 size; the
     *                     bank holds 1/numBanks of it).
     * @param map          home mapping (for the memory node id).
     */
    L3Bank(sim::NodeId node_id, int num_clusters,
           const HierarchyConfig &cfg, const HomeMap &map);

    void attach(sim::PacketSink *sink) { sink_ = sink; }

    /** Advance one cycle: run due L3 array accesses.  Most cycles have
     *  none, and the check is all they cost. */
    void
    tick(sim::Cycle now)
    {
        if (!events_.empty() && events_.front().due <= now)
            runDue(now);
    }

    /** Handle a packet addressed to this bank. */
    void deliver(const sim::Packet &pkt, sim::Cycle now);

    const L3Stats &stats() const { return stats_; }
    std::size_t mshrOccupancy() const { return mshr_.size(); }

    /** True when no transaction or timed event is pending. */
    bool
    quiescent() const
    {
        return mshr_.empty() && events_.empty();
    }

  private:
    /** Directory metadata per line. */
    struct DirMeta
    {
        SharerMask sharers;        //!< clusters with a copy
        std::int16_t owner = -1;   //!< cluster holding M/O/N, or -1
        bool dirty = false;        //!< bank data newer than memory
    };

    using L3Array = CacheArray<DirMeta>;
    // 16 bytes of line, 16 of SharerMask, owner and dirty, padded to 8.
    static_assert(sizeof(L3Array::Line) == 48,
                  "L3 lines grew; bytes per line are bytes per miss");

    /** A queued coherence request from a cluster. */
    struct PendingReq
    {
        int cluster;
        sim::CoherenceOp op; //!< Read or ReadExcl
        sim::CoreType type;
        std::uint64_t reqId;
    };

    /** Per-line transaction state. */
    struct Transaction
    {
        enum class Phase
        {
            Lookup,       //!< waiting for the L3 array access
            MemFetch,     //!< waiting for the memory node's response
            ProbeOwner,   //!< waiting for the owner's share-probe reply
            Invalidating, //!< waiting for invalidation acks
        };

        Phase phase = Phase::Lookup;
        /** Head is being serviced.  A vector, not a deque: transactions
         *  are constructed for every in-flight line and a deque's
         *  eagerly-allocated chunk map dominated the allocation profile;
         *  the queue rarely exceeds a couple of requesters, so the
         *  O(size) pop-front is free in practice. */
        std::vector<PendingReq> requests;
        int pendingAcks = 0;
    };

    /** A queued array lookup, due l3AccessCycles after it was queued. */
    struct TimedEvent
    {
        sim::Cycle due;
        std::uint64_t addr;
    };

    void runDue(sim::Cycle now);
    void startLookup(std::uint64_t addr, sim::Cycle now);
    void runLookup(std::uint64_t addr, sim::Cycle now);
    void serviceHead(std::uint64_t addr, L3Array::Line &line,
                     sim::Cycle now);
    void finishHead(std::uint64_t addr, L3Array::Line &line,
                    bool exclusive, sim::Cycle now);
    void handleProbeReply(const sim::Packet &pkt, sim::Cycle now);
    void handleWriteback(const sim::Packet &pkt, sim::Cycle now);
    void handleMemResponse(const sim::Packet &pkt, sim::Cycle now);
    void evictVictim(L3Array::Line &victim, sim::Cycle now);
    void sendToCluster(int cluster, sim::CoreType type, sim::CoherenceOp op,
                       std::uint64_t addr, sim::Cycle now);
    void sendToMemory(sim::CoherenceOp op, std::uint64_t addr,
                      sim::Cycle now);

    sim::NodeId nodeId_;
    int numClusters_;
    HierarchyConfig cfg_;
    sim::NodeId memoryNode_;
    sim::PacketSink *sink_ = nullptr;

    L3Array l3_;
    AddrMap<Transaction> mshr_;
    /** Queue order, which is due order (DESIGN.md, "Event order"). */
    std::deque<TimedEvent> events_;

    L3Stats stats_;
    std::uint64_t packetSeq_ = 0;
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_L3_HPP
