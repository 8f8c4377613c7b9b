/**
 * @file
 * The memory-controller node (network node 16).
 *
 * Serves L3-bank misses: Read requests return a data response after the
 * main-memory latency, rate-limited to the aggregate bandwidth of the two
 * memory controllers; Writebacks are absorbed.  All traffic to/from this
 * node carries the Table III "L3" classes (Request L3 / Response L3).
 */

#ifndef PEARL_CACHE_MEMORY_HPP
#define PEARL_CACHE_MEMORY_HPP

#include <cstdint>
#include <deque>

#include "cache/config.hpp"
#include "common/log.hpp"
#include "sim/packet.hpp"
#include "sim/sink.hpp"

namespace pearl {
namespace cache {

/** Memory node statistics. */
struct MemoryStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t busyStallCycles = 0; //!< cycles the MCs were saturated
};

/** The two-MC memory node. */
class MemoryNode
{
  public:
    /**
     * @param node_id  network node id (16).
     * @param cfg      hierarchy configuration (memory latency).
     * @param responses_per_cycle aggregate MC bandwidth in responses per
     *        network cycle (2 controllers; fractional rates accumulate).
     */
    MemoryNode(sim::NodeId node_id, const HierarchyConfig &cfg,
               double responses_per_cycle = 0.4)
        : nodeId_(node_id), cfg_(cfg), rate_(responses_per_cycle)
    {}

    void attach(sim::PacketSink *sink) { sink_ = sink; }

    /** Handle a packet delivered to the memory node. */
    void
    deliver(const sim::Packet &pkt, sim::Cycle now)
    {
        if (pkt.op == sim::CoherenceOp::Read) {
            ++stats_.reads;
            const sim::Cycle due = now + cfg_.memoryCycles;
            PEARL_ASSERT(pending_.empty() || pending_.back().due <= due,
                         "memory read delivered at an earlier cycle");
            pending_.push_back(Pending{due, pkt.src, pkt.addr});
        } else {
            // Writebacks (and stray data) are absorbed.
            ++stats_.writes;
        }
    }

    /** Issue due responses within the MC bandwidth budget. */
    void
    tick(sim::Cycle now)
    {
        credit_ += rate_;
        bool stalled = false;
        while (!pending_.empty() && pending_.front().due <= now) {
            if (credit_ < 1.0) {
                stalled = true;
                break;
            }
            credit_ -= 1.0;
            const Pending p = pending_.front();
            pending_.pop_front();

            sim::Packet resp;
            resp.id = (static_cast<std::uint64_t>(nodeId_ + 1) << 48) |
                      ++seq_;
            resp.msgClass = sim::MsgClass::RespL3;
            resp.op = sim::CoherenceOp::Data;
            resp.dstUnit = sim::NodeUnit::L3Bank;
            resp.src = nodeId_;
            resp.dst = p.requester;
            resp.sizeBits = sim::kResponseBits;
            resp.addr = p.addr;
            resp.cycleCreated = now;
            sink_->send(std::move(resp));
        }
        if (stalled)
            ++stats_.busyStallCycles;
        if (credit_ > 8.0)
            credit_ = 8.0; // bound the burst the MCs can absorb
    }

    const MemoryStats &stats() const { return stats_; }
    bool quiescent() const { return pending_.empty(); }

  private:
    /** A read in service, due memoryCycles after it arrived. */
    struct Pending
    {
        sim::Cycle due;
        sim::NodeId requester;
        std::uint64_t addr;
    };

    sim::NodeId nodeId_;
    HierarchyConfig cfg_;
    double rate_;
    double credit_ = 0.0;
    sim::PacketSink *sink_ = nullptr;
    /** Arrival order, which is due order (DESIGN.md, "Event order"). */
    std::deque<Pending> pending_;
    MemoryStats stats_;
    std::uint64_t seq_ = 0; //!< response packet-id counter
};

} // namespace cache
} // namespace pearl

#endif // PEARL_CACHE_MEMORY_HPP
