/**
 * @file
 * Flit-slot-accounted packet buffers.
 *
 * PEARL's dynamic bandwidth allocator works on *buffer-slot occupancy*:
 * each slot holds one 128-bit flit, and a packet occupies as many slots as
 * it has flits.  FlitBuffer is a bounded FIFO with that accounting; the
 * per-router CPU/GPU buffer pools are built from it.
 */

#ifndef PEARL_SIM_BUFFER_HPP
#define PEARL_SIM_BUFFER_HPP

#include "common/log.hpp"
#include "sim/packet.hpp"
#include "sim/ring_queue.hpp"

namespace pearl {
namespace sim {

/** Bounded FIFO of packets with flit-slot occupancy accounting. */
class FlitBuffer
{
  public:
    /** @param capacity_slots total flit slots available. */
    explicit FlitBuffer(int capacity_slots)
        : capacity_(capacity_slots),
          queue_(static_cast<std::size_t>(capacity_slots))
    {
        // Every packet occupies at least one flit slot, so capacity_slots
        // also bounds the packet count and the ring can never overflow.
        PEARL_ASSERT(capacity_slots > 0);
    }

    /** Slots currently occupied (sum of queued packets' flits). */
    int occupiedSlots() const { return occupied_; }

    /** Total capacity in slots. */
    int capacitySlots() const { return capacity_; }

    /** Slots still free. */
    int freeSlots() const { return capacity_ - occupied_; }

    /** Occupancy fraction in [0, 1] — the beta of Equations 1-2.  The
     *  routers read it several times a cycle, so push(), pop() and
     *  clear() recompute it and every read returns the same bits. */
    double occupancy() const { return occupancy_; }

    bool empty() const { return queue_.empty(); }
    std::size_t packetCount() const { return queue_.size(); }

    /** True if a packet of `flits` flits would fit right now. */
    bool
    canAccept(int flits) const
    {
        return flits <= freeSlots();
    }

    /**
     * Enqueue a packet.
     * @return false (and leave the buffer unchanged) when it doesn't fit.
     */
    bool
    push(const Packet &pkt)
    {
        const int flits = pkt.numFlits();
        if (!canAccept(flits))
            return false;
        queue_.push_back(pkt);
        occupied_ += flits;
        updateOccupancy();
        return true;
    }

    /** Peek the head packet; buffer must be non-empty. */
    const Packet &
    front() const
    {
        PEARL_ASSERT(!queue_.empty());
        return queue_.front();
    }

    Packet &
    front()
    {
        PEARL_ASSERT(!queue_.empty());
        return queue_.front();
    }

    /** Dequeue the head packet. */
    Packet
    pop()
    {
        PEARL_ASSERT(!queue_.empty());
        Packet pkt = queue_.front();
        queue_.pop_front();
        occupied_ -= pkt.numFlits();
        PEARL_ASSERT(occupied_ >= 0);
        updateOccupancy();
        return pkt;
    }

    /** Drop everything (used between benchmark phases). */
    void
    clear()
    {
        queue_.clear();
        occupied_ = 0;
        updateOccupancy();
    }

  private:
    void
    updateOccupancy()
    {
        occupancy_ =
            static_cast<double>(occupied_) / static_cast<double>(capacity_);
    }

    int capacity_;
    int occupied_ = 0;
    double occupancy_ = 0.0;
    RingQueue<Packet> queue_;
};

/**
 * Per-router pair of class-separated input buffers (CPU pool and GPU
 * pool), as required by Algorithm 1: occupancies are computed per core
 * type, and the GPU can never block CPU packets because they never share
 * a queue.
 */
class DualClassBuffer
{
  public:
    DualClassBuffer(int cpu_slots, int gpu_slots)
        : buffers_{FlitBuffer(cpu_slots), FlitBuffer(gpu_slots)}
    {}

    FlitBuffer &
    of(CoreType t)
    {
        return buffers_[static_cast<int>(t)];
    }

    const FlitBuffer &
    of(CoreType t) const
    {
        return buffers_[static_cast<int>(t)];
    }

    /** beta_ocup for one core type (Eq. 1 / Eq. 2). */
    double
    occupancy(CoreType t) const
    {
        return of(t).occupancy();
    }

    /** Buf_omega = beta_CPU + beta_GPU (Eq. 3). */
    double
    totalOccupancy() const
    {
        return occupancy(CoreType::CPU) + occupancy(CoreType::GPU);
    }

    bool
    empty() const
    {
        return of(CoreType::CPU).empty() && of(CoreType::GPU).empty();
    }

    void
    clear()
    {
        buffers_[0].clear();
        buffers_[1].clear();
    }

  private:
    FlitBuffer buffers_[kNumCoreTypes];
};

} // namespace sim
} // namespace pearl

#endif // PEARL_SIM_BUFFER_HPP
