/**
 * @file
 * Abstract network interface.
 *
 * Both the photonic PEARL crossbar and the electrical CMESH baseline
 * implement this interface so that the workload drivers, metrics and the
 * ML data-collection pipeline are network-agnostic.
 */

#ifndef PEARL_SIM_NETWORK_HPP
#define PEARL_SIM_NETWORK_HPP

#include <iosfwd>
#include <vector>

#include "sim/packet.hpp"
#include "sim/stats.hpp"

namespace pearl {
namespace sim {

/** A cycle-driven network-on-chip model. */
class Network
{
  public:
    virtual ~Network() = default;

    /**
     * Offer a packet for injection at its source router.
     * @return true if accepted into an input buffer; false if the buffer
     *         is full (the producer must retry a later cycle).
     */
    virtual bool inject(const Packet &pkt) = 0;

    /** True if the source router can currently accept the packet. */
    virtual bool canInject(const Packet &pkt) const = 0;

    /** Advance the model by one network cycle. */
    virtual void step() = 0;

    /**
     * Packets whose final flit arrived at their destination since the last
     * drain.  The caller takes ownership of the contents.
     */
    virtual std::vector<Packet> &delivered() = 0;

    /** Current cycle count. */
    virtual Cycle cycle() const = 0;

    /** Number of endpoints (routers with attached cores/caches). */
    virtual int numNodes() const = 0;

    /** Aggregate delivery/latency statistics. */
    virtual const NetworkStats &stats() const = 0;

    /** True when no packet is buffered or in flight anywhere. */
    virtual bool idle() const = 0;

    /**
     * Write a human-readable queue/health snapshot to `os` — used by
     * the system watchdog when it detects livelock.  Default: nothing.
     */
    virtual void
    describeState(std::ostream &os) const
    {
        (void)os;
    }

    /** Kept only so pearlbench builds; nothing calls it. */
    virtual Cycle
    advanceIdle(Cycle max_cycles)
    {
        (void)max_cycles;
        return 0;
    }
};

} // namespace sim
} // namespace pearl

#endif // PEARL_SIM_NETWORK_HPP
