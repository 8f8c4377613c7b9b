/**
 * @file
 * Network-level statistics: throughput, latency, per-class counts.
 */

#ifndef PEARL_SIM_STATS_HPP
#define PEARL_SIM_STATS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/reservoir.hpp"
#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "sim/packet.hpp"

namespace pearl {
namespace sim {

/** Aggregate statistics every Network implementation maintains. */
class NetworkStats
{
  public:
    /** Record a successful injection. */
    void
    noteInjected(const Packet &pkt)
    {
        ++injectedPackets_;
        injectedFlits_ += static_cast<std::uint64_t>(pkt.numFlits());
        ++classInjected_[static_cast<int>(pkt.msgClass)];
    }

    /** Record a delivery (pkt.cycleDelivered must be set). */
    void
    noteDelivered(const Packet &pkt)
    {
        ++deliveredPackets_;
        deliveredFlits_ += static_cast<std::uint64_t>(pkt.numFlits());
        deliveredBits_ += static_cast<std::uint64_t>(pkt.sizeBits);
        latency_.add(static_cast<double>(pkt.latency()));
        latencySample_.add(static_cast<double>(pkt.latency()));
        ++classDelivered_[static_cast<int>(pkt.msgClass)];
        classLatency_[static_cast<int>(pkt.msgClass)].add(
            static_cast<double>(pkt.latency()));
        if (pkt.coreType() == CoreType::CPU) {
            ++cpuDelivered_;
            cpuLatency_.add(static_cast<double>(pkt.latency()));
        } else {
            ++gpuDelivered_;
            gpuLatency_.add(static_cast<double>(pkt.latency()));
        }
    }

    // Fault / resilience accounting --------------------------------------

    /** A packet arrived corrupted (failed its BER draw) and was NACKed. */
    void
    noteCorrupted(const Packet &pkt)
    {
        ++corruptedPackets_;
        (void)pkt;
    }

    /** A packet's reservation broadcast was lost (data vanished). */
    void noteReservationDrop() { ++reservationDrops_; }

    /** A source gave up waiting for an ACK and re-armed the packet. */
    void noteAckTimeout() { ++ackTimeouts_; }

    /** A packet re-entered its source's outbound queue. */
    void noteRetransmit() { ++retransmittedPackets_; }

    /** An arrival found its rx buffer full and retries next cycle. */
    void noteRxRetry() { ++rxRetries_; }

    /** A packet exhausted its retry budget and was dropped (counted,
     *  never silent). */
    void noteDropped(const Packet &pkt)
    {
        ++droppedPackets_;
        (void)pkt;
    }

    // Guard-layer accounting (ml::GuardedPolicy) -------------------------

    /** The guard tripped: a router switched to the fallback policy. */
    void noteFallbackEntry() { ++policyFallbackEntries_; }

    /** The guard recovered: a router returned to the ML policy. */
    void noteFallbackExit() { ++policyFallbackExits_; }

    /** One reservation window decided by the fallback policy. */
    void noteFallbackWindow() { ++policyFallbackWindows_; }

    /** One cycle with router `router`'s ring bank out of thermal lock. */
    void
    noteThermalUnlocked(int router)
    {
        if (router >= static_cast<int>(routerUnlockedCycles_.size()))
            routerUnlockedCycles_.resize(
                static_cast<std::size_t>(router) + 1, 0);
        ++routerUnlockedCycles_[static_cast<std::size_t>(router)];
        ++thermalUnlockedCycles_;
    }

    std::uint64_t corruptedPackets() const { return corruptedPackets_; }
    std::uint64_t reservationDrops() const { return reservationDrops_; }
    std::uint64_t ackTimeouts() const { return ackTimeouts_; }
    std::uint64_t retransmittedPackets() const
    {
        return retransmittedPackets_;
    }
    std::uint64_t droppedPackets() const { return droppedPackets_; }

    /** Arrivals bounced off a full rx buffer, counted once per bounce
     *  (an arrival that waits three cycles counts three). */
    std::uint64_t rxRetries() const { return rxRetries_; }

    std::uint64_t policyFallbackEntries() const
    {
        return policyFallbackEntries_;
    }
    std::uint64_t policyFallbackExits() const
    {
        return policyFallbackExits_;
    }
    std::uint64_t policyFallbackWindows() const
    {
        return policyFallbackWindows_;
    }

    /** Total router-cycles spent out of thermal lock, network-wide. */
    std::uint64_t thermalUnlockedCycles() const
    {
        return thermalUnlockedCycles_;
    }

    /** Out-of-lock cycles of one router (0 for never-unlocked routers). */
    std::uint64_t
    thermalUnlockedCycles(int router) const
    {
        return router < static_cast<int>(routerUnlockedCycles_.size())
                   ? routerUnlockedCycles_[
                         static_cast<std::size_t>(router)]
                   : 0;
    }

    std::uint64_t injectedPackets() const { return injectedPackets_; }
    std::uint64_t injectedFlits() const { return injectedFlits_; }
    std::uint64_t deliveredPackets() const { return deliveredPackets_; }
    std::uint64_t deliveredFlits() const { return deliveredFlits_; }
    std::uint64_t deliveredBits() const { return deliveredBits_; }
    std::uint64_t cpuDeliveredPackets() const { return cpuDelivered_; }
    std::uint64_t gpuDeliveredPackets() const { return gpuDelivered_; }

    std::uint64_t
    classInjected(MsgClass c) const
    {
        return classInjected_[static_cast<int>(c)];
    }

    std::uint64_t
    classDelivered(MsgClass c) const
    {
        return classDelivered_[static_cast<int>(c)];
    }

    /** Average end-to-end packet latency in cycles. */
    double avgLatency() const { return latency_.mean(); }

    /** Average latency of one core type's packets. */
    double
    avgLatency(CoreType t) const
    {
        return t == CoreType::CPU ? cpuLatency_.mean()
                                  : gpuLatency_.mean();
    }

    /** Average latency of one message class's packets. */
    double
    avgClassLatency(MsgClass c) const
    {
        return classLatency_[static_cast<int>(c)].mean();
    }

    const RunningStat &latencyStat() const { return latency_; }

    /** Latency percentile estimate (reservoir-sampled), cycles. */
    double
    latencyQuantile(double q) const
    {
        return latencySample_.quantile(q);
    }

    /** Delivered flits per cycle over `cycles` elapsed cycles. */
    double
    throughputFlitsPerCycle(Cycle cycles) const
    {
        return cycles ? static_cast<double>(deliveredFlits_) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Delivered bits per cycle over `cycles` elapsed cycles. */
    double
    throughputBitsPerCycle(Cycle cycles) const
    {
        return cycles ? static_cast<double>(deliveredBits_) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /**
     * Publish end-of-run totals into the observability registry under
     * `prefix` (default "net").  Counters mirror the RunMetrics totals
     * exactly (tests reconcile them); the latency distribution is
     * summarised from the existing reservoir as p50/p95/p99.
     */
    void
    publishTo(obs::MetricsRegistry &reg,
              const std::string &prefix = "net") const
    {
        reg.counter(prefix + ".injected_packets") += injectedPackets_;
        reg.counter(prefix + ".injected_flits") += injectedFlits_;
        reg.counter(prefix + ".delivered_packets") += deliveredPackets_;
        reg.counter(prefix + ".delivered_flits") += deliveredFlits_;
        reg.counter(prefix + ".delivered_bits") += deliveredBits_;
        reg.counter(prefix + ".cpu_delivered_packets") += cpuDelivered_;
        reg.counter(prefix + ".gpu_delivered_packets") += gpuDelivered_;
        reg.counter(prefix + ".corrupted_packets") += corruptedPackets_;
        reg.counter(prefix + ".reservation_drops") += reservationDrops_;
        reg.counter(prefix + ".ack_timeouts") += ackTimeouts_;
        reg.counter(prefix + ".retransmitted_packets") +=
            retransmittedPackets_;
        reg.counter(prefix + ".dropped_packets") += droppedPackets_;
        reg.counter(prefix + ".rx_retries") += rxRetries_;
        reg.counter(prefix + ".thermal_unlocked_cycles") +=
            thermalUnlockedCycles_;
        reg.counter(prefix + ".policy_fallback_entries") +=
            policyFallbackEntries_;
        reg.counter(prefix + ".policy_fallback_exits") +=
            policyFallbackExits_;
        reg.counter(prefix + ".policy_fallback_windows") +=
            policyFallbackWindows_;
        reg.gauge(prefix + ".avg_latency_cycles") = latency_.mean();
        obs::HistogramSummary &h =
            reg.histogram(prefix + ".latency_cycles");
        h.count = latencySample_.count();
        h.mean = latency_.mean();
        h.p50 = latencySample_.quantile(0.50);
        h.p95 = latencySample_.quantile(0.95);
        h.p99 = latencySample_.quantile(0.99);
    }

    void
    reset()
    {
        injectedPackets_ = injectedFlits_ = 0;
        deliveredPackets_ = deliveredFlits_ = deliveredBits_ = 0;
        cpuDelivered_ = gpuDelivered_ = 0;
        latency_.reset();
        latencySample_.reset();
        cpuLatency_.reset();
        gpuLatency_.reset();
        for (auto &stat : classLatency_)
            stat.reset();
        classInjected_.fill(0);
        classDelivered_.fill(0);
        corruptedPackets_ = reservationDrops_ = 0;
        ackTimeouts_ = retransmittedPackets_ = droppedPackets_ = 0;
        rxRetries_ = 0;
        thermalUnlockedCycles_ = 0;
        routerUnlockedCycles_.clear();
        policyFallbackEntries_ = policyFallbackExits_ = 0;
        policyFallbackWindows_ = 0;
    }

  private:
    std::uint64_t injectedPackets_ = 0;
    std::uint64_t injectedFlits_ = 0;
    std::uint64_t deliveredPackets_ = 0;
    std::uint64_t deliveredFlits_ = 0;
    std::uint64_t deliveredBits_ = 0;
    std::uint64_t cpuDelivered_ = 0;
    std::uint64_t gpuDelivered_ = 0;
    RunningStat latency_;
    ReservoirSampler latencySample_;
    RunningStat cpuLatency_;
    RunningStat gpuLatency_;
    std::array<RunningStat, kNumMsgClasses> classLatency_;
    std::array<std::uint64_t, kNumMsgClasses> classInjected_ = {};
    std::array<std::uint64_t, kNumMsgClasses> classDelivered_ = {};
    std::uint64_t corruptedPackets_ = 0;
    std::uint64_t reservationDrops_ = 0;
    std::uint64_t ackTimeouts_ = 0;
    std::uint64_t retransmittedPackets_ = 0;
    std::uint64_t droppedPackets_ = 0;
    std::uint64_t rxRetries_ = 0;
    std::uint64_t thermalUnlockedCycles_ = 0;
    std::vector<std::uint64_t> routerUnlockedCycles_;
    std::uint64_t policyFallbackEntries_ = 0;
    std::uint64_t policyFallbackExits_ = 0;
    std::uint64_t policyFallbackWindows_ = 0;
};

} // namespace sim
} // namespace pearl

#endif // PEARL_SIM_STATS_HPP
