/**
 * @file
 * The PEARL router microarchitecture (Figure 2).
 *
 * Each router owns:
 *  - class-separated injection buffers (CPU / GPU) fed by the local cores
 *    and caches;
 *  - a single-writer data waveguide whose per-cycle bit capacity follows
 *    the laser bank's wavelength state, split between the two classes by
 *    the Dynamic Bandwidth Allocator every cycle;
 *  - per-packet R-SWMR reservation overhead before the first flit;
 *  - class-separated receive buffers (BW_D) drained to the local cores at
 *    a finite ejection bandwidth;
 *  - a laser bank with turn-on stabilisation and energy accounting;
 *  - the telemetry block feeding the ML power scaler.
 */

#ifndef PEARL_CORE_ROUTER_HPP
#define PEARL_CORE_ROUTER_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/arch_config.hpp"
#include "core/dba.hpp"
#include "photonic/laser.hpp"
#include "sim/buffer.hpp"
#include "sim/packet.hpp"
#include "sim/telemetry.hpp"

namespace pearl {
namespace core {

/** A packet that finished serialising onto the waveguide this cycle. */
struct TxCompletion
{
    sim::Packet pkt;
};

/**
 * Per-group express-slot pool for grouped R-SWMR chips.
 *
 * When the chip has more than one reservation domain
 * (cfg.grouped()), a cluster-to-cluster packet crossing a group
 * boundary must hold one of its source group's express slots for the
 * packet's whole serialisation — the slot stands in for a wavelength
 * on the group's shared express reservation channel.  Owned by
 * PearlNetwork; routers acquire in ascending router id (CPU class
 * before GPU within a router), which the verification plane's
 * lockstep mirror reproduces, so arbitration is deterministic.
 *
 * Per-group DBA: under a class-aware allocator (mode != Fcfs) the pool
 * is split between the classes (CPU gets the ceiling half) so a GPU
 * burst cannot monopolise the group's express plane — the same
 * fairness contract the per-router DBA gives the data waveguide.
 *
 * Group-local fault caps: the network lowers a group's cap to
 * max(1, slots - failedLaserBanksInGroup) every cycle while the fault
 * plane is on, so a failing group degrades its own express bandwidth
 * without dragging the other domains down.  A cap reduction never
 * revokes slots already held; it only blocks new acquisitions.
 */
class ExpressArbiter
{
  public:
    void
    configure(int num_groups, int slots, bool class_split)
    {
        slots_ = slots;
        classSplit_ = class_split;
        use_.assign(static_cast<std::size_t>(num_groups), {{0, 0}});
        cap_.assign(static_cast<std::size_t>(num_groups), slots);
    }

    /** Lower/restore a group's slot cap (fault containment). */
    void
    setCap(int group, int cap)
    {
        cap_[static_cast<std::size_t>(group)] = cap;
    }

    bool
    tryAcquire(int group, sim::CoreType type)
    {
        const auto g = static_cast<std::size_t>(group);
        const int total = use_[g].perClass[0] + use_[g].perClass[1];
        if (total >= cap_[g])
            return false;
        const int ci = static_cast<int>(type);
        if (classSplit_ && use_[g].perClass[ci] >= classCap(cap_[g], type))
            return false;
        ++use_[g].perClass[ci];
        return true;
    }

    void
    release(int group, sim::CoreType type)
    {
        --use_[static_cast<std::size_t>(group)]
              .perClass[static_cast<int>(type)];
    }

    int
    inUse(int group) const
    {
        const auto &u = use_[static_cast<std::size_t>(group)];
        return u.perClass[0] + u.perClass[1];
    }

    int cap(int group) const { return cap_[static_cast<std::size_t>(group)]; }
    int slots() const { return slots_; }

    /** Class share of a group's cap: CPU takes the ceiling half.  Both
     *  shares are >= 1 so a cap of 1 serialises the classes on the
     *  total-cap check instead of starving one outright. */
    static int
    classCap(int cap, sim::CoreType type)
    {
        return type == sim::CoreType::CPU ? (cap + 1) / 2
                                          : std::max(1, cap / 2);
    }

  private:
    struct Use
    {
        int perClass[sim::kNumCoreTypes];
    };

    int slots_ = 0;
    bool classSplit_ = false;
    std::vector<Use> use_;
    std::vector<int> cap_;
};

/** One PEARL router. */
class PearlRouter
{
  public:
    /**
     * @param id            router/node id.
     * @param cfg           network configuration.
     * @param power_model   per-router laser power model (already scaled
     *                      for this router's waveguide count).
     * @param dba_cfg       bandwidth allocator configuration.
     * @param waveguides    parallel data waveguides (1 for clusters, the
     *                      l3WaveguideGroup for the L3 router).
     */
    PearlRouter(int id, const PearlConfig &cfg,
                const photonic::PowerModel &power_model,
                const DbaConfig &dba_cfg, int waveguides = 1);

    int id() const { return id_; }
    int waveguides() const { return waveguides_; }

    // Injection ---------------------------------------------------------
    bool canAccept(const sim::Packet &pkt) const;
    bool inject(const sim::Packet &pkt, sim::Cycle now);

    /**
     * Re-enqueue a packet for retransmission after a NACK or ACK
     * timeout.  Unlike inject(), this does not count towards the
     * window's injected-packet label (the demand already happened) —
     * it bumps the retransmit telemetry instead.
     * @return false when the outbound buffer has no room (retry later).
     */
    bool reinject(const sim::Packet &pkt, sim::Cycle now);

    // Per-cycle operation -------------------------------------------------
    /**
     * Run one transmit cycle: DBA split, reservation countdowns, credit
     * accumulation, flit serialisation.  Completed packets are appended
     * to `done`.
     * @return bits transmitted this cycle (for energy accounting).
     */
    int
    transmitCycle(sim::Cycle now, std::vector<TxCompletion> &done)
    {
        if (!inject_.empty())
            return transmitQueued(now, done);
        // Both inject buffers empty: exactly what transmitQueued() does
        // then.  Nothing while the lasers stabilise or under FCFS (no
        // channel is active without a queued packet); otherwise the DBA
        // splits the two zero occupancies and both channels drop their
        // credit and back-to-back state.
        if (!laser_.stable(now) ||
            dba_.config().mode == DbaConfig::Mode::Fcfs)
            return 0;
        const Allocation alloc = dba_.allocate(0.0, 0.0);
        telemetry_.dbaCpuShareSum += alloc.cpuShare;
        telemetry_.dbaGpuShareSum += alloc.gpuShare;
        ++telemetry_.dbaCycles;
        for (TxChannel &ch : tx_) {
            ch.creditBits = 0;
            ch.backToBack = false;
        }
        return 0;
    }

    /** Enqueue an arriving packet into the receive buffer.
     *  @return false when the receive buffer is full (retry next cycle). */
    bool rxEnqueue(const sim::Packet &pkt);

    /** Drain receive buffers at the ejection bandwidth; fully ejected
     *  packets are appended to `delivered` with delivery time `now`. */
    void
    ejectCycle(sim::Cycle now, std::vector<sim::Packet> &delivered)
    {
        if (!rx_.empty())
            ejectQueued(now, delivered);
        ejectRr_ = (ejectRr_ + 1) % sim::kNumCoreTypes;
    }

    /** Accumulate the per-cycle occupancy telemetry (call once/cycle). */
    void
    accumulateOccupancy()
    {
        telemetry_.cpuCoreBufOccupancy += inject_.occupancy(sim::CoreType::CPU);
        telemetry_.gpuCoreBufOccupancy += inject_.occupancy(sim::CoreType::GPU);
        telemetry_.otherRouterCpuBufOccupancy +=
            rx_.occupancy(sim::CoreType::CPU);
        telemetry_.otherRouterGpuBufOccupancy +=
            rx_.occupancy(sim::CoreType::GPU);
        betaWindowSum_ += inject_.totalOccupancy();
        ++windowCycles_;
    }

    /**
     * Fault-capped wavelength ceiling.  Transmit capacity is computed
     * from min(laser state, cap), so a bank that dies mid-window
     * degrades bandwidth immediately even before the next policy
     * decision clamps the commanded state.  WL64 (the default) is a
     * no-op.
     */
    void setWlCap(photonic::WlState cap) { wlCap_ = cap; }
    photonic::WlState wlCap() const { return wlCap_; }

    // Power scaling -------------------------------------------------------
    photonic::LaserBank &laser() { return laser_; }
    const photonic::LaserBank &laser() const { return laser_; }
    sim::RouterTelemetry &telemetry() { return telemetry_; }
    const sim::RouterTelemetry &telemetry() const { return telemetry_; }

    /** Mean Buf_omega (beta_CPU + beta_GPU) since the last window reset. */
    double betaTotalMean() const;

    /** Reset the window accumulators (at a reservation-window boundary). */
    void resetWindow(photonic::WlState next_state);

    // Introspection ---------------------------------------------------
    const sim::DualClassBuffer &injectBuffers() const { return inject_; }
    const sim::DualClassBuffer &rxBuffers() const { return rx_; }
    bool idle() const;

    /** Snapshot of one class channel's serialisation state, exposed for
     *  the verification plane's credit/reservation legality checks. */
    struct TxAudit
    {
        bool active = false;
        bool backToBack = false;
        int resRemaining = 0;
        int flitsRemaining = 0;
        long creditBits = 0;
        bool holdsExpressSlot = false;
    };

    TxAudit
    txAudit(sim::CoreType type) const
    {
        const TxChannel &ch = tx_[static_cast<int>(type)];
        return {ch.active,         ch.backToBack, ch.resRemaining,
                ch.flitsRemaining, ch.creditBits, ch.holdsExpressSlot};
    }

    // Grouped R-SWMR express plane ------------------------------------
    /** Install the chip's express arbiter (grouped chips only; owned by
     *  the network).  Must be called before the first transmitCycle. */
    void
    setExpressArbiter(ExpressArbiter *arbiter)
    {
        express_ = arbiter;
    }

    /** This router's reservation domain, or -1 (hub / ungrouped). */
    int group() const { return group_; }

    std::uint64_t expressAcquired() const { return expressAcquired_; }
    std::uint64_t expressStallCycles() const { return expressStallCycles_; }

  private:
    /** Serialisation state of one class channel. */
    struct TxChannel
    {
        bool active = false;
        bool backToBack = false; //!< reservation hidden behind prior data
        int resRemaining = 0;
        int flitsRemaining = 0;
        long creditBits = 0;
        bool holdsExpressSlot = false; //!< inter-group slot held
    };

    int transmitQueued(sim::Cycle now, std::vector<TxCompletion> &done);
    int transmitClass(sim::CoreType type, double share, int capacity_bits,
                      std::vector<TxCompletion> &done);
    void ejectQueued(sim::Cycle now, std::vector<sim::Packet> &delivered);

    int id_;
    PearlConfig cfg_;
    int waveguides_;
    DynamicBandwidthAllocator dba_;
    sim::DualClassBuffer inject_;
    sim::DualClassBuffer rx_;
    TxChannel tx_[sim::kNumCoreTypes];
    int ejectProgress_[sim::kNumCoreTypes] = {0, 0};
    int ejectRr_ = 0;
    photonic::LaserBank laser_;
    photonic::WlState wlCap_ = photonic::WlState::WL64;
    sim::RouterTelemetry telemetry_;
    double betaWindowSum_ = 0.0;
    std::uint64_t windowCycles_ = 0;

    // Grouped R-SWMR express plane (null/-1 on ungrouped chips).
    ExpressArbiter *express_ = nullptr;
    int group_ = -1;
    std::uint64_t expressAcquired_ = 0;
    std::uint64_t expressStallCycles_ = 0;
};

} // namespace core
} // namespace pearl

#endif // PEARL_CORE_ROUTER_HPP
