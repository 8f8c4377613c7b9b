/**
 * @file
 * A deliberately naive reference implementation of the PEARL network.
 *
 * RefNetwork re-implements PearlNetwork's externally visible semantics
 * — packet movement, DBA splits, R-SWMR reservation arbitration,
 * wavelength-state selection, fault recovery and energy integration —
 * with the simplest possible code: std::deque buffers with O(n)
 * occupancy recomputation, std::priority_queue event channels, per-call
 * modulo window checks and fresh power-model calls per cycle.  It
 * shares only leaf components with the optimized simulator: the
 * photonic::FaultInjector (so both sides see the same fault schedule
 * from the same seed), sim::NetworkStats and sim::RouterTelemetry
 * (plain accumulators), and the installed PowerPolicy.
 *
 * The point is divergence detection, not speed: the differential driver
 * (verify/diff.hpp) steps a RefNetwork and a PearlNetwork in lockstep
 * and compares per-cycle deliveries, counters, per-router laser/buffer
 * state and energy integrals bit for bit.  Scope note: the thermal
 * model is excluded (the constructor asserts !useThermalModel); its
 * physics are pinned by test_thermal separately.
 */

#ifndef PEARL_VERIFY_REF_NETWORK_HPP
#define PEARL_VERIFY_REF_NETWORK_HPP

#include <array>
#include <cstdint>
#include <deque>
#include <queue>
#include <unordered_map>
#include <vector>

#include "core/arch_config.hpp"
#include "core/dba.hpp"
#include "core/power_policy.hpp"
#include "photonic/faults.hpp"
#include "photonic/power_model.hpp"
#include "photonic/wl_state.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"

namespace pearl {
namespace verify {

/** The naive reference simulator (see file comment). */
class RefNetwork : public sim::Network
{
  public:
    RefNetwork(const core::PearlConfig &cfg,
               const photonic::PowerModel &power,
               const core::DbaConfig &dba, core::PowerPolicy *policy);

    // sim::Network --------------------------------------------------------
    bool inject(const sim::Packet &pkt) override;
    bool canInject(const sim::Packet &pkt) const override;
    void step() override;
    std::vector<sim::Packet> &delivered() override { return delivered_; }
    sim::Cycle cycle() const override { return cycle_; }
    int numNodes() const override { return cfg_.numNodes(); }
    const sim::NetworkStats &stats() const override { return stats_; }
    bool idle() const override;

    // State exposed to the differential driver -------------------------
    photonic::WlState laserState(int node) const;
    bool laserStable(int node, sim::Cycle now) const;
    photonic::WlState wlCap(int node) const;
    std::uint64_t laserCycles(int node) const;
    std::uint64_t upSwitches(int node) const;
    std::uint64_t downSwitches(int node) const;
    int bufferSlots(int node, bool rx, sim::CoreType type) const;
    sim::RouterTelemetry &telemetryOf(int node);

    double laserEnergyJ() const;
    double trimmingEnergyJ() const { return trimmingEnergyJ_; }
    double dynamicEnergyJ() const { return dynamicEnergyJ_; }
    double residency(photonic::WlState s) const;

    // Grouped R-SWMR express plane (mirrors core::ExpressArbiter) ------
    int expressInUse(int group) const;
    int expressCap(int group) const;
    bool txHoldsExpress(int node, sim::CoreType type) const;

  private:
    /** Naive laser bank: same semantics as photonic::LaserBank with
     *  plain counters instead of a histogram. */
    struct RefLaser
    {
        const photonic::PowerModel *model = nullptr;
        std::uint64_t turnOnCycles = 0;
        photonic::WlState state = photonic::WlState::WL64;
        std::uint64_t stableAt = 0;
        double energyJ = 0.0;
        std::uint64_t stateCycles[photonic::kNumWlStates] = {};
        std::uint64_t cycles = 0;
        std::uint64_t upSwitches = 0;
        std::uint64_t downSwitches = 0;

        void requestState(photonic::WlState next, sim::Cycle now);
        bool stable(sim::Cycle now) const { return now >= stableAt; }
        void tick(double dt);
        double residency(photonic::WlState s) const;
    };

    /** Serialisation state of one class channel (verbatim semantics). */
    struct RefTxChannel
    {
        bool active = false;
        bool backToBack = false;
        int resRemaining = 0;
        int flitsRemaining = 0;
        long creditBits = 0;
        bool holdsExpressSlot = false;
    };

    struct RefRouter
    {
        int id = 0;
        int waveguides = 1;
        std::deque<sim::Packet> inject[sim::kNumCoreTypes];
        std::deque<sim::Packet> rx[sim::kNumCoreTypes];
        int injectCap[sim::kNumCoreTypes] = {0, 0};
        int rxCap[sim::kNumCoreTypes] = {0, 0};
        RefTxChannel tx[sim::kNumCoreTypes];
        int ejectProgress[sim::kNumCoreTypes] = {0, 0};
        int ejectRr = 0;
        RefLaser laser;
        photonic::WlState cap = photonic::WlState::WL64;
        sim::RouterTelemetry telemetry;
        double betaWindowSum = 0.0;
        std::uint64_t windowCycles = 0;
    };

    struct InFlight
    {
        sim::Cycle due;
        sim::Packet pkt;
        bool faultChecked = false;
        bool operator>(const InFlight &o) const { return due > o.due; }
    };

    struct Outstanding
    {
        sim::Packet pkt;
        std::uint16_t attempt = 0;
    };

    struct TimeoutEvent
    {
        sim::Cycle due;
        int src;
        std::uint64_t seq;
        std::uint16_t attempt;
        bool
        operator>(const TimeoutEvent &o) const
        {
            return due > o.due;
        }
    };

    struct PendingRetx
    {
        sim::Cycle due;
        sim::Packet pkt;
        bool
        operator>(const PendingRetx &o) const
        {
            return due > o.due;
        }
    };

    template <typename T>
    using RefHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

    // O(n) occupancy recomputation — intentionally the slow honest way.
    static int occupiedSlots(const std::deque<sim::Packet> &buf);
    static double occupancy(const std::deque<sim::Packet> &buf, int cap);
    static bool pushPacket(std::deque<sim::Packet> &buf, int cap,
                           const sim::Packet &pkt);

    core::Allocation allocate(const RefRouter &router) const;
    int transmitClass(RefRouter &router, sim::CoreType type, double share,
                      int capacity_bits,
                      std::vector<sim::Packet> &done);
    int transmitCycle(RefRouter &router,
                      std::vector<sim::Packet> &done);
    void ejectCycle(RefRouter &router);
    void armRetry(Outstanding &&entry, sim::Cycle delay);
    void trackTransmission(const sim::Packet &pkt);
    void stepFaultPlane();

    core::PearlConfig cfg_;
    photonic::PowerModel routerPower_;
    photonic::PowerModel l3Power_;
    core::DbaConfig dba_;
    core::PowerPolicy *policy_;
    std::vector<RefRouter> routers_;
    RefHeap<InFlight> inFlight_;
    std::vector<sim::Packet> delivered_;
    photonic::FaultInjector faults_;
    std::vector<std::uint64_t> nextSeq_;
    std::vector<std::unordered_map<std::uint64_t, Outstanding>>
        outstanding_;
    RefHeap<TimeoutEvent> timeouts_;
    RefHeap<PendingRetx> retx_;
    sim::NetworkStats stats_;
    sim::Cycle cycle_ = 0;
    double trimmingEnergyJ_ = 0.0;
    double dynamicEnergyJ_ = 0.0;

    // Naive per-group express pool (grouped chips only): plain vectors
    // updated inline — the honest mirror of core::ExpressArbiter.
    std::vector<std::array<int, sim::kNumCoreTypes>> expressUse_;
    std::vector<int> expressCap_;
    double expressLaserEnergyJ_ = 0.0;
};

} // namespace verify
} // namespace pearl

#endif // PEARL_VERIFY_REF_NETWORK_HPP
