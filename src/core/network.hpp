/**
 * @file
 * The PEARL photonic crossbar network (Section III).
 *
 * Seventeen routers (16 clusters + L3) each own a single-writer
 * multiple-reader data waveguide; there is no inter-router contention on
 * the transmit side beyond the source's own serialisation, and receives
 * land in per-class receive buffers drained at a finite ejection
 * bandwidth.  Reservation-window boundaries (staggered 10 cycles per
 * router, Section IV-A) invoke the installed PowerPolicy per router and
 * hand the closing window's telemetry to an optional collector callback —
 * that is the hook the ML training pipeline uses.
 */

#ifndef PEARL_CORE_NETWORK_HPP
#define PEARL_CORE_NETWORK_HPP

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/arch_config.hpp"
#include "core/power_policy.hpp"
#include "core/router.hpp"
#include "obs/trace.hpp"
#include "photonic/faults.hpp"
#include "photonic/power_model.hpp"
#include "photonic/thermal.hpp"
#include "common/log.hpp"
#include "sim/min_heap.hpp"
#include "sim/network.hpp"

namespace pearl {

namespace sim {
class WorkerPool;
} // namespace sim

namespace core {

/** Data handed to the window collector when a router's window closes. */
struct WindowRecord
{
    int router = 0;
    sim::Cycle windowEnd = 0;
    std::uint64_t windowCycles = 0;
    double betaTotalMean = 0.0;
    photonic::WlState stateDuringWindow = photonic::WlState::WL64;
    photonic::WlState stateChosen = photonic::WlState::WL64;
    sim::RouterTelemetry telemetry; //!< snapshot before the reset
};

/** Callback observing every closed reservation window. */
using WindowCollector = std::function<void(const WindowRecord &)>;

class PearlNetwork;

/**
 * Per-step hook for the verification plane (src/verify).
 *
 * The network calls afterStep() at the end of every step(), before the
 * cycle counter increments, so the auditor sees the post-step state
 * tagged with the cycle that just executed.  With no auditor installed —
 * the default — the hook is a single null-pointer test.
 */
class StepAuditor
{
  public:
    virtual ~StepAuditor() = default;

    /** Inspect the network after one step(); throw to abort the run. */
    virtual void afterStep(const PearlNetwork &net) = 0;
};

/**
 * Packet-population counts for conservation checking.  Every packet the
 * network has accepted is, at a step boundary, in exactly one place:
 * delivered, dropped, buffered in a router, on a waveguide (inFlight),
 * waiting out a retransmit backoff (retxQueued) — or it exists only as
 * an un-ACKed source copy (a reservation-dropped or corrupted instance
 * whose timeout has not fired yet).  `outstanding` double-counts the
 * in-flight packets that have not had their fault check yet, which is
 * what `inFlightUnchecked` lets the checker subtract.
 */
struct AuditCounts
{
    std::uint64_t injected = 0;      //!< accepted first injections
    std::uint64_t retransmitted = 0; //!< accepted re-injections
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;       //!< retry budget exhausted
    std::uint64_t buffered = 0;      //!< packets in inject + rx buffers
    std::uint64_t inFlight = 0;
    std::uint64_t inFlightUnchecked = 0; //!< BER draw still pending
    std::uint64_t retxQueued = 0;
    std::uint64_t outstanding = 0;   //!< un-ACKed source copies
};

/** The PEARL network model. */
class PearlNetwork : public sim::Network
{
  public:
    /**
     * @param cfg    network configuration.
     * @param power  photonic power model with *network-aggregate* laser
     *               state powers (scaled per router internally).
     * @param dba    dynamic bandwidth allocator configuration.
     * @param policy wavelength-state policy shared by all routers; must
     *               outlive the network.
     */
    PearlNetwork(const PearlConfig &cfg,
                 const photonic::PowerModel &power, const DbaConfig &dba,
                 PowerPolicy *policy);

    /**
     * Router `router`'s window-end phase, (windowOffsetPerRouter *
     * router) mod RW: its window ends at every cycle c > 0 with
     * c % RW equal to it.  Stage 5 and windowDecisions() both use it.
     */
    static std::uint64_t windowOffset(const PearlConfig &cfg, int router);

    /**
     * Policy decisions (`nextState` calls) a new network makes over
     * `cycles` steps: one per router per window end in cycles
     * 1 .. cycles-1.  The config fixes it, never the traffic, so a
     * random-state collection's draws are known before it runs.
     */
    static std::uint64_t windowDecisions(const PearlConfig &cfg,
                                         sim::Cycle cycles);

    /** Install a collector for closed reservation windows (ML pipeline). */
    void setWindowCollector(WindowCollector collector)
    {
        collector_ = std::move(collector);
    }

    /**
     * Attach an event tracer (observability plane; not owned, may be
     * null).  With no tracer installed — the default — every hook is a
     * single null-pointer test and the simulation is bit-identical to
     * an uninstrumented build; tracing never draws from the RNG.
     */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /**
     * Install a per-step auditor (verification plane; not owned, may be
     * null).  Same zero-cost contract as the tracer: without one the
     * hook is a single branch and the simulation is unchanged.
     */
    void setAuditor(StepAuditor *auditor) { auditor_ = auditor; }

    /** Kept only so pearlbench builds; every run steps on one thread. */
    void setWorkerPool(sim::WorkerPool *) {}

    // sim::Network --------------------------------------------------------
    bool inject(const sim::Packet &pkt) override;
    bool canInject(const sim::Packet &pkt) const override;
    void step() override;
    std::vector<sim::Packet> &delivered() override { return delivered_; }
    sim::Cycle cycle() const override { return cycle_; }
    int numNodes() const override { return cfg_.numNodes(); }
    const sim::NetworkStats &stats() const override { return stats_; }
    bool idle() const override;
    void describeState(std::ostream &os) const override;

    // Grouped R-SWMR express plane ------------------------------------
    /** The chip's express-slot arbiter (configured only when grouped). */
    const ExpressArbiter &expressArbiter() const { return express_; }

    /** Express slots acquired across the run (grouped chips only). */
    std::uint64_t expressAcquired() const;

    /** Head-of-line cycles lost waiting for an express slot. */
    std::uint64_t expressStallCycles() const;

    // Energy / power --------------------------------------------------
    double laserEnergyJ() const;
    double trimmingEnergyJ() const { return trimmingEnergyJ_; }
    double dynamicEnergyJ() const { return dynamicEnergyJ_; }
    double staticEnergyJ() const;
    double totalEnergyJ() const;

    /** Network-wide average laser power in watts over the run. */
    double averageLaserPowerW() const;

    /** Fraction of router-cycles spent in `s` (Figure 8). */
    double residency(photonic::WlState s) const;

    /** Fraction of router-steps with rings out of thermal lock. */
    double thermalUnlockedFraction() const;

    // Fault plane / resilience ----------------------------------------
    /** The fault injector (inert unless cfg.faults.enabled). */
    const photonic::FaultInjector &faults() const { return faults_; }

    // Introspection ---------------------------------------------------
    PearlRouter &router(int node) { return *routers_[node]; }
    const PearlRouter &router(int node) const { return *routers_[node]; }
    sim::RouterTelemetry &telemetryOf(int node)
    {
        return routers_[node]->telemetry();
    }
    const PearlConfig &config() const { return cfg_; }

    // Verification plane ----------------------------------------------
    /** Where every accepted packet currently is (see AuditCounts). */
    AuditCounts auditCounts() const;

  private:
    /**
     * Heap key of one packet on a waveguide.  The packet waits in
     * inFlightSlab_[slot] and what stage 1 reads of it in
     * inFlightRecords_[slot], so a bounce sifts only these 8 bytes.
     * Keys compare on `due` only, and std::push_heap/std::pop_heap move
     * elements by comparison outcomes alone, so the heap pops keys in
     * the order a heap of whole packets would — equal-due ties included.
     * Comparing `slot` too would reorder those ties.
     */
    struct InFlightKey
    {
        std::uint32_t due;  //!< arrival cycle; step() asserts it fits
        std::uint32_t slot; //!< index into inFlightSlab_/inFlightRecords_

        bool
        operator>(const InFlightKey &o) const
        {
            return due > o.due;
        }
    };
    static_assert(sizeof(InFlightKey) == 8,
                  "InFlightKey grew; every rx bounce sifts it");

    /** What stage 1 needs of an in-flight packet to take its BER draw
     *  once and to bounce it off a full rx buffer without touching the
     *  slab.  launch() writes it whenever it fills the slot. */
    struct InFlightRecord
    {
        std::uint16_t dst;      //!< destination router
        sim::CoreType type;     //!< rx buffer class at dst
        std::uint8_t flits : 7; //!< rx slots the packet occupies
        bool faultChecked : 1;  //!< BER draw already taken (rx retry)
    };
    static_assert(sizeof(InFlightRecord) == 4,
                  "InFlightRecord grew; stage 1 reads one per arrival");

    /** A transmitted packet the source keeps until it is ACKed. */
    struct Outstanding
    {
        sim::Packet pkt;
        std::uint16_t attempt = 0;
    };

    /** Scheduled ACK-timeout check for one (source, seq, attempt). */
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

    /** A packet waiting out its retransmit backoff. */
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

    /** Receiver-side thermal condition feeding the BER model. */
    void receiverThermal(int node, double &trim_gap_c,
                         bool &locked) const;

    /** Schedule a retransmission (or count the drop when the retry
     *  budget is spent).  `delay` models NACK/timeout signalling time. */
    void armRetry(Outstanding &&entry, sim::Cycle delay);

    /** Track a fresh transmission: outstanding entry + timeout event. */
    void trackTransmission(const sim::Packet &pkt);

    /** Put a transmitted packet on the waveguide: park it and its
     *  record in a slab slot and queue its key for arrival at `due`. */
    void launch(sim::Packet &&pkt, sim::Cycle due);

    void stepFaultPlane();
    void drainRetxQueue();

    /** Emit an instant fault event (tracer_ checked by the caller). */
    void traceFaultEvent(const char *name, int router,
                         const sim::Packet &pkt);

    PearlConfig cfg_;
    photonic::PowerModel routerPower_; //!< per-router scaled model
    photonic::PowerModel l3Power_;     //!< L3 router (waveguide group)
    PowerPolicy *policy_;
    WindowCollector collector_;
    obs::Tracer *tracer_ = nullptr;    //!< observability plane (optional)
    StepAuditor *auditor_ = nullptr;   //!< verification plane (optional)
    /** Per-router thermal lock state last traced (1 = locked); used to
     *  emit lock-transition events instead of one event per cycle. */
    std::vector<char> tracedLock_;
    std::vector<std::unique_ptr<PearlRouter>> routers_;
    sim::MinHeap<InFlightKey> inFlight_;
    /** Packets on a waveguide, indexed by InFlightKey::slot.  A slot is
     *  freed when its packet lands or is corrupted, and reused LIFO. */
    std::vector<sim::Packet> inFlightSlab_;
    std::vector<InFlightRecord> inFlightRecords_; //!< per slab slot
    std::vector<std::uint32_t> freeSlots_;
    std::vector<sim::Packet> delivered_;
    std::vector<photonic::ThermalRingBank> thermal_; //!< optional
    photonic::FaultInjector faults_;
    /** Per-source next sequence number (faults enabled only). */
    std::vector<std::uint64_t> nextSeq_;
    /** Per-source un-ACKed transmissions, keyed by sequence number. */
    std::vector<std::unordered_map<std::uint64_t, Outstanding>>
        outstanding_;
    sim::MinHeap<TimeoutEvent> timeouts_;
    sim::MinHeap<PendingRetx> retx_;
    sim::NetworkStats stats_;
    sim::Cycle cycle_ = 0;
    double trimmingEnergyJ_ = 0.0;
    double dynamicEnergyJ_ = 0.0;
    /** Grouped chips: per-group express reservation channels (slot pool
     *  + always-on laser energy).  Inert when cfg_.grouped() is false,
     *  so ungrouped chips stay bit-identical. */
    ExpressArbiter express_;
    double expressLaserEnergyJ_ = 0.0;
    /** Constants of the power model hoisted out of the cycle loop: the
     *  per-bit dynamic energy, and the trimming power per router per
     *  laser state (a pure function of both).  Values come from the
     *  same PowerModel calls the loop used to make, so the per-cycle
     *  energy accumulation is bit-identical. */
    double dynEnergyPerBitJ_ = 0.0;
    std::vector<std::array<double, photonic::kNumWlStates>> trimPowerW_;
    /** Per-router windowOffset(), precomputed for the boundary check. */
    std::vector<std::uint64_t> windowOffsets_;

    // Per-step scratch, hoisted out of step()/drainRetxQueue() so the
    // steady-state cycle loop performs no heap allocation.
    std::vector<InFlightKey> retryScratch_;
    std::vector<sim::Packet> doneScratch_;
    std::vector<int> bitsScratch_;
    std::vector<PendingRetx> blockedScratch_;
};

} // namespace core
} // namespace pearl

#endif // PEARL_CORE_NETWORK_HPP
