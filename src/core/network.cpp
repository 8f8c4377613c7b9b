#include "core/network.hpp"

#include <algorithm>
#include <cstdint>
#include <ostream>

#include "common/log.hpp"

namespace pearl {
namespace core {

using sim::Cycle;
using sim::Packet;

PearlNetwork::PearlNetwork(const PearlConfig &cfg,
                           const photonic::PowerModel &power,
                           const DbaConfig &dba, PowerPolicy *policy)
    : cfg_(cfg),
      // The paper's calibrated state powers are network-aggregate laser
      // figures; they are split across the chip's waveguide units (one
      // per cluster router + the MC node's waveguide group).
      routerPower_(power.scaled(
          1.0 / static_cast<double>(cfg.numClusters +
                                    cfg.l3WaveguideGroup))),
      policy_(policy)
{
    PEARL_ASSERT(policy_, "PearlNetwork requires a power policy");
    PEARL_ASSERT(cfg_.numNodes() <= UINT16_MAX,
                 "router ids must fit an in-flight record");
    l3Power_ = routerPower_.scaled(
        static_cast<double>(cfg_.l3WaveguideGroup));
    if (cfg_.faults.enabled) {
        PEARL_ASSERT(cfg_.ackTimeoutCycles >
                         2 * static_cast<std::uint64_t>(
                                 cfg_.linkLatencyCycles),
                     "ackTimeoutCycles must exceed the ACK round trip");
        faults_ = photonic::FaultInjector(cfg_.faults, cfg_.numNodes());
        nextSeq_.assign(static_cast<std::size_t>(cfg_.numNodes()), 0);
        outstanding_.resize(static_cast<std::size_t>(cfg_.numNodes()));
    }
    routers_.reserve(static_cast<std::size_t>(cfg_.numNodes()));
    // Reserve the event heaps, the in-flight slab and its records and
    // the per-step scratch once, here: 64 packets per router covers an
    // unsaturated chip.  A saturated receiver holds more — a 128-cluster
    // chip's MC hub keeps about 9k bounced arrivals in flight against
    // 8,256 reserved — so those vectors grow a few times early in such a
    // run, then stay put.
    const std::size_t inflight_bound =
        static_cast<std::size_t>(cfg_.numNodes()) * 64;
    inFlight_.reserve(inflight_bound);
    inFlightSlab_.reserve(inflight_bound);
    inFlightRecords_.reserve(inflight_bound);
    freeSlots_.reserve(inflight_bound);
    retryScratch_.reserve(inflight_bound);
    doneScratch_.reserve(64);
    bitsScratch_.assign(static_cast<std::size_t>(cfg_.numNodes()), 0);
    if (cfg_.faults.enabled) {
        timeouts_.reserve(inflight_bound);
        retx_.reserve(inflight_bound);
        blockedScratch_.reserve(inflight_bound);
    }
    if (cfg_.grouped()) {
        // Per-group DBA: a class-aware allocator also partitions the
        // express pool between the classes.
        express_.configure(cfg_.numGroups(), cfg_.resExpressSlots,
                           dba.mode != DbaConfig::Mode::Fcfs);
    }
    Rng thermal_rng(0xA11CE);
    for (int r = 0; r < cfg_.numNodes(); ++r) {
        const bool is_l3 = r == cfg_.l3Node;
        routers_.push_back(std::make_unique<PearlRouter>(
            r, cfg_, is_l3 ? l3Power_ : routerPower_, dba,
            is_l3 ? cfg_.l3WaveguideGroup : 1));
        if (cfg_.grouped())
            routers_.back()->setExpressArbiter(&express_);
        if (cfg_.useThermalModel) {
            const int rings =
                cfg_.txRings * (is_l3 ? cfg_.l3WaveguideGroup : 1) +
                cfg_.rxRings;
            thermal_.emplace_back(cfg_.thermal, rings,
                                  thermal_rng.fork());
        }
    }
    windowOffsets_.resize(static_cast<std::size_t>(cfg_.numNodes()), 0);
    if (cfg_.reservationWindow > 0) {
        for (int r = 0; r < cfg_.numNodes(); ++r)
            windowOffsets_[static_cast<std::size_t>(r)] =
                windowOffset(cfg_, r);
    }
    dynEnergyPerBitJ_ = routerPower_.dynamicEnergyPerBitJ();
    trimPowerW_.resize(routers_.size());
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        const int tx_rings = cfg_.txRings * routers_[r]->waveguides();
        for (int s = 0; s < photonic::kNumWlStates; ++s) {
            trimPowerW_[r][static_cast<std::size_t>(s)] =
                routerPower_.trimmingPowerW(photonic::kWlStates[
                    static_cast<std::size_t>(s)], tx_rings, cfg_.rxRings);
        }
    }
}

std::uint64_t
PearlNetwork::windowOffset(const PearlConfig &cfg, int router)
{
    return (static_cast<std::uint64_t>(cfg.windowOffsetPerRouter) *
            static_cast<std::uint64_t>(router)) %
           cfg.reservationWindow;
}

std::uint64_t
PearlNetwork::windowDecisions(const PearlConfig &cfg, Cycle cycles)
{
    const std::uint64_t rw = cfg.reservationWindow;
    if (rw == 0 || cycles < 2)
        return 0;
    // Stage 5 runs at cycles 0 .. cycles-1 and skips cycle 0, so router
    // r decides at phase, phase + rw, ... in [1, last] (rw, 2 rw, ...
    // when its phase is 0).
    const std::uint64_t last = cycles - 1;
    std::uint64_t decisions = 0;
    for (int r = 0; r < cfg.numNodes(); ++r) {
        const std::uint64_t phase = windowOffset(cfg, r);
        const std::uint64_t first = phase == 0 ? rw : phase;
        if (first <= last)
            decisions += (last - first) / rw + 1;
    }
    return decisions;
}

bool
PearlNetwork::canInject(const Packet &pkt) const
{
    return routers_[static_cast<std::size_t>(pkt.src)]->canAccept(pkt);
}

bool
PearlNetwork::inject(const Packet &pkt)
{
    auto &router = *routers_[static_cast<std::size_t>(pkt.src)];
    if (!router.inject(pkt, cycle_))
        return false;
    stats_.noteInjected(pkt);
    return true;
}

void
PearlNetwork::step()
{
    // 0. Fault plane: advance bank fail/repair processes, fire ACK
    //    timeouts, and re-enter due retransmissions at their sources.
    if (faults_.enabled())
        stepFaultPlane();

    // In-flight keys hold a 32-bit due: this step's bounces land at
    // cycle_ + 1 and its launches at cycle_ + linkLatencyCycles.
    PEARL_ASSERT(cycle_ + static_cast<Cycle>(
                              std::max(1, cfg_.linkLatencyCycles)) <=
                     UINT32_MAX,
                 "in-flight due no longer fits 32 bits at cycle ", cycle_);

    // 1. Land due arrivals into receive buffers; full buffers retry.
    retryScratch_.clear();
    while (!inFlight_.empty() && inFlight_.top().due <= cycle_) {
        const std::uint32_t slot = inFlight_.top().slot;
        inFlight_.pop();
        InFlightRecord &rec = inFlightRecords_[slot];
        auto &dst = *routers_[rec.dst];
        if (faults_.enabled() && !rec.faultChecked) {
            // One BER draw per arrival (not per rx-buffer retry).
            rec.faultChecked = true;
            const Packet &pkt = inFlightSlab_[slot];
            double trim_gap = 0.0;
            bool locked = true;
            receiverThermal(pkt.dst, trim_gap, locked);
            auto &src_outstanding =
                outstanding_[static_cast<std::size_t>(pkt.src)];
            auto it = src_outstanding.find(pkt.seq);
            if (faults_.corruptsPacket(pkt.dst, pkt.sizeBits, trim_gap,
                                       locked)) {
                // Bad CRC at the receiver: NACK the source.  The NACK
                // rides the (ideal) control plane back in one link
                // latency, then the bounded backoff applies.
                stats_.noteCorrupted(pkt);
                ++dst.telemetry().corruptedArrivals;
                if (tracer_)
                    traceFaultEvent("corrupt", pkt.dst, pkt);
                if (it != src_outstanding.end()) {
                    Outstanding entry = std::move(it->second);
                    src_outstanding.erase(it);
                    armRetry(std::move(entry),
                             static_cast<Cycle>(cfg_.linkLatencyCycles));
                }
                // Corrupted flits never enter the rx buffer.
                freeSlots_.push_back(slot);
                continue;
            }
            // Clean arrival: the ACK retires the source's copy.  The
            // rx-buffer retry loop below is lossless, so acknowledging
            // here cannot create duplicates.
            if (it != src_outstanding.end())
                src_outstanding.erase(it);
        }
        // The record alone decides a bounce, so a full rx buffer costs
        // a heap pop and push of the key and never touches the packet.
        if (!dst.rxBuffers().of(rec.type).canAccept(rec.flits)) {
            stats_.noteRxRetry();
            retryScratch_.push_back(
                InFlightKey{static_cast<std::uint32_t>(cycle_ + 1), slot});
            continue;
        }
        const bool landed = dst.rxEnqueue(inFlightSlab_[slot]);
        PEARL_ASSERT(landed, "rx buffer refused a packet it had room for");
        freeSlots_.push_back(slot);
    }
    for (const InFlightKey &k : retryScratch_)
        inFlight_.push(k);

    // 1b. Group-local fault caps: a group's express pool shrinks with
    //     its own failed laser banks (never below one slot), so a sick
    //     domain cannot drag the others' express bandwidth down.
    if (cfg_.grouped() && faults_.enabled()) {
        const int gs = cfg_.reservationGroupSize;
        for (int g = 0; g < cfg_.numGroups(); ++g) {
            int failed = 0;
            for (int r = g * gs; r < (g + 1) * gs; ++r)
                failed += faults_.failedBanks(r);
            express_.setCap(
                g, std::max(1, cfg_.resExpressSlots - failed));
        }
    }

    // 2. Transmit: serialise flits onto each router's waveguide.
    // Routers run in ascending id (CPU class before GPU within each),
    // which is also the express-slot arbitration order on grouped
    // chips — deterministic and mirrored by verify::RefNetwork.
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        auto &router = routers_[r];
        if (faults_.enabled())
            router->setWlCap(faults_.wlCap(static_cast<int>(r)));
        doneScratch_.clear();
        const int bits = router->transmitCycle(cycle_, doneScratch_);
        bitsScratch_[r] = bits;
        dynamicEnergyJ_ +=
            static_cast<double>(bits) * dynEnergyPerBitJ_;
        for (Packet &pkt : doneScratch_) {
            if (faults_.enabled()) {
                if (pkt.attempt == 0)
                    pkt.seq = nextSeq_[r]++;
                trackTransmission(pkt);
                if (faults_.dropsReservation(static_cast<int>(r))) {
                    // The receive rings were never tuned: the flits
                    // sail past an untuned detector.  Only the ACK
                    // timeout recovers this loss.
                    stats_.noteReservationDrop();
                    if (tracer_)
                        traceFaultEvent("res_drop", static_cast<int>(r),
                                        pkt);
                    continue;
                }
            }
            launch(std::move(pkt),
                   cycle_ + static_cast<Cycle>(cfg_.linkLatencyCycles));
        }
    }

    // 3. Ejection to the local cores/caches.
    for (auto &router : routers_) {
        const std::size_t before = delivered_.size();
        router->ejectCycle(cycle_, delivered_);
        for (std::size_t i = before; i < delivered_.size(); ++i)
            stats_.noteDelivered(delivered_[i]);
    }

    // 4. Occupancy telemetry and power integration.
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        auto &router = routers_[r];
        router->accumulateOccupancy();
        router->laser().tick(cfg_.cycleSeconds);
        if (cfg_.useThermalModel) {
            // Switching activity (transceiver + laser share) heats the
            // bank; the heater controller sets the trimming power.
            const double activity_w =
                bitsScratch_[r] * dynEnergyPerBitJ_ /
                    cfg_.cycleSeconds +
                routerPower_.laserPowerW(router->laser().state());
            auto &bank = thermal_[r];
            bank.step(activity_w, cfg_.cycleSeconds);
            trimmingEnergyJ_ += bank.heaterPowerW() * cfg_.cycleSeconds;
            if (!bank.locked()) {
                // Loss of lock is counted even with the fault plane
                // off; with it on, the BER model also reacts (stage 1).
                stats_.noteThermalUnlocked(static_cast<int>(r));
                ++router->telemetry().outOfLockCycles;
            }
            if (tracer_) {
                // Trace lock *transitions*, not one event per
                // unlocked cycle.
                if (tracedLock_.size() != routers_.size())
                    tracedLock_.assign(routers_.size(), 1);
                const char locked_now = bank.locked() ? 1 : 0;
                if (tracedLock_[r] != locked_now) {
                    tracedLock_[r] = locked_now;
                    obs::TraceEvent e;
                    e.cat = obs::Category::Fault;
                    e.name = locked_now ? "thermal_relock"
                                        : "thermal_unlock";
                    e.ts = cycle_;
                    e.tid = static_cast<int>(r) + 1;
                    tracer_->record(std::move(e));
                }
            }
        } else {
            trimmingEnergyJ_ +=
                trimPowerW_[r][static_cast<std::size_t>(
                    static_cast<int>(router->laser().state()))] *
                cfg_.cycleSeconds;
        }
    }
    // Grouped chips keep one always-on express reservation channel per
    // group; ungrouped chips accrue nothing here (bit-identity).
    if (cfg_.grouped()) {
        expressLaserEnergyJ_ += static_cast<double>(cfg_.numGroups()) *
                                cfg_.expressResLaserW *
                                cfg_.cycleSeconds;
    }

    // 5. Reservation-window boundaries (staggered per router).  Router
    // r's window ends at every cycle c > 0 with
    // c % rw == windowOffset(cfg_, r), the rule windowDecisions()
    // counts; the offsets are precomputed, so one shared `cycle_ % rw`
    // serves every router.
    const std::uint64_t rw = cfg_.reservationWindow;
    const std::uint64_t now_mod = rw ? cycle_ % rw : 0;
    for (int r = 0; r < cfg_.numNodes(); ++r) {
        if (rw == 0 || cycle_ == 0 ||
            windowOffsets_[static_cast<std::size_t>(r)] != now_mod)
            continue;
        auto &router = *routers_[static_cast<std::size_t>(r)];

        WindowObservation obs;
        obs.router = r;
        obs.isL3Router = r == cfg_.l3Node;
        obs.currentState = router.laser().state();
        obs.betaTotalMean = router.betaTotalMean();
        obs.telemetry = &router.telemetry();
        obs.windowCycles = cfg_.reservationWindow;
        obs.windowEnd = cycle_;
        obs.wlCeiling = faults_.wlCap(r);

        DecisionTrace decision;
        if (tracer_)
            obs.decision = &decision;
        PolicyFeedback feedback;
        obs.feedback = &feedback;

        // Clamp the policy's choice to what the surviving laser banks
        // can sustain: policies degrade instead of commanding (and
        // paying stabilisation for) unavailable states.
        const photonic::WlState next = photonic::clampToCap(
            policy_->nextState(obs), obs.wlCeiling);

        // Guard-layer outcome: count fallback transitions/windows into
        // the closing window's telemetry (before the collector snapshot
        // and the reset below) and the run-wide stats.
        if (feedback.guarded) {
            sim::RouterTelemetry &t = router.telemetry();
            if (feedback.enteredFallback) {
                ++t.policyFallbackEntries;
                stats_.noteFallbackEntry();
            }
            if (feedback.exitedFallback) {
                ++t.policyFallbackExits;
                stats_.noteFallbackExit();
            }
            if (feedback.fallbackActive) {
                ++t.policyFallbackWindows;
                stats_.noteFallbackWindow();
            }
            if (tracer_ &&
                (feedback.enteredFallback || feedback.exitedFallback)) {
                obs::TraceEvent fb;
                fb.cat = obs::Category::Fault;
                fb.name = "policy_fallback";
                fb.ts = cycle_;
                fb.tid = r + 1;
                fb.arg("active", feedback.fallbackActive ? 1.0 : 0.0)
                    .arg("window_error", feedback.windowError)
                    .arg("clamped",
                         feedback.clampedPrediction ? 1.0 : 0.0);
                tracer_->record(std::move(fb));
            }
        }

        if (tracer_) {
            const sim::RouterTelemetry &t = router.telemetry();
            obs::TraceEvent wl;
            wl.cat = obs::Category::Wavelength;
            wl.name = photonic::toString(next);
            wl.ts = cycle_;
            wl.tid = r + 1;
            wl.arg("state_from",
                   photonic::indexOf(router.laser().state()))
                .arg("state_chosen", photonic::indexOf(next))
                .arg("state_cap", photonic::indexOf(obs.wlCeiling))
                .arg("beta_total", obs.betaTotalMean)
                .arg("packets_injected",
                     static_cast<double>(t.packetsInjected));
            if (decision.hasPrediction) {
                wl.arg("predicted_packets", decision.predictedPackets);
                for (std::size_t i = 0; i < decision.features.size();
                     ++i)
                    wl.arg("f" + std::to_string(i),
                           decision.features[i]);
            }
            tracer_->record(std::move(wl));

            obs::TraceEvent dba;
            dba.cat = obs::Category::Dba;
            dba.name = "dba_window";
            dba.ts = cycle_;
            dba.tid = r + 1;
            const double dba_cycles =
                t.dbaCycles ? static_cast<double>(t.dbaCycles) : 1.0;
            dba.arg("cpu_share_mean", t.dbaCpuShareSum / dba_cycles)
                .arg("gpu_share_mean", t.dbaGpuShareSum / dba_cycles)
                .arg("dba_cycles", static_cast<double>(t.dbaCycles))
                .arg("beta_total", obs.betaTotalMean);
            tracer_->record(std::move(dba));
        }

        if (collector_) {
            WindowRecord rec;
            rec.router = r;
            rec.windowEnd = cycle_;
            rec.windowCycles = cfg_.reservationWindow;
            rec.betaTotalMean = obs.betaTotalMean;
            rec.stateDuringWindow = router.laser().state();
            rec.stateChosen = next;
            rec.telemetry = router.telemetry();
            collector_(rec);
        }

        router.laser().requestState(next, cycle_);
        router.resetWindow(next);
    }

    // Verification plane: the auditor sees the post-step state tagged
    // with the cycle that just executed.
    if (auditor_)
        auditor_->afterStep(*this);

    ++cycle_;
}

void
PearlNetwork::receiverThermal(int node, double &trim_gap_c,
                              bool &locked) const
{
    trim_gap_c = 0.0;
    locked = true;
    if (!cfg_.useThermalModel)
        return;
    const auto &bank = thermal_[static_cast<std::size_t>(node)];
    locked = bank.locked();
    trim_gap_c = std::max(
        0.0, bank.config().lockPointC - bank.dieTemperatureC());
}

void
PearlNetwork::trackTransmission(const Packet &pkt)
{
    auto &src_outstanding =
        outstanding_[static_cast<std::size_t>(pkt.src)];
    src_outstanding[pkt.seq] = Outstanding{pkt, pkt.attempt};
    timeouts_.push(TimeoutEvent{cycle_ + cfg_.ackTimeoutCycles, pkt.src,
                                pkt.seq, pkt.attempt});
}

void
PearlNetwork::launch(Packet &&pkt, Cycle due)
{
    const int flits = pkt.numFlits();
    PEARL_ASSERT(flits < 128, "packet too large for an in-flight record");
    const InFlightRecord rec{static_cast<std::uint16_t>(pkt.dst),
                             pkt.coreType(),
                             static_cast<std::uint8_t>(flits), false};
    InFlightKey key{static_cast<std::uint32_t>(due), 0};
    if (freeSlots_.empty()) {
        PEARL_ASSERT(inFlightSlab_.size() < UINT32_MAX);
        key.slot = static_cast<std::uint32_t>(inFlightSlab_.size());
        inFlightSlab_.push_back(std::move(pkt));
        inFlightRecords_.push_back(rec);
    } else {
        key.slot = freeSlots_.back();
        freeSlots_.pop_back();
        inFlightSlab_[key.slot] = std::move(pkt);
        inFlightRecords_[key.slot] = rec;
    }
    inFlight_.push(key);
}

void
PearlNetwork::armRetry(Outstanding &&entry, Cycle delay)
{
    if (static_cast<int>(entry.attempt) >= cfg_.retryLimit) {
        // Retry budget spent: the loss is surfaced as a counted drop,
        // never silently swallowed.
        stats_.noteDropped(entry.pkt);
        ++routers_[static_cast<std::size_t>(entry.pkt.src)]
              ->telemetry()
              .packetsDropped;
        if (tracer_)
            traceFaultEvent("drop", entry.pkt.src, entry.pkt);
        return;
    }
    // Bounded exponential backoff keyed on the attempt that failed.
    const int shift = std::min<int>(entry.attempt, 20);
    const Cycle backoff =
        std::min(cfg_.retxBackoffBase << shift, cfg_.retxBackoffMax);
    Packet pkt = std::move(entry.pkt);
    ++pkt.attempt;
    retx_.push(PendingRetx{cycle_ + delay + backoff, std::move(pkt)});
}

void
PearlNetwork::traceFaultEvent(const char *name, int router,
                              const Packet &pkt)
{
    obs::TraceEvent e;
    e.cat = obs::Category::Fault;
    e.name = name;
    e.ts = cycle_;
    e.tid = router + 1;
    e.arg("src", pkt.src)
        .arg("dst", pkt.dst)
        .arg("seq", static_cast<double>(pkt.seq))
        .arg("attempt", pkt.attempt)
        .arg("size_bits", pkt.sizeBits);
    tracer_->record(std::move(e));
}

void
PearlNetwork::stepFaultPlane()
{
    const std::uint64_t fails_before = faults_.bankFailures();
    const std::uint64_t repairs_before = faults_.bankRepairs();
    faults_.step(cycle_);
    if (tracer_) {
        // Bank fail/repair counts only move inside step(); surface the
        // deltas as instant events on the run track.
        for (const auto &[name, delta] :
             {std::pair<const char *, std::uint64_t>{
                  "bank_failure", faults_.bankFailures() - fails_before},
              std::pair<const char *, std::uint64_t>{
                  "bank_repair",
                  faults_.bankRepairs() - repairs_before}}) {
            if (!delta)
                continue;
            obs::TraceEvent e;
            e.cat = obs::Category::Fault;
            e.name = name;
            e.ts = cycle_;
            e.arg("count", static_cast<double>(delta));
            tracer_->record(std::move(e));
        }
    }

    // ACK timeouts: a fired event only matters when the exact
    // transmission attempt it guards is still un-ACKed (reservation
    // drops are the one loss mode with no NACK).
    while (!timeouts_.empty() && timeouts_.top().due <= cycle_) {
        const TimeoutEvent evt = timeouts_.top();
        timeouts_.pop();
        auto &src_outstanding =
            outstanding_[static_cast<std::size_t>(evt.src)];
        auto it = src_outstanding.find(evt.seq);
        if (it == src_outstanding.end() ||
            it->second.attempt != evt.attempt)
            continue;
        stats_.noteAckTimeout();
        Outstanding entry = std::move(it->second);
        src_outstanding.erase(it);
        if (tracer_)
            traceFaultEvent("ack_timeout", evt.src, entry.pkt);
        armRetry(std::move(entry), 0);
    }

    drainRetxQueue();
}

void
PearlNetwork::drainRetxQueue()
{
    // Due retransmissions re-enter their source's outbound queue; a
    // full buffer pushes back one cycle at a time.
    blockedScratch_.clear();
    while (!retx_.empty() && retx_.top().due <= cycle_) {
        PendingRetx p = retx_.top();
        retx_.pop();
        auto &src = *routers_[static_cast<std::size_t>(p.pkt.src)];
        if (src.reinject(p.pkt, cycle_)) {
            stats_.noteRetransmit();
            if (tracer_)
                traceFaultEvent("retx", p.pkt.src, p.pkt);
        } else {
            p.due = cycle_ + 1;
            blockedScratch_.push_back(std::move(p));
        }
    }
    for (auto &p : blockedScratch_)
        retx_.push(std::move(p));
}

bool
PearlNetwork::idle() const
{
    if (!inFlight_.empty())
        return false;
    if (!retx_.empty())
        return false;
    if (faults_.enabled()) {
        for (const auto &src_outstanding : outstanding_) {
            if (!src_outstanding.empty())
                return false;
        }
    }
    for (const auto &router : routers_) {
        if (!router->idle())
            return false;
    }
    return true;
}

void
PearlNetwork::describeState(std::ostream &os) const
{
    os << "PearlNetwork @ cycle " << cycle_ << ": inFlight="
       << inFlight_.size() << " pendingRetx=" << retx_.size()
       << " dropped=" << stats_.droppedPackets() << "\n";
    if (cfg_.grouped()) {
        os << "  express groups:";
        for (int g = 0; g < cfg_.numGroups(); ++g)
            os << " g" << g << "=" << express_.inUse(g) << "/"
               << express_.cap(g);
        os << " | acquired " << expressAcquired() << " stalls "
           << expressStallCycles() << "\n";
    }
    for (std::size_t r = 0; r < routers_.size(); ++r) {
        const auto &router = *routers_[r];
        const auto &inj = router.injectBuffers();
        const auto &rx = router.rxBuffers();
        os << "  router " << r << ": state "
           << photonic::toString(router.laser().state()) << " cap "
           << photonic::toString(router.wlCap()) << " | inject cpu/gpu "
           << inj.of(sim::CoreType::CPU).occupiedSlots() << "/"
           << inj.of(sim::CoreType::GPU).occupiedSlots()
           << " slots | rx cpu/gpu "
           << rx.of(sim::CoreType::CPU).occupiedSlots() << "/"
           << rx.of(sim::CoreType::GPU).occupiedSlots() << " slots";
        if (faults_.enabled()) {
            os << " | unacked "
               << outstanding_[r].size() << " failedBanks "
               << faults_.failedBanks(static_cast<int>(r));
        }
        os << "\n";
    }
}

double
PearlNetwork::laserEnergyJ() const
{
    double total = expressLaserEnergyJ_;
    for (const auto &router : routers_)
        total += router->laser().energyJ();
    return total;
}

std::uint64_t
PearlNetwork::expressAcquired() const
{
    std::uint64_t total = 0;
    for (const auto &router : routers_)
        total += router->expressAcquired();
    return total;
}

std::uint64_t
PearlNetwork::expressStallCycles() const
{
    std::uint64_t total = 0;
    for (const auto &router : routers_)
        total += router->expressStallCycles();
    return total;
}

double
PearlNetwork::staticEnergyJ() const
{
    return cfg_.routerStaticW * static_cast<double>(cfg_.numNodes()) *
           static_cast<double>(cycle_) * cfg_.cycleSeconds;
}

double
PearlNetwork::totalEnergyJ() const
{
    return laserEnergyJ() + trimmingEnergyJ() + dynamicEnergyJ() +
           staticEnergyJ();
}

double
PearlNetwork::averageLaserPowerW() const
{
    if (cycle_ == 0)
        return 0.0;
    return laserEnergyJ() /
           (static_cast<double>(cycle_) * cfg_.cycleSeconds);
}

double
PearlNetwork::thermalUnlockedFraction() const
{
    if (thermal_.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &bank : thermal_)
        total += bank.unlockedFraction();
    return total / static_cast<double>(thermal_.size());
}

AuditCounts
PearlNetwork::auditCounts() const
{
    AuditCounts c;
    c.injected = stats_.injectedPackets();
    c.retransmitted = stats_.retransmittedPackets();
    c.delivered = stats_.deliveredPackets();
    c.dropped = stats_.droppedPackets();
    for (const auto &router : routers_) {
        const auto &inj = router->injectBuffers();
        const auto &rx = router->rxBuffers();
        c.buffered += inj.of(sim::CoreType::CPU).packetCount() +
                      inj.of(sim::CoreType::GPU).packetCount() +
                      rx.of(sim::CoreType::CPU).packetCount() +
                      rx.of(sim::CoreType::GPU).packetCount();
    }
    c.inFlight = inFlight_.size();
    PEARL_ASSERT(inFlightSlab_.size() - freeSlots_.size() == c.inFlight,
                 "in-flight slab leaked or double-freed a slot");
    for (const InFlightKey &k : inFlight_.items()) {
        if (!inFlightRecords_[k.slot].faultChecked)
            ++c.inFlightUnchecked;
    }
    c.retxQueued = retx_.size();
    for (const auto &src_outstanding : outstanding_)
        c.outstanding += src_outstanding.size();
    return c;
}

double
PearlNetwork::residency(photonic::WlState s) const
{
    double total = 0.0;
    for (const auto &router : routers_)
        total += router->laser().residency(s);
    return total / static_cast<double>(routers_.size());
}

} // namespace core
} // namespace pearl
