#include "verify/ref_network.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "core/router.hpp"

namespace pearl {
namespace verify {

using sim::CoreType;
using sim::Cycle;
using sim::Packet;

RefNetwork::RefNetwork(const core::PearlConfig &cfg,
                       const photonic::PowerModel &power,
                       const core::DbaConfig &dba,
                       core::PowerPolicy *policy)
    : cfg_(cfg),
      routerPower_(power.scaled(
          1.0 / static_cast<double>(cfg.numClusters +
                                    cfg.l3WaveguideGroup))),
      dba_(dba), policy_(policy)
{
    PEARL_ASSERT(policy_, "RefNetwork requires a power policy");
    PEARL_ASSERT(!cfg_.useThermalModel,
                 "the reference model excludes the thermal plane");
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
    routers_.resize(static_cast<std::size_t>(cfg_.numNodes()));
    for (int r = 0; r < cfg_.numNodes(); ++r) {
        RefRouter &router = routers_[static_cast<std::size_t>(r)];
        const bool is_l3 = r == cfg_.l3Node;
        router.id = r;
        router.waveguides = is_l3 ? cfg_.l3WaveguideGroup : 1;
        router.injectCap[0] = cfg_.cpuInjectSlots;
        router.injectCap[1] = cfg_.gpuInjectSlots;
        router.rxCap[0] = cfg_.rxSlotsPerClass;
        router.rxCap[1] = cfg_.rxSlotsPerClass;
        router.laser.model = is_l3 ? &l3Power_ : &routerPower_;
        router.laser.turnOnCycles = cfg_.laserTurnOnCycles;
        router.laser.state = cfg_.initialState;
        router.telemetry.wavelengths =
            photonic::wavelengths(cfg_.initialState);
    }
    if (cfg_.grouped()) {
        expressUse_.assign(static_cast<std::size_t>(cfg_.numGroups()),
                           {{0, 0}});
        expressCap_.assign(static_cast<std::size_t>(cfg_.numGroups()),
                           cfg_.resExpressSlots);
    }
}

void
RefNetwork::RefLaser::requestState(photonic::WlState next, Cycle now)
{
    if (next == state)
        return;
    if (photonic::indexOf(next) > photonic::indexOf(state)) {
        stableAt = now + turnOnCycles;
        ++upSwitches;
    } else {
        ++downSwitches;
    }
    state = next;
}

void
RefNetwork::RefLaser::tick(double dt)
{
    energyJ += model->laserPowerW(state) * dt;
    ++stateCycles[photonic::indexOf(state)];
    ++cycles;
}

double
RefNetwork::RefLaser::residency(photonic::WlState s) const
{
    return cycles ? static_cast<double>(
                        stateCycles[photonic::indexOf(s)]) /
                        static_cast<double>(cycles)
                  : 0.0;
}

int
RefNetwork::occupiedSlots(const std::deque<Packet> &buf)
{
    int slots = 0;
    for (const Packet &pkt : buf)
        slots += pkt.numFlits();
    return slots;
}

double
RefNetwork::occupancy(const std::deque<Packet> &buf, int cap)
{
    return static_cast<double>(occupiedSlots(buf)) /
           static_cast<double>(cap);
}

bool
RefNetwork::pushPacket(std::deque<Packet> &buf, int cap,
                       const Packet &pkt)
{
    if (pkt.numFlits() > cap - occupiedSlots(buf))
        return false;
    buf.push_back(pkt);
    return true;
}

bool
RefNetwork::canInject(const Packet &pkt) const
{
    const RefRouter &router = routers_[static_cast<std::size_t>(pkt.src)];
    const int type = static_cast<int>(pkt.coreType());
    return pkt.numFlits() <=
           router.injectCap[type] - occupiedSlots(router.inject[type]);
}

bool
RefNetwork::inject(const Packet &pkt)
{
    RefRouter &router = routers_[static_cast<std::size_t>(pkt.src)];
    Packet copy = pkt;
    copy.cycleInjected = cycle_;
    const int type = static_cast<int>(copy.coreType());
    if (!pushPacket(router.inject[type], router.injectCap[type], copy))
        return false;
    router.telemetry.noteClass(copy.msgClass);
    ++router.telemetry.incomingFromCores;
    ++router.telemetry.packetsInjected;
    if (copy.request())
        ++router.telemetry.requestsSent;
    else
        ++router.telemetry.responsesSent;
    stats_.noteInjected(pkt);
    return true;
}

core::Allocation
RefNetwork::allocate(const RefRouter &router) const
{
    const double beta_cpu =
        occupancy(router.inject[0], router.injectCap[0]);
    const double beta_gpu =
        occupancy(router.inject[1], router.injectCap[1]);
    if (dba_.mode == core::DbaConfig::Mode::PaperLadder) {
        if (beta_gpu == 0.0 && beta_cpu > 0.0)
            return {1.00, 0.00};
        if (beta_cpu == 0.0 && beta_gpu > 0.0)
            return {0.00, 1.00};
        if (beta_gpu < dba_.gpuUpperBound)
            return {0.75, 0.25};
        if (beta_cpu < dba_.cpuUpperBound)
            return {0.25, 0.75};
        return {0.50, 0.50};
    }
    if (dba_.mode == core::DbaConfig::Mode::Proportional) {
        if (beta_cpu == 0.0 && beta_gpu == 0.0)
            return {0.5, 0.5};
        const double raw = beta_cpu / (beta_cpu + beta_gpu);
        const double step = dba_.stepFraction;
        double cpu = std::round(raw / step) * step;
        cpu = std::min(1.0, std::max(0.0, cpu));
        return {cpu, 1.0 - cpu};
    }
    return {0.5, 0.5};
}

int
RefNetwork::transmitClass(RefRouter &router, CoreType type, double share,
                          int capacity_bits, std::vector<Packet> &done)
{
    std::deque<Packet> &buf = router.inject[static_cast<int>(type)];
    RefTxChannel &ch = router.tx[static_cast<int>(type)];

    if (buf.empty()) {
        ch.creditBits = 0;
        ch.backToBack = false;
        return 0;
    }

    // Inter-group head: the naive express pool, updated inline.  Same
    // acquisition rule as core::ExpressArbiter (whose classCap we share
    // as a leaf function), same order: the caller walks routers
    // ascending, CPU before GPU.
    const auto tryAcquireExpress = [&](const Packet &head) {
        if (!cfg_.grouped() || !cfg_.interGroup(router.id, head.dst))
            return true; // not an express packet: nothing to win
        const auto g = static_cast<std::size_t>(cfg_.groupOf(router.id));
        const int ci = static_cast<int>(type);
        const int total = expressUse_[g][0] + expressUse_[g][1];
        bool granted = total < expressCap_[g];
        if (granted && dba_.mode != core::DbaConfig::Mode::Fcfs)
            granted = expressUse_[g][ci] <
                      core::ExpressArbiter::classCap(expressCap_[g],
                                                     type);
        if (granted) {
            ++expressUse_[g][ci];
            ch.holdsExpressSlot = true;
        }
        return granted;
    };

    if (!ch.active) {
        const bool express_head =
            cfg_.grouped() && cfg_.interGroup(router.id, buf.front().dst);
        if (!tryAcquireExpress(buf.front()))
            return 0;
        ch.resRemaining =
            ch.backToBack ? 0
                          : (express_head ? cfg_.expressReservationCycles
                                          : cfg_.reservationCycles);
        ch.active = true;
        ch.flitsRemaining = buf.front().numFlits();
        ch.creditBits = 0;
    }

    if (ch.resRemaining > 0) {
        --ch.resRemaining;
        return 0;
    }

    const long bits =
        std::lround(share * static_cast<double>(capacity_bits));
    ch.creditBits += bits;

    int packet_budget = cfg_.multiPacketTx ? router.waveguides : 1;

    int sent_bits = 0;
    while (true) {
        while (ch.creditBits >= sim::kFlitBits && ch.flitsRemaining > 0) {
            ch.creditBits -= sim::kFlitBits;
            --ch.flitsRemaining;
            sent_bits += sim::kFlitBits;
        }
        if (ch.flitsRemaining > 0)
            break; // out of credit mid-packet; remainder carries over
        done.push_back(buf.front());
        buf.pop_front();
        ch.active = false;
        ch.backToBack = true;
        if (ch.holdsExpressSlot) {
            const auto g =
                static_cast<std::size_t>(cfg_.groupOf(router.id));
            --expressUse_[g][static_cast<int>(type)];
            ch.holdsExpressSlot = false;
        }
        --packet_budget;
        if (packet_budget <= 0 || buf.empty() ||
            ch.creditBits < sim::kFlitBits) {
            ch.creditBits = 0; // credits never bank across packets
            break;
        }
        if (!tryAcquireExpress(buf.front())) {
            ch.creditBits = 0;
            break;
        }
        ch.active = true;
        ch.flitsRemaining = buf.front().numFlits();
    }
    return sent_bits;
}

int
RefNetwork::transmitCycle(RefRouter &router, std::vector<Packet> &done)
{
    if (!router.laser.stable(cycle_))
        return 0;

    const int capacity =
        photonic::bitsPerCycle(
            photonic::clampToCap(router.laser.state, router.cap)) *
        router.waveguides;

    int bits = 0;
    if (dba_.mode == core::DbaConfig::Mode::Fcfs) {
        CoreType target;
        if (router.tx[0].active) {
            target = CoreType::CPU;
        } else if (router.tx[1].active) {
            target = CoreType::GPU;
        } else {
            const auto &cpu_buf = router.inject[0];
            const auto &gpu_buf = router.inject[1];
            if (cpu_buf.empty() && gpu_buf.empty())
                return 0;
            if (cpu_buf.empty()) {
                target = CoreType::GPU;
            } else if (gpu_buf.empty()) {
                target = CoreType::CPU;
            } else {
                target = cpu_buf.front().cycleInjected <=
                                 gpu_buf.front().cycleInjected
                             ? CoreType::CPU
                             : CoreType::GPU;
            }
        }
        bits = transmitClass(router, target, 1.0, capacity, done);
        if (target == CoreType::CPU)
            router.telemetry.dbaCpuShareSum += 1.0;
        else
            router.telemetry.dbaGpuShareSum += 1.0;
        ++router.telemetry.dbaCycles;
    } else {
        const core::Allocation alloc = allocate(router);
        router.telemetry.dbaCpuShareSum += alloc.cpuShare;
        router.telemetry.dbaGpuShareSum += alloc.gpuShare;
        ++router.telemetry.dbaCycles;
        bits += transmitClass(router, CoreType::CPU, alloc.cpuShare,
                              capacity, done);
        bits += transmitClass(router, CoreType::GPU, alloc.gpuShare,
                              capacity, done);
    }
    if (bits > 0)
        ++router.telemetry.linkBusyCycles;
    return bits;
}

void
RefNetwork::ejectCycle(RefRouter &router)
{
    int budget = cfg_.ejectFlitsPerCycle;
    for (int i = 0; i < sim::kNumCoreTypes && budget > 0; ++i) {
        const int ci = (router.ejectRr + i) % sim::kNumCoreTypes;
        std::deque<Packet> &buf = router.rx[ci];
        int &progress = router.ejectProgress[ci];
        while (budget > 0 && !buf.empty()) {
            if (progress == 0)
                progress = buf.front().numFlits();
            const int take = std::min(budget, progress);
            progress -= take;
            budget -= take;
            if (progress == 0) {
                Packet pkt = buf.front();
                buf.pop_front();
                pkt.cycleDelivered = cycle_;
                ++router.telemetry.packetsToCore;
                delivered_.push_back(pkt);
            }
        }
    }
    router.ejectRr = (router.ejectRr + 1) % sim::kNumCoreTypes;
}

void
RefNetwork::trackTransmission(const Packet &pkt)
{
    outstanding_[static_cast<std::size_t>(pkt.src)][pkt.seq] =
        Outstanding{pkt, pkt.attempt};
    timeouts_.push(TimeoutEvent{cycle_ + cfg_.ackTimeoutCycles, pkt.src,
                                pkt.seq, pkt.attempt});
}

void
RefNetwork::armRetry(Outstanding &&entry, Cycle delay)
{
    if (static_cast<int>(entry.attempt) >= cfg_.retryLimit) {
        stats_.noteDropped(entry.pkt);
        ++routers_[static_cast<std::size_t>(entry.pkt.src)]
              .telemetry.packetsDropped;
        return;
    }
    const int shift = std::min<int>(entry.attempt, 20);
    const Cycle backoff =
        std::min(cfg_.retxBackoffBase << shift, cfg_.retxBackoffMax);
    Packet pkt = entry.pkt;
    ++pkt.attempt;
    retx_.push(PendingRetx{cycle_ + delay + backoff, pkt});
}

void
RefNetwork::stepFaultPlane()
{
    faults_.step(cycle_);

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
        armRetry(std::move(entry), 0);
    }

    std::vector<PendingRetx> blocked;
    while (!retx_.empty() && retx_.top().due <= cycle_) {
        PendingRetx p = retx_.top();
        retx_.pop();
        RefRouter &src = routers_[static_cast<std::size_t>(p.pkt.src)];
        Packet copy = p.pkt;
        copy.cycleInjected = cycle_;
        const int type = static_cast<int>(copy.coreType());
        if (pushPacket(src.inject[type], src.injectCap[type], copy)) {
            ++src.telemetry.retransmitsQueued;
            stats_.noteRetransmit();
        } else {
            p.due = cycle_ + 1;
            blocked.push_back(std::move(p));
        }
    }
    for (auto &p : blocked)
        retx_.push(std::move(p));
}

void
RefNetwork::step()
{
    // 0. Fault plane.
    if (faults_.enabled())
        stepFaultPlane();

    // 1. Arrivals (full rx buffers retry next cycle, in pop order).
    std::vector<InFlight> retries;
    while (!inFlight_.empty() && inFlight_.top().due <= cycle_) {
        InFlight f = inFlight_.top();
        inFlight_.pop();
        RefRouter &dst = routers_[static_cast<std::size_t>(f.pkt.dst)];
        if (faults_.enabled() && !f.faultChecked) {
            f.faultChecked = true;
            auto &src_outstanding =
                outstanding_[static_cast<std::size_t>(f.pkt.src)];
            auto it = src_outstanding.find(f.pkt.seq);
            // Thermal plane excluded: rings locked, zero trim gap.
            if (faults_.corruptsPacket(f.pkt.dst, f.pkt.sizeBits, 0.0,
                                       true)) {
                stats_.noteCorrupted(f.pkt);
                ++dst.telemetry.corruptedArrivals;
                if (it != src_outstanding.end()) {
                    Outstanding entry = std::move(it->second);
                    src_outstanding.erase(it);
                    armRetry(std::move(entry),
                             static_cast<Cycle>(cfg_.linkLatencyCycles));
                }
                continue;
            }
            if (it != src_outstanding.end())
                src_outstanding.erase(it);
        }
        const int type = static_cast<int>(f.pkt.coreType());
        if (pushPacket(dst.rx[type], dst.rxCap[type], f.pkt)) {
            dst.telemetry.noteClass(f.pkt.msgClass);
            ++dst.telemetry.incomingFromRouters;
            if (f.pkt.request())
                ++dst.telemetry.requestsReceived;
            else
                ++dst.telemetry.responsesReceived;
        } else {
            stats_.noteRxRetry();
            f.due = cycle_ + 1;
            retries.push_back(std::move(f));
        }
    }
    for (auto &f : retries)
        inFlight_.push(std::move(f));

    // 1b. Group-local fault caps (mirrors the optimized stage 1b).
    if (cfg_.grouped() && faults_.enabled()) {
        const int gs = cfg_.reservationGroupSize;
        for (int g = 0; g < cfg_.numGroups(); ++g) {
            int failed = 0;
            for (int r = g * gs; r < (g + 1) * gs; ++r)
                failed += faults_.failedBanks(r);
            expressCap_[static_cast<std::size_t>(g)] =
                std::max(1, cfg_.resExpressSlots - failed);
        }
    }

    // 2. Transmit.
    for (int r = 0; r < cfg_.numNodes(); ++r) {
        RefRouter &router = routers_[static_cast<std::size_t>(r)];
        if (faults_.enabled())
            router.cap = faults_.wlCap(r);
        std::vector<Packet> done;
        const int bits = transmitCycle(router, done);
        dynamicEnergyJ_ += static_cast<double>(bits) *
                           routerPower_.dynamicEnergyPerBitJ();
        for (Packet &pkt : done) {
            if (faults_.enabled()) {
                if (pkt.attempt == 0)
                    pkt.seq = nextSeq_[static_cast<std::size_t>(r)]++;
                trackTransmission(pkt);
                if (faults_.dropsReservation(r)) {
                    stats_.noteReservationDrop();
                    continue;
                }
            }
            inFlight_.push(InFlight{
                cycle_ + static_cast<Cycle>(cfg_.linkLatencyCycles),
                pkt});
        }
    }

    // 3. Ejection.
    for (auto &router : routers_) {
        const std::size_t before = delivered_.size();
        ejectCycle(router);
        for (std::size_t i = before; i < delivered_.size(); ++i)
            stats_.noteDelivered(delivered_[i]);
    }

    // 4. Occupancy telemetry and power integration; the trimming power
    //    is recomputed from the power model every cycle (the optimized
    //    loop hoists it into a table — same pure function, same bits).
    for (auto &router : routers_) {
        sim::RouterTelemetry &t = router.telemetry;
        t.cpuCoreBufOccupancy +=
            occupancy(router.inject[0], router.injectCap[0]);
        t.gpuCoreBufOccupancy +=
            occupancy(router.inject[1], router.injectCap[1]);
        t.otherRouterCpuBufOccupancy +=
            occupancy(router.rx[0], router.rxCap[0]);
        t.otherRouterGpuBufOccupancy +=
            occupancy(router.rx[1], router.rxCap[1]);
        router.betaWindowSum +=
            occupancy(router.inject[0], router.injectCap[0]) +
            occupancy(router.inject[1], router.injectCap[1]);
        ++router.windowCycles;
        router.laser.tick(cfg_.cycleSeconds);
        trimmingEnergyJ_ +=
            routerPower_.trimmingPowerW(
                router.laser.state, cfg_.txRings * router.waveguides,
                cfg_.rxRings) *
            cfg_.cycleSeconds;
    }
    if (cfg_.grouped()) {
        expressLaserEnergyJ_ += static_cast<double>(cfg_.numGroups()) *
                                cfg_.expressResLaserW *
                                cfg_.cycleSeconds;
    }

    // 5. Reservation-window boundaries, modulo recomputed per router.
    const std::uint64_t rw = cfg_.reservationWindow;
    for (int r = 0; r < cfg_.numNodes(); ++r) {
        if (rw == 0 || cycle_ == 0)
            continue;
        const std::uint64_t offset =
            (static_cast<std::uint64_t>(cfg_.windowOffsetPerRouter) *
             static_cast<std::uint64_t>(r)) %
            rw;
        if (cycle_ % rw != offset)
            continue;
        RefRouter &router = routers_[static_cast<std::size_t>(r)];

        core::WindowObservation obs;
        obs.router = r;
        obs.isL3Router = r == cfg_.l3Node;
        obs.currentState = router.laser.state;
        obs.betaTotalMean =
            router.windowCycles
                ? router.betaWindowSum /
                      static_cast<double>(router.windowCycles)
                : 0.0;
        obs.telemetry = &router.telemetry;
        obs.windowCycles = cfg_.reservationWindow;
        obs.windowEnd = cycle_;
        obs.wlCeiling = faults_.wlCap(r);
        core::PolicyFeedback feedback;
        obs.feedback = &feedback;

        const photonic::WlState next = photonic::clampToCap(
            policy_->nextState(obs), obs.wlCeiling);

        if (feedback.guarded) {
            if (feedback.enteredFallback) {
                ++router.telemetry.policyFallbackEntries;
                stats_.noteFallbackEntry();
            }
            if (feedback.exitedFallback) {
                ++router.telemetry.policyFallbackExits;
                stats_.noteFallbackExit();
            }
            if (feedback.fallbackActive) {
                ++router.telemetry.policyFallbackWindows;
                stats_.noteFallbackWindow();
            }
        }

        router.laser.requestState(next, cycle_);
        router.betaWindowSum = 0.0;
        router.windowCycles = 0;
        router.telemetry.reset();
        router.telemetry.wavelengths = photonic::wavelengths(next);
    }

    ++cycle_;
}

bool
RefNetwork::idle() const
{
    if (!inFlight_.empty() || !retx_.empty())
        return false;
    if (faults_.enabled()) {
        for (const auto &src_outstanding : outstanding_) {
            if (!src_outstanding.empty())
                return false;
        }
    }
    for (const auto &router : routers_) {
        for (int c = 0; c < sim::kNumCoreTypes; ++c) {
            if (!router.inject[c].empty() || !router.rx[c].empty())
                return false;
        }
    }
    return true;
}

photonic::WlState
RefNetwork::laserState(int node) const
{
    return routers_[static_cast<std::size_t>(node)].laser.state;
}

bool
RefNetwork::laserStable(int node, Cycle now) const
{
    return routers_[static_cast<std::size_t>(node)].laser.stable(now);
}

photonic::WlState
RefNetwork::wlCap(int node) const
{
    return routers_[static_cast<std::size_t>(node)].cap;
}

std::uint64_t
RefNetwork::laserCycles(int node) const
{
    return routers_[static_cast<std::size_t>(node)].laser.cycles;
}

std::uint64_t
RefNetwork::upSwitches(int node) const
{
    return routers_[static_cast<std::size_t>(node)].laser.upSwitches;
}

std::uint64_t
RefNetwork::downSwitches(int node) const
{
    return routers_[static_cast<std::size_t>(node)].laser.downSwitches;
}

int
RefNetwork::bufferSlots(int node, bool rx, CoreType type) const
{
    const RefRouter &router = routers_[static_cast<std::size_t>(node)];
    const int c = static_cast<int>(type);
    return occupiedSlots(rx ? router.rx[c] : router.inject[c]);
}

sim::RouterTelemetry &
RefNetwork::telemetryOf(int node)
{
    return routers_[static_cast<std::size_t>(node)].telemetry;
}

double
RefNetwork::laserEnergyJ() const
{
    double total = expressLaserEnergyJ_;
    for (const auto &router : routers_)
        total += router.laser.energyJ;
    return total;
}

int
RefNetwork::expressInUse(int group) const
{
    const auto &u = expressUse_[static_cast<std::size_t>(group)];
    return u[0] + u[1];
}

int
RefNetwork::expressCap(int group) const
{
    return expressCap_[static_cast<std::size_t>(group)];
}

bool
RefNetwork::txHoldsExpress(int node, CoreType type) const
{
    return routers_[static_cast<std::size_t>(node)]
        .tx[static_cast<int>(type)]
        .holdsExpressSlot;
}

double
RefNetwork::residency(photonic::WlState s) const
{
    double total = 0.0;
    for (const auto &router : routers_)
        total += router.laser.residency(s);
    return total / static_cast<double>(routers_.size());
}

} // namespace verify
} // namespace pearl
