#include "core/router.hpp"

#include <cmath>

#include "common/log.hpp"

namespace pearl {
namespace core {

using sim::CoreType;
using sim::Cycle;
using sim::Packet;

PearlRouter::PearlRouter(int id, const PearlConfig &cfg,
                         const photonic::PowerModel &power_model,
                         const DbaConfig &dba_cfg, int waveguides)
    : id_(id), cfg_(cfg), waveguides_(waveguides), dba_(dba_cfg),
      inject_(cfg.cpuInjectSlots, cfg.gpuInjectSlots),
      rx_(cfg.rxSlotsPerClass, cfg.rxSlotsPerClass),
      laser_(power_model, cfg.laserTurnOnCycles, cfg.initialState),
      group_(cfg.groupOf(id))
{
    telemetry_.wavelengths = photonic::wavelengths(cfg.initialState);
}

bool
PearlRouter::canAccept(const Packet &pkt) const
{
    return inject_.of(pkt.coreType()).canAccept(pkt.numFlits());
}

bool
PearlRouter::inject(const Packet &pkt, Cycle now)
{
    Packet copy = pkt;
    copy.cycleInjected = now;
    if (!inject_.of(copy.coreType()).push(copy))
        return false;
    // Telemetry: the packet entered the router from the local cores or
    // caches and is the quantity the ML model predicts (the label).
    telemetry_.noteClass(copy.msgClass);
    ++telemetry_.incomingFromCores;
    ++telemetry_.packetsInjected;
    if (copy.request())
        ++telemetry_.requestsSent;
    else
        ++telemetry_.responsesSent;
    return true;
}

bool
PearlRouter::reinject(const Packet &pkt, Cycle now)
{
    Packet copy = pkt;
    copy.cycleInjected = now;
    if (!inject_.of(copy.coreType()).push(copy))
        return false;
    ++telemetry_.retransmitsQueued;
    return true;
}

int
PearlRouter::transmitClass(CoreType type, double share, int capacity_bits,
                           std::vector<TxCompletion> &done)
{
    sim::FlitBuffer &buf = inject_.of(type);
    TxChannel &ch = tx_[static_cast<int>(type)];

    if (buf.empty()) {
        // Nothing queued: credits don't bank across idle periods, and
        // the next packet's reservation can no longer hide behind data.
        ch.creditBits = 0;
        ch.backToBack = false;
        return 0;
    }

    if (!ch.active) {
        // New head packet.  The reservation broadcast runs on its own
        // waveguide, so it overlaps the previous packet's data: the
        // overhead is only exposed when the channel comes out of idle.
        if (express_ && cfg_.interGroup(id_, buf.front().dst)) {
            // Inter-group head: win an express slot from this group's
            // pool first.  The chip-wide express broadcast hides behind
            // the previous packet's data like the intra-group one; its
            // (longer) latency is exposed only out of idle.
            if (!express_->tryAcquire(group_, type)) {
                ++expressStallCycles_;
                return 0; // head-of-line stall until a slot frees
            }
            ch.holdsExpressSlot = true;
            ++expressAcquired_;
            ch.resRemaining =
                ch.backToBack ? 0 : cfg_.expressReservationCycles;
        } else {
            ch.resRemaining = ch.backToBack ? 0 : cfg_.reservationCycles;
        }
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

    // A waveguide group's serializers can drain packets side by side;
    // the single-waveguide (legacy) channel strictly serialises.
    int packet_budget = cfg_.multiPacketTx ? waveguides_ : 1;

    int sent_bits = 0;
    while (true) {
        while (ch.creditBits >= sim::kFlitBits && ch.flitsRemaining > 0) {
            ch.creditBits -= sim::kFlitBits;
            --ch.flitsRemaining;
            sent_bits += sim::kFlitBits;
        }
        if (ch.flitsRemaining > 0)
            break; // out of credit mid-packet; remainder carries over
        done.push_back(TxCompletion{buf.pop()});
        ch.active = false;
        ch.backToBack = true;
        if (ch.holdsExpressSlot) {
            // The slot covers the packet's whole serialisation; hand
            // it back only now so the group's express concurrency is
            // honest.
            express_->release(group_, type);
            ch.holdsExpressSlot = false;
        }
        --packet_budget;
        if (packet_budget <= 0 || buf.empty() ||
            ch.creditBits < sim::kFlitBits) {
            ch.creditBits = 0; // credits never bank across packets
            break;
        }
        // Another head this cycle (multi-packet drain): back-to-back,
        // so no reservation is exposed, but an inter-group head still
        // needs a slot from the pool.
        if (express_ && cfg_.interGroup(id_, buf.front().dst)) {
            if (!express_->tryAcquire(group_, type)) {
                ++expressStallCycles_;
                ch.creditBits = 0;
                break;
            }
            ch.holdsExpressSlot = true;
            ++expressAcquired_;
        }
        ch.active = true;
        ch.flitsRemaining = buf.front().numFlits();
    }
    return sent_bits;
}

int
PearlRouter::transmitQueued(Cycle now, std::vector<TxCompletion> &done)
{
    if (!laser_.stable(now))
        return 0; // lasers still stabilising after an upward switch

    const int capacity =
        photonic::bitsPerCycle(
            photonic::clampToCap(laser_.state(), wlCap_)) *
        waveguides_;

    int bits = 0;
    if (dba_.config().mode == DbaConfig::Mode::Fcfs) {
        // PEARL-FCFS baseline: no per-class allocation.  The whole link
        // serves one packet at a time in arrival order, so a GPU burst
        // can monopolise the channel — exactly the unfairness the DBA
        // exists to prevent.
        CoreType target;
        if (tx_[0].active) {
            target = CoreType::CPU;
        } else if (tx_[1].active) {
            target = CoreType::GPU;
        } else {
            const auto &cpu_buf = inject_.of(CoreType::CPU);
            const auto &gpu_buf = inject_.of(CoreType::GPU);
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
        bits = transmitClass(target, 1.0, capacity, done);
        if (target == CoreType::CPU)
            telemetry_.dbaCpuShareSum += 1.0;
        else
            telemetry_.dbaGpuShareSum += 1.0;
        ++telemetry_.dbaCycles;
    } else {
        const Allocation alloc =
            dba_.allocate(inject_.occupancy(CoreType::CPU),
                          inject_.occupancy(CoreType::GPU));
        telemetry_.dbaCpuShareSum += alloc.cpuShare;
        telemetry_.dbaGpuShareSum += alloc.gpuShare;
        ++telemetry_.dbaCycles;
        bits += transmitClass(CoreType::CPU, alloc.cpuShare, capacity,
                              done);
        bits += transmitClass(CoreType::GPU, alloc.gpuShare, capacity,
                              done);
    }
    if (bits > 0)
        ++telemetry_.linkBusyCycles;
    return bits;
}

bool
PearlRouter::rxEnqueue(const Packet &pkt)
{
    if (!rx_.of(pkt.coreType()).push(pkt))
        return false;
    telemetry_.noteClass(pkt.msgClass);
    ++telemetry_.incomingFromRouters;
    if (pkt.request())
        ++telemetry_.requestsReceived;
    else
        ++telemetry_.responsesReceived;
    return true;
}

void
PearlRouter::ejectQueued(Cycle now, std::vector<Packet> &delivered)
{
    int budget = cfg_.ejectFlitsPerCycle;
    // Round-robin between the class buffers so neither starves ejection.
    for (int i = 0; i < sim::kNumCoreTypes && budget > 0; ++i) {
        const int ci = (ejectRr_ + i) % sim::kNumCoreTypes;
        const CoreType type = static_cast<CoreType>(ci);
        sim::FlitBuffer &buf = rx_.of(type);
        int &progress = ejectProgress_[ci];
        while (budget > 0 && !buf.empty()) {
            if (progress == 0)
                progress = buf.front().numFlits();
            const int take = std::min(budget, progress);
            progress -= take;
            budget -= take;
            if (progress == 0) {
                Packet pkt = buf.pop();
                pkt.cycleDelivered = now;
                ++telemetry_.packetsToCore;
                delivered.push_back(pkt);
            }
        }
    }
}

double
PearlRouter::betaTotalMean() const
{
    return windowCycles_
               ? betaWindowSum_ / static_cast<double>(windowCycles_)
               : 0.0;
}

void
PearlRouter::resetWindow(photonic::WlState next_state)
{
    betaWindowSum_ = 0.0;
    windowCycles_ = 0;
    telemetry_.reset();
    telemetry_.wavelengths = photonic::wavelengths(next_state);
}

bool
PearlRouter::idle() const
{
    return inject_.empty() && rx_.empty();
}

} // namespace core
} // namespace pearl
