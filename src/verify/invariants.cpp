#include "verify/invariants.hpp"

#include <sstream>

#include "sim/packet.hpp"

namespace pearl {
namespace verify {

namespace {

[[noreturn]] void
fail(sim::Cycle cycle, const std::string &what)
{
    std::ostringstream os;
    os << "invariant violated at cycle " << cycle << ": " << what;
    throw InvariantViolation(os.str());
}

} // namespace

std::optional<std::string>
checkConservation(const core::AuditCounts &c, bool faults_enabled)
{
    // Every in-flight instance that has not had its fault check yet
    // still owns an outstanding source copy; subtracting it leaves the
    // copies whose instance is already gone — reservation drops waiting
    // out their ACK timeout (corrupted arrivals are NACKed and requeued
    // immediately, so they never sit in limbo).
    std::uint64_t limbo = 0;
    if (faults_enabled) {
        if (c.outstanding < c.inFlightUnchecked) {
            std::ostringstream os;
            os << "outstanding ACK copies (" << c.outstanding
               << ") fewer than unchecked in-flight packets ("
               << c.inFlightUnchecked << ")";
            return os.str();
        }
        limbo = c.outstanding - c.inFlightUnchecked;
    }
    // Each accepted packet is, at all times, in exactly one place.
    // Retransmissions do not enter the ledger: a reinjection creates a
    // new instance but consumes one queued loss, so the two sides of
    // that exchange cancel and the balance stays pinned to `injected`.
    const std::uint64_t accounted = c.delivered + c.dropped + c.buffered +
                                    c.inFlight + c.retxQueued + limbo;
    if (c.injected != accounted) {
        std::ostringstream os;
        os << "packet conservation: injected(" << c.injected
           << ") != delivered(" << c.delivered << ") + dropped("
           << c.dropped << ") + buffered(" << c.buffered
           << ") + inFlight(" << c.inFlight << ") + retxQueued("
           << c.retxQueued << ") + limbo(" << limbo
           << ") = " << accounted;
        return os.str();
    }
    return std::nullopt;
}

void
Invariants::afterStep(const core::PearlNetwork &net)
{
    const sim::Cycle now = net.cycle();
    const core::PearlConfig &cfg = net.config();
    const bool faults = net.faults().enabled();

    // 1. Packet conservation across the whole fabric.
    if (auto violation = checkConservation(net.auditCounts(), faults))
        fail(now, *violation);

    // Per-group express-slot tally (grouped chips), rebuilt from the
    // channel snapshots and reconciled against the arbiter below.
    std::vector<int> expressHeld(
        cfg.grouped() ? static_cast<std::size_t>(cfg.numGroups()) : 0, 0);

    for (int r = 0; r < net.numNodes(); ++r) {
        const core::PearlRouter &router = net.router(r);

        // 2. Buffer bounds from the RingQueue capacities.
        for (const auto *pool :
             {&router.injectBuffers(), &router.rxBuffers()}) {
            for (auto type : {sim::CoreType::CPU, sim::CoreType::GPU}) {
                const sim::FlitBuffer &buf = pool->of(type);
                const int occupied = buf.occupiedSlots();
                if (occupied < 0 || occupied > buf.capacitySlots()) {
                    std::ostringstream os;
                    os << "router " << r << " buffer occupancy "
                       << occupied << " outside [0, "
                       << buf.capacitySlots() << "]";
                    fail(now, os.str());
                }
                if (buf.packetCount() >
                    static_cast<std::size_t>(occupied)) {
                    std::ostringstream os;
                    os << "router " << r << " holds "
                       << buf.packetCount() << " packets in " << occupied
                       << " occupied slots";
                    fail(now, os.str());
                }
            }
        }

        // 3. Transmit-channel legality: credit accumulates only on an
        //    active channel past its reservation and never reaches a
        //    whole flit (it would have been drained); the remaining
        //    flit count always refers to the head packet.
        for (auto type : {sim::CoreType::CPU, sim::CoreType::GPU}) {
            const auto tx = router.txAudit(type);
            const sim::FlitBuffer &buf = router.injectBuffers().of(type);
            if (!tx.active) {
                if (tx.creditBits != 0 || tx.flitsRemaining != 0) {
                    std::ostringstream os;
                    os << "router " << r << " idle tx channel carries "
                       << tx.creditBits << " credit bits / "
                       << tx.flitsRemaining << " flits";
                    fail(now, os.str());
                }
                if (tx.holdsExpressSlot)
                    fail(now, "idle tx channel holds an express slot");
                continue;
            }
            // 3b. Express legality: a held slot implies a grouped chip
            //     and an inter-group head packet; an inter-group head
            //     past acquisition always holds its slot.
            if (tx.holdsExpressSlot && !cfg.grouped())
                fail(now, "express slot held on an ungrouped chip");
            if (tx.holdsExpressSlot)
                ++expressHeld[static_cast<std::size_t>(cfg.groupOf(r))];
            const int res_bound = tx.holdsExpressSlot
                                      ? cfg.expressReservationCycles
                                      : cfg.reservationCycles;
            if (tx.resRemaining < 0 || tx.resRemaining > res_bound) {
                std::ostringstream os;
                os << "router " << r << " reservation countdown "
                   << tx.resRemaining << " outside [0, " << res_bound
                   << "]";
                fail(now, os.str());
            }
            if (tx.resRemaining > 0 && tx.creditBits != 0)
                fail(now, "credit accumulated during reservation");
            if (tx.creditBits < 0 || tx.creditBits >= sim::kFlitBits)
                fail(now, "credit bits outside [0, one flit)");
            if (buf.empty())
                fail(now, "active tx channel over an empty buffer");
            if (cfg.grouped() &&
                tx.holdsExpressSlot !=
                    cfg.interGroup(r, buf.front().dst)) {
                std::ostringstream os;
                os << "router " << r << " express slot held="
                   << tx.holdsExpressSlot
                   << " disagrees with head packet dst "
                   << buf.front().dst;
                fail(now, os.str());
            }
            if (tx.flitsRemaining < 1 ||
                tx.flitsRemaining > buf.front().numFlits()) {
                std::ostringstream os;
                os << "router " << r << " has " << tx.flitsRemaining
                   << " flits remaining of a "
                   << buf.front().numFlits() << "-flit head packet";
                fail(now, os.str());
            }
        }

        // 4. Wavelength-state legality under the fault-capped ceiling.
        const photonic::WlState state = router.laser().state();
        const int state_idx = photonic::indexOf(state);
        if (state_idx < 0 || state_idx >= photonic::kNumWlStates)
            fail(now, "laser state outside the WL enum");
        const std::uint64_t rw = cfg.reservationWindow;
        const bool boundary =
            rw > 0 && now > 0 &&
            now % rw == (static_cast<std::uint64_t>(
                             cfg.windowOffsetPerRouter) *
                         static_cast<std::uint64_t>(r)) %
                            rw;
        if (boundary) {
            const photonic::WlState cap = net.faults().wlCap(r);
            if (state_idx > photonic::indexOf(cap)) {
                std::ostringstream os;
                os << "router " << r << " laser state "
                   << photonic::toString(state)
                   << " above the fault cap " << photonic::toString(cap)
                   << " at a window boundary";
                fail(now, os.str());
            }
        }
    }

    // 4b. Express pools reconcile with the channel snapshots: the
    //     arbiter's per-group in-use count is exactly the number of
    //     channels holding a slot, and never exceeds the configured
    //     pool (caps may transiently sit below in-use after a fault —
    //     held slots are not revoked — but the pool size bounds both).
    if (cfg.grouped()) {
        const auto &arbiter = net.expressArbiter();
        for (int g = 0; g < cfg.numGroups(); ++g) {
            const int in_use = arbiter.inUse(g);
            if (in_use != expressHeld[static_cast<std::size_t>(g)]) {
                std::ostringstream os;
                os << "express group " << g << " arbiter in-use "
                   << in_use << " != " << expressHeld[
                       static_cast<std::size_t>(g)]
                   << " channels holding a slot";
                fail(now, os.str());
            }
            if (in_use < 0 || in_use > cfg.resExpressSlots) {
                std::ostringstream os;
                os << "express group " << g << " in-use " << in_use
                   << " outside [0, " << cfg.resExpressSlots << "]";
                fail(now, os.str());
            }
            if (arbiter.cap(g) < 1 ||
                arbiter.cap(g) > cfg.resExpressSlots) {
                std::ostringstream os;
                os << "express group " << g << " cap " << arbiter.cap(g)
                   << " outside [1, " << cfg.resExpressSlots << "]";
                fail(now, os.str());
            }
        }
    }

    // 5. Monotone accounting.
    const double laser = net.laserEnergyJ();
    const double trim = net.trimmingEnergyJ();
    const double dyn = net.dynamicEnergyJ();
    if (seen_) {
        if (now != prevCycle_ + 1)
            fail(now, "cycle counter did not advance by one");
        if (laser < prevLaserJ_ || trim < prevTrimJ_ || dyn < prevDynJ_)
            fail(now, "an energy integral decreased");
    }
    seen_ = true;
    prevCycle_ = now;
    prevLaserJ_ = laser;
    prevTrimJ_ = trim;
    prevDynJ_ = dyn;
    ++steps_;
}

} // namespace verify
} // namespace pearl
