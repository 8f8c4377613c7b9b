#include "verify/diff.hpp"

#include <bit>
#include <memory>
#include <sstream>

#include "core/network.hpp"
#include "core/router.hpp"
#include "photonic/laser.hpp"
#include "verify/invariants.hpp"
#include "verify/ref_cmesh.hpp"
#include "verify/ref_network.hpp"

namespace pearl {
namespace verify {

using sim::CoreType;
using sim::Cycle;
using sim::Packet;

std::vector<Packet>
TrafficGen::cycleTraffic(Cycle now)
{
    std::vector<Packet> out;
    for (int r = 0; r < numNodes_; ++r) {
        for (int c = 0; c < sim::kNumCoreTypes; ++c) {
            const double rate = c == 0 ? cpuRate_ : gpuRate_;
            if (!rng_.chance(rate))
                continue;
            Packet pkt;
            pkt.id = nextId_++;
            pkt.src = r;
            int dst = rng_.range(0, numNodes_ - 2);
            if (dst >= r)
                ++dst;
            pkt.dst = dst;
            const bool request = rng_.chance(0.5);
            if (c == 0) {
                pkt.msgClass = request ? sim::MsgClass::ReqCpuL2Down
                                       : sim::MsgClass::RespCpuL2Down;
            } else {
                pkt.msgClass = request ? sim::MsgClass::ReqGpuL2Down
                                       : sim::MsgClass::RespGpuL2Down;
            }
            pkt.sizeBits = request ? sim::kRequestBits : sim::kResponseBits;
            pkt.op = request ? sim::CoherenceOp::Read
                             : sim::CoherenceOp::Data;
            pkt.cycleCreated = now;
            out.push_back(pkt);
        }
    }
    return out;
}

namespace {

/** Bit-for-bit double comparison (0.0 vs -0.0 counts as a divergence —
 *  both sides must run the exact same arithmetic). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

struct Divergence
{
    bool hit = false;
    std::string what;
};

template <typename T>
void
expectEq(Divergence &d, const char *label, const T &pearl, const T &ref)
{
    if (d.hit || pearl == ref)
        return;
    std::ostringstream os;
    os << label << ": optimized=" << pearl << " reference=" << ref;
    d.hit = true;
    d.what = os.str();
}

void
expectBits(Divergence &d, const char *label, double pearl, double ref)
{
    if (d.hit || sameBits(pearl, ref))
        return;
    std::ostringstream os;
    os.precision(17);
    os << label << ": optimized=" << pearl << " reference=" << ref;
    d.hit = true;
    d.what = os.str();
}

void
comparePacket(Divergence &d, std::size_t index, const Packet &pearl,
              const Packet &ref)
{
    if (d.hit)
        return;
    std::ostringstream prefix;
    prefix << "delivered[" << index << "].";
    const std::string p = prefix.str();
    expectEq(d, (p + "id").c_str(), pearl.id, ref.id);
    expectEq(d, (p + "seq").c_str(), pearl.seq, ref.seq);
    expectEq(d, (p + "attempt").c_str(), pearl.attempt, ref.attempt);
    expectEq(d, (p + "src").c_str(), pearl.src, ref.src);
    expectEq(d, (p + "dst").c_str(), pearl.dst, ref.dst);
    expectEq(d, (p + "sizeBits").c_str(), pearl.sizeBits, ref.sizeBits);
    expectEq(d, (p + "msgClass").c_str(),
             static_cast<int>(pearl.msgClass),
             static_cast<int>(ref.msgClass));
    expectEq(d, (p + "cycleInjected").c_str(), pearl.cycleInjected,
             ref.cycleInjected);
    expectEq(d, (p + "cycleDelivered").c_str(), pearl.cycleDelivered,
             ref.cycleDelivered);
}

Divergence
compareCycle(core::PearlNetwork &pearl, RefNetwork &ref)
{
    Divergence d;

    expectEq(d, "cycle", pearl.cycle(), ref.cycle());

    // Deliveries of this cycle, field by field.
    auto &pd = pearl.delivered();
    auto &rd = ref.delivered();
    expectEq(d, "deliveries this cycle", pd.size(), rd.size());
    if (!d.hit) {
        for (std::size_t i = 0; i < pd.size(); ++i)
            comparePacket(d, i, pd[i], rd[i]);
    }
    pd.clear();
    rd.clear();

    // Cumulative statistics.
    const sim::NetworkStats &ps = pearl.stats();
    const sim::NetworkStats &rs = ref.stats();
    expectEq(d, "injectedPackets", ps.injectedPackets(),
             rs.injectedPackets());
    expectEq(d, "injectedFlits", ps.injectedFlits(), rs.injectedFlits());
    expectEq(d, "deliveredPackets", ps.deliveredPackets(),
             rs.deliveredPackets());
    expectEq(d, "deliveredFlits", ps.deliveredFlits(),
             rs.deliveredFlits());
    expectEq(d, "deliveredBits", ps.deliveredBits(), rs.deliveredBits());
    expectEq(d, "cpuDeliveredPackets", ps.cpuDeliveredPackets(),
             rs.cpuDeliveredPackets());
    expectEq(d, "gpuDeliveredPackets", ps.gpuDeliveredPackets(),
             rs.gpuDeliveredPackets());
    expectEq(d, "corruptedPackets", ps.corruptedPackets(),
             rs.corruptedPackets());
    expectEq(d, "reservationDrops", ps.reservationDrops(),
             rs.reservationDrops());
    expectEq(d, "ackTimeouts", ps.ackTimeouts(), rs.ackTimeouts());
    expectEq(d, "retransmittedPackets", ps.retransmittedPackets(),
             rs.retransmittedPackets());
    expectEq(d, "droppedPackets", ps.droppedPackets(),
             rs.droppedPackets());
    expectEq(d, "rxRetries", ps.rxRetries(), rs.rxRetries());
    expectEq(d, "policyFallbackEntries", ps.policyFallbackEntries(),
             rs.policyFallbackEntries());
    expectEq(d, "policyFallbackExits", ps.policyFallbackExits(),
             rs.policyFallbackExits());
    expectEq(d, "policyFallbackWindows", ps.policyFallbackWindows(),
             rs.policyFallbackWindows());
    expectBits(d, "avgLatency", ps.avgLatency(), rs.avgLatency());

    // Per-router laser, fault-cap and buffer state.
    const Cycle now = pearl.cycle();
    for (int r = 0; r < pearl.numNodes() && !d.hit; ++r) {
        std::ostringstream prefix;
        prefix << "router " << r << " ";
        const std::string p = prefix.str();
        const core::PearlRouter &router = pearl.router(r);
        expectEq(d, (p + "laser state").c_str(),
                 static_cast<int>(router.laser().state()),
                 static_cast<int>(ref.laserState(r)));
        expectEq(d, (p + "laser stable").c_str(),
                 router.laser().stable(now), ref.laserStable(r, now));
        expectEq(d, (p + "laser cycles").c_str(), router.laser().cycles(),
                 ref.laserCycles(r));
        expectEq(d, (p + "up switches").c_str(),
                 router.laser().upSwitches(), ref.upSwitches(r));
        expectEq(d, (p + "down switches").c_str(),
                 router.laser().downSwitches(), ref.downSwitches(r));
        expectEq(d, (p + "wl cap").c_str(),
                 static_cast<int>(router.wlCap()),
                 static_cast<int>(ref.wlCap(r)));
        for (auto type : {CoreType::CPU, CoreType::GPU}) {
            const char *t = type == CoreType::CPU ? "cpu" : "gpu";
            expectEq(d, (p + t + " inject slots").c_str(),
                     router.injectBuffers().of(type).occupiedSlots(),
                     ref.bufferSlots(r, false, type));
            expectEq(d, (p + t + " rx slots").c_str(),
                     router.rxBuffers().of(type).occupiedSlots(),
                     ref.bufferSlots(r, true, type));
            if (pearl.config().grouped()) {
                expectEq(d, (p + t + " express slot").c_str(),
                         router.txAudit(type).holdsExpressSlot,
                         ref.txHoldsExpress(r, type));
            }
        }
    }

    // Grouped chips: express-slot pools, group by group.
    if (pearl.config().grouped()) {
        for (int g = 0; g < pearl.config().numGroups() && !d.hit; ++g) {
            std::ostringstream prefix;
            prefix << "express group " << g << " ";
            const std::string p = prefix.str();
            expectEq(d, (p + "in use").c_str(),
                     pearl.expressArbiter().inUse(g), ref.expressInUse(g));
            expectEq(d, (p + "cap").c_str(),
                     pearl.expressArbiter().cap(g), ref.expressCap(g));
        }
    }

    expectEq(d, "idle", pearl.idle(), ref.idle());

    // Energy integrals and laser residency, bit for bit.
    expectBits(d, "laserEnergyJ", pearl.laserEnergyJ(),
               ref.laserEnergyJ());
    expectBits(d, "trimmingEnergyJ", pearl.trimmingEnergyJ(),
               ref.trimmingEnergyJ());
    expectBits(d, "dynamicEnergyJ", pearl.dynamicEnergyJ(),
               ref.dynamicEnergyJ());
    for (int s = 0; s < photonic::kNumWlStates; ++s) {
        const auto state = photonic::stateFromIndex(s);
        expectBits(d,
                   (std::string("residency ") + photonic::toString(state))
                       .c_str(),
                   pearl.residency(state), ref.residency(state));
    }

    return d;
}

} // namespace

DiffResult
runDiff(const DiffCase &c)
{
    PEARL_ASSERT(c.makePolicy, "DiffCase needs a policy factory");

    const photonic::PowerModel power{};
    std::unique_ptr<core::PowerPolicy> pearl_policy = c.makePolicy();
    std::unique_ptr<core::PowerPolicy> ref_policy = c.makePolicy();

    core::PearlNetwork pearl(c.cfg, power, c.dba, pearl_policy.get());
    RefNetwork ref(c.cfg, power, c.dba, ref_policy.get());

    Invariants invariants;
    if (c.checkInvariants)
        pearl.setAuditor(&invariants);

    TrafficGen traffic(c.trafficSeed, c.cpuRate, c.gpuRate,
                       c.cfg.numNodes());

    DiffResult out;
    for (std::uint64_t i = 0; i < c.cycles; ++i) {
        const Cycle now = pearl.cycle();
        for (const Packet &pkt : traffic.cycleTraffic(now)) {
            const bool pearl_took = pearl.inject(pkt);
            const bool ref_took = ref.inject(pkt);
            if (pearl_took != ref_took) {
                std::ostringstream os;
                os << "injection acceptance for packet " << pkt.id
                   << " (src " << pkt.src << " dst " << pkt.dst
                   << "): optimized=" << pearl_took
                   << " reference=" << ref_took;
                out.diverged = true;
                out.cycle = now;
                out.description = os.str();
                return out;
            }
        }

        try {
            pearl.step();
        } catch (const InvariantViolation &e) {
            out.diverged = true;
            out.cycle = now;
            out.description = e.what();
            return out;
        }
        ref.step();

        Divergence d = compareCycle(pearl, ref);
        if (d.hit) {
            out.diverged = true;
            out.cycle = now;
            out.description = d.what;
            return out;
        }
    }

    out.injectedPackets = pearl.stats().injectedPackets();
    out.deliveredPackets = pearl.stats().deliveredPackets();
    out.rxRetries = pearl.stats().rxRetries();
    return out;
}

namespace {

Divergence
compareCmeshCycle(electrical::CmeshNetwork &opt, RefCmesh &ref)
{
    Divergence d;

    expectEq(d, "cycle", opt.cycle(), ref.cycle());

    auto &od = opt.delivered();
    auto &rd = ref.delivered();
    expectEq(d, "deliveries this cycle", od.size(), rd.size());
    if (!d.hit) {
        for (std::size_t i = 0; i < od.size(); ++i)
            comparePacket(d, i, od[i], rd[i]);
    }
    od.clear();
    rd.clear();

    const sim::NetworkStats &os = opt.stats();
    const sim::NetworkStats &rs = ref.stats();
    expectEq(d, "injectedPackets", os.injectedPackets(),
             rs.injectedPackets());
    expectEq(d, "injectedFlits", os.injectedFlits(), rs.injectedFlits());
    expectEq(d, "deliveredPackets", os.deliveredPackets(),
             rs.deliveredPackets());
    expectEq(d, "deliveredFlits", os.deliveredFlits(),
             rs.deliveredFlits());
    expectEq(d, "deliveredBits", os.deliveredBits(), rs.deliveredBits());
    expectBits(d, "avgLatency", os.avgLatency(), rs.avgLatency());
    expectBits(d, "dynamicEnergyJ", opt.dynamicEnergyJ(),
               ref.dynamicEnergyJ());
    expectEq(d, "flitsInFlight", opt.flitsInFlight(),
             ref.flitsInFlight());
    expectEq(d, "optimized flit ledger (inFlight vs buffered)",
             opt.flitsInFlight(), opt.countBufferedFlits());
    expectEq(d, "reference flit ledger (inFlight vs buffered)",
             ref.flitsInFlight(), ref.countBufferedFlits());
    expectEq(d, "idle", opt.idle(), ref.idle());
    return d;
}

} // namespace

DiffResult
runCmeshDiff(const CmeshDiffCase &c)
{
    electrical::CmeshNetwork opt(c.cfg);
    RefCmesh ref(c.cfg);
    PEARL_ASSERT(c.hotspot < opt.numNodes());
    TrafficGen traffic(c.trafficSeed, c.cpuRate, c.gpuRate,
                       opt.numNodes());

    DiffResult out;
    for (std::uint64_t i = 0; i < c.cycles; ++i) {
        const Cycle now = opt.cycle();
        for (Packet pkt : traffic.cycleTraffic(now)) {
            if (c.hotspot >= 0 && pkt.src != c.hotspot)
                pkt.dst = c.hotspot;
            const bool opt_took = opt.inject(pkt);
            const bool ref_took = ref.inject(pkt);
            if (opt_took != ref_took) {
                std::ostringstream os;
                os << "injection acceptance for packet " << pkt.id
                   << " (src " << pkt.src << " dst " << pkt.dst
                   << "): optimized=" << opt_took
                   << " reference=" << ref_took;
                out.diverged = true;
                out.cycle = now;
                out.description = os.str();
                return out;
            }
        }

        opt.step();
        ref.step();

        Divergence d = compareCmeshCycle(opt, ref);
        if (d.hit) {
            out.diverged = true;
            out.cycle = now;
            out.description = d.what;
            return out;
        }
    }

    out.injectedPackets = opt.stats().injectedPackets();
    out.deliveredPackets = opt.stats().deliveredPackets();
    return out;
}

} // namespace verify
} // namespace pearl
