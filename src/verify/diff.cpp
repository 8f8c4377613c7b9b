#include "verify/diff.hpp"

#include <bit>
#include <memory>
#include <sstream>

#include "cache/cluster.hpp"
#include "core/network.hpp"
#include "core/router.hpp"
#include "photonic/laser.hpp"
#include "verify/invariants.hpp"
#include "verify/ref_cluster.hpp"
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

/** expectEq / expectBits on `prefix + field`, building the label only
 *  on a mismatch: these run for every field of every router each
 *  cycle. */
template <typename T>
void
expectField(Divergence &d, const std::string &prefix, const char *field,
            const T &pearl, const T &ref)
{
    if (!d.hit && !(pearl == ref))
        expectEq(d, (prefix + field).c_str(), pearl, ref);
}

void
expectFieldBits(Divergence &d, const std::string &prefix, const char *field,
                double pearl, double ref)
{
    if (!d.hit && !sameBits(pearl, ref))
        expectBits(d, (prefix + field).c_str(), pearl, ref);
}

/** Every RouterTelemetry field RefNetwork models, doubles bit for bit:
 *  all but outOfLockCycles, which only the thermal model (off in the
 *  reference) counts. */
void
compareTelemetry(Divergence &d, const std::string &p,
                 const sim::RouterTelemetry &pearl,
                 const sim::RouterTelemetry &ref)
{
    expectFieldBits(d, p, "cpuCoreBufOccupancy", pearl.cpuCoreBufOccupancy,
                    ref.cpuCoreBufOccupancy);
    expectFieldBits(d, p, "otherRouterCpuBufOccupancy",
                    pearl.otherRouterCpuBufOccupancy,
                    ref.otherRouterCpuBufOccupancy);
    expectFieldBits(d, p, "gpuCoreBufOccupancy", pearl.gpuCoreBufOccupancy,
                    ref.gpuCoreBufOccupancy);
    expectFieldBits(d, p, "otherRouterGpuBufOccupancy",
                    pearl.otherRouterGpuBufOccupancy,
                    ref.otherRouterGpuBufOccupancy);
    expectField(d, p, "linkBusyCycles", pearl.linkBusyCycles,
                ref.linkBusyCycles);
    expectField(d, p, "packetsToCore", pearl.packetsToCore,
                ref.packetsToCore);
    expectField(d, p, "incomingFromRouters", pearl.incomingFromRouters,
                ref.incomingFromRouters);
    expectField(d, p, "incomingFromCores", pearl.incomingFromCores,
                ref.incomingFromCores);
    expectField(d, p, "requestsSent", pearl.requestsSent, ref.requestsSent);
    expectField(d, p, "requestsReceived", pearl.requestsReceived,
                ref.requestsReceived);
    expectField(d, p, "responsesSent", pearl.responsesSent,
                ref.responsesSent);
    expectField(d, p, "responsesReceived", pearl.responsesReceived,
                ref.responsesReceived);
    for (int m = 0; m < sim::kNumMsgClasses; ++m) {
        const auto i = static_cast<std::size_t>(m);
        if (!d.hit && pearl.classCounts[i] != ref.classCounts[i]) {
            expectEq(d,
                     (p + "classCounts[" +
                      sim::toString(static_cast<sim::MsgClass>(m)) + "]")
                         .c_str(),
                     pearl.classCounts[i], ref.classCounts[i]);
        }
    }
    expectField(d, p, "wavelengths", pearl.wavelengths, ref.wavelengths);
    expectField(d, p, "packetsInjected", pearl.packetsInjected,
                ref.packetsInjected);
    expectField(d, p, "retransmitsQueued", pearl.retransmitsQueued,
                ref.retransmitsQueued);
    expectField(d, p, "corruptedArrivals", pearl.corruptedArrivals,
                ref.corruptedArrivals);
    expectField(d, p, "packetsDropped", pearl.packetsDropped,
                ref.packetsDropped);
    expectField(d, p, "policyFallbackEntries", pearl.policyFallbackEntries,
                ref.policyFallbackEntries);
    expectField(d, p, "policyFallbackExits", pearl.policyFallbackExits,
                ref.policyFallbackExits);
    expectField(d, p, "policyFallbackWindows", pearl.policyFallbackWindows,
                ref.policyFallbackWindows);
    expectFieldBits(d, p, "dbaCpuShareSum", pearl.dbaCpuShareSum,
                    ref.dbaCpuShareSum);
    expectFieldBits(d, p, "dbaGpuShareSum", pearl.dbaGpuShareSum,
                    ref.dbaGpuShareSum);
    expectField(d, p, "dbaCycles", pearl.dbaCycles, ref.dbaCycles);
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
        compareTelemetry(d, p + "telemetry ", router.telemetry(),
                         ref.telemetryOf(r));
        expectFieldBits(d, p, "betaTotalMean", router.betaTotalMean(),
                        ref.betaTotalMean(r));
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

namespace {

/** Records what a node emits. */
struct PacketLog : sim::PacketSink
{
    void send(Packet &&pkt) override { packets.push_back(std::move(pkt)); }
    std::vector<Packet> packets;
};

/** The seeded stand-in for the L3 banks a cluster talks to (see
 *  runClusterDiff). */
class FakeL3
{
  public:
    FakeL3(const ClusterDiffCase &c, int cluster)
        : c_(c), rng_(c.l3Seed), cluster_(cluster)
    {}

    /** Take one packet the cluster sent. */
    void
    absorb(const Packet &pkt, Cycle now)
    {
        const CoreType type = sim::coreTypeOf(pkt.msgClass);
        if (pkt.op == sim::CoherenceOp::Writeback) {
            forget(type, pkt.addr);
            return;
        }
        if (pkt.op != sim::CoherenceOp::Read &&
            pkt.op != sim::CoherenceOp::ReadExcl)
            return; // probe replies
        const bool exclusive = pkt.op == sim::CoherenceOp::ReadExcl ||
                               rng_.chance(c_.exclusiveRate);
        Packet fill = toCluster(type, exclusive ? sim::CoherenceOp::DataExcl
                                                : sim::CoherenceOp::Data,
                                pkt.addr, pkt.dst, now);
        const Cycle latency = static_cast<Cycle>(
            rng_.range(static_cast<std::int64_t>(c_.minLatency),
                       static_cast<std::int64_t>(c_.maxLatency)));
        schedule(now + latency, std::move(fill));
        // Probe targets: the latest grants.  Clean evictions are silent,
        // so older grants are likely gone from the tiny L2s anyway.
        held_.push_back({type, pkt.addr, pkt.dst});
        if (held_.size() > 64)
            held_.erase(held_.begin());
    }

    /** Maybe probe one granted line this cycle. */
    void
    maybeProbe(Cycle now)
    {
        if (held_.empty() || !rng_.chance(c_.probeRate))
            return;
        const std::size_t i = rng_.below(held_.size());
        const Held h = held_[i];
        const bool inv = rng_.chance(0.5);
        schedule(now, toCluster(h.type,
                                inv ? sim::CoherenceOp::ProbeInv
                                    : sim::CoherenceOp::ProbeShare,
                                h.addr, h.bank, now));
        if (inv)
            held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    /** Packets due by `now` in the given delivery phase, in schedule
     *  order. */
    std::vector<Packet>
    take(Cycle now, bool pre_tick)
    {
        std::vector<Packet> out;
        for (std::size_t i = 0; i < pending_.size();) {
            if (pending_[i].due <= now && pending_[i].preTick == pre_tick) {
                out.push_back(std::move(pending_[i].pkt));
                pending_.erase(pending_.begin() +
                               static_cast<std::ptrdiff_t>(i));
            } else {
                ++i;
            }
        }
        return out;
    }

  private:
    struct Held
    {
        CoreType type;
        std::uint64_t addr;
        sim::NodeId bank;
    };

    struct Scheduled
    {
        Cycle due;
        bool preTick;
        Packet pkt;
    };

    Packet
    toCluster(CoreType type, sim::CoherenceOp op, std::uint64_t addr,
              sim::NodeId bank, Cycle now)
    {
        const bool probe = op == sim::CoherenceOp::ProbeShare ||
                           op == sim::CoherenceOp::ProbeInv;
        Packet pkt;
        pkt.id = ++nextId_;
        pkt.op = op;
        if (type == CoreType::CPU)
            pkt.msgClass = probe ? sim::MsgClass::ReqCpuL2Down
                                 : sim::MsgClass::RespCpuL2Down;
        else
            pkt.msgClass = probe ? sim::MsgClass::ReqGpuL2Down
                                 : sim::MsgClass::RespGpuL2Down;
        pkt.dstUnit = sim::NodeUnit::Cluster;
        pkt.src = bank;
        pkt.dst = cluster_;
        pkt.sizeBits =
            sim::carriesData(op) ? sim::kResponseBits : sim::kRequestBits;
        pkt.addr = addr;
        pkt.cycleCreated = now;
        return pkt;
    }

    void
    schedule(Cycle due, Packet pkt)
    {
        pending_.push_back({due, rng_.chance(c_.preTickRate),
                            std::move(pkt)});
    }

    void
    forget(CoreType type, std::uint64_t addr)
    {
        for (std::size_t i = 0; i < held_.size(); ++i) {
            if (held_[i].type == type && held_[i].addr == addr) {
                held_.erase(held_.begin() +
                            static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }

    const ClusterDiffCase &c_;
    Rng rng_;
    sim::NodeId cluster_;
    std::uint64_t nextId_ = 0;
    std::vector<Scheduled> pending_;
    std::vector<Held> held_;
};

void
compareEmitted(Divergence &d, std::vector<Packet> &opt,
               std::vector<Packet> &ref)
{
    expectEq(d, "packets emitted", opt.size(), ref.size());
    for (std::size_t i = 0; i < opt.size() && !d.hit; ++i) {
        const Packet &o = opt[i];
        const Packet &r = ref[i];
        const std::string p = "emitted[" + std::to_string(i) + "].";
        expectEq(d, (p + "id").c_str(), o.id, r.id);
        expectEq(d, (p + "op").c_str(), static_cast<int>(o.op),
                 static_cast<int>(r.op));
        expectEq(d, (p + "msgClass").c_str(), static_cast<int>(o.msgClass),
                 static_cast<int>(r.msgClass));
        expectEq(d, (p + "dstUnit").c_str(), static_cast<int>(o.dstUnit),
                 static_cast<int>(r.dstUnit));
        expectEq(d, (p + "src").c_str(), o.src, r.src);
        expectEq(d, (p + "dst").c_str(), o.dst, r.dst);
        expectEq(d, (p + "sizeBits").c_str(), o.sizeBits, r.sizeBits);
        expectEq(d, (p + "addr").c_str(), o.addr, r.addr);
        expectEq(d, (p + "cycleCreated").c_str(), o.cycleCreated,
                 r.cycleCreated);
    }
}

void
compareClusterState(Divergence &d, const cache::ClusterNode &opt,
                    const RefCluster &ref,
                    const sim::RouterTelemetry &opt_tel,
                    const sim::RouterTelemetry &ref_tel)
{
    const cache::ClusterStats &o = opt.stats();
    const cache::ClusterStats &r = ref.stats();
    for (int t = 0; t < sim::kNumCoreTypes; ++t) {
        const std::string p = t == 0 ? "cpu " : "gpu ";
        expectEq(d, (p + "accesses").c_str(), o.accesses[t],
                 r.accesses[t]);
        expectEq(d, (p + "stalled").c_str(), o.stalled[t], r.stalled[t]);
        expectEq(d, (p + "l1Hits").c_str(), o.l1Hits[t], r.l1Hits[t]);
        expectEq(d, (p + "l1Misses").c_str(), o.l1Misses[t],
                 r.l1Misses[t]);
        expectEq(d, (p + "l2Hits").c_str(), o.l2Hits[t], r.l2Hits[t]);
        expectEq(d, (p + "l2Misses").c_str(), o.l2Misses[t],
                 r.l2Misses[t]);
        expectEq(d, (p + "writebacks").c_str(), o.writebacks[t],
                 r.writebacks[t]);
        expectEq(d, (p + "mshrWaits").c_str(), o.mshrWaits[t],
                 r.mshrWaits[t]);
        const auto type = static_cast<CoreType>(t);
        expectEq(d, (p + "mshrOccupancy").c_str(), opt.mshrOccupancy(type),
                 ref.mshrOccupancy(type));
    }
    expectEq(d, "probesReceived", o.probesReceived, r.probesReceived);
    expectEq(d, "telemetry requestsSent", opt_tel.requestsSent,
             ref_tel.requestsSent);
    expectEq(d, "telemetry responsesSent", opt_tel.responsesSent,
             ref_tel.responsesSent);
    expectEq(d, "telemetry incomingFromCores", opt_tel.incomingFromCores,
             ref_tel.incomingFromCores);
    expectEq(d, "telemetry packetsToCore", opt_tel.packetsToCore,
             ref_tel.packetsToCore);
    expectEq(d, "quiescent", opt.quiescent(), ref.quiescent());
}

traffic::BenchmarkProfile
fuzzProfile(Rng &rng, CoreType type)
{
    traffic::BenchmarkProfile p;
    p.name = p.abbrev = type == CoreType::CPU ? "fuzz-cpu" : "fuzz-gpu";
    p.coreType = type;
    p.accessRateOn = 0.05 + 0.5 * rng.uniform();
    p.accessRateOff = p.accessRateOn * rng.uniform();
    p.pOnToOff = 0.002 + 0.05 * rng.uniform();
    p.pOffToOn = 0.002 + 0.05 * rng.uniform();
    p.workingSetLines = static_cast<std::uint64_t>(rng.range(2, 48));
    p.instrFraction = type == CoreType::CPU ? 0.3 * rng.uniform() : 0.0;
    p.writeFraction = 0.6 * rng.uniform();
    p.sharedFraction = 0.5 * rng.uniform();
    p.streamFraction = rng.uniform();
    return p;
}

} // namespace

ClusterDiffCase
makeClusterFuzzCase(std::uint64_t seed)
{
    Rng rng(seed);
    ClusterDiffCase c;
    c.seed = seed;
    c.l3Seed = rng.next();
    cache::HierarchyConfig &h = c.cfg;
    h.cpuL2MshrEntries = static_cast<int>(rng.range(1, 2));
    h.gpuL2MshrEntries = static_cast<int>(rng.range(1, 2));
    h.l1Ways = static_cast<int>(rng.range(1, 2));
    h.cpuL1ILines = static_cast<std::uint64_t>(h.l1Ways * rng.range(2, 6));
    h.cpuL1DLines = static_cast<std::uint64_t>(h.l1Ways * rng.range(2, 6));
    h.gpuL1Lines = static_cast<std::uint64_t>(h.l1Ways * rng.range(2, 6));
    h.l2Ways = static_cast<int>(rng.range(1, 4));
    h.cpuL2Lines = static_cast<std::uint64_t>(h.l2Ways * rng.range(2, 8));
    h.gpuL2Lines = static_cast<std::uint64_t>(h.l2Ways * rng.range(2, 8));
    h.l1ToL2Cycles = static_cast<std::uint64_t>(rng.range(1, 4));
    h.l2AccessCycles = static_cast<std::uint64_t>(rng.range(3, 12));
    h.cpuCoreMaxOutstanding = static_cast<int>(rng.range(1, 8));
    h.gpuCoreMaxOutstanding = static_cast<int>(rng.range(1, 8));
    h.sharedLines = static_cast<std::uint64_t>(rng.range(2, 16));
    c.cpu = fuzzProfile(rng, CoreType::CPU);
    c.gpu = fuzzProfile(rng, CoreType::GPU);
    c.minLatency = static_cast<Cycle>(rng.range(1, 6));
    c.maxLatency = c.minLatency + static_cast<Cycle>(rng.range(0, 60));
    c.exclusiveRate = rng.uniform();
    c.probeRate = 0.15 * rng.uniform();
    c.preTickRate = 0.5 * rng.uniform();
    return c;
}

DiffResult
runClusterDiff(const ClusterDiffCase &c)
{
    constexpr int kCluster = 3;
    const cache::HomeMap home;
    // The phases, when on, come from streams of their own, so the
    // cluster's stream is Rng(c.seed) in both modes.
    Rng phase_rng(deriveSeed(c.seed, 0x9A5E));
    const Rng cpu_phase_rng = phase_rng.fork();
    const Rng gpu_phase_rng = phase_rng.fork();
    traffic::GlobalPhase opt_cpu_phase(c.cpu, cpu_phase_rng);
    traffic::GlobalPhase opt_gpu_phase(c.gpu, gpu_phase_rng);
    traffic::GlobalPhase ref_cpu_phase(c.cpu, cpu_phase_rng);
    traffic::GlobalPhase ref_gpu_phase(c.gpu, gpu_phase_rng);
    const bool phases = c.sharedPhases;
    cache::ClusterNode opt(kCluster, home, c.cfg, c.cpu, c.gpu, Rng(c.seed),
                           phases ? &opt_cpu_phase : nullptr,
                           phases ? &opt_gpu_phase : nullptr);
    RefCluster ref(kCluster, home, c.cfg, c.cpu, c.gpu, Rng(c.seed),
                   phases ? &ref_cpu_phase : nullptr,
                   phases ? &ref_gpu_phase : nullptr);
    PacketLog opt_out;
    PacketLog ref_out;
    sim::RouterTelemetry opt_tel;
    sim::RouterTelemetry ref_tel;
    opt.attach(&opt_out, &opt_tel);
    ref.attach(&ref_out, &ref_tel);
    FakeL3 l3(c, kCluster);

    DiffResult out;
    // Compares both nodes after one phase of a cycle, then hands what
    // they emitted to the fake L3.
    auto check = [&](Cycle now, const char *phase) {
        Divergence d;
        compareEmitted(d, opt_out.packets, ref_out.packets);
        compareClusterState(d, opt, ref, opt_tel, ref_tel);
        if (d.hit) {
            out.diverged = true;
            out.cycle = now;
            out.description = std::string(phase) + ": " + d.what;
            return false;
        }
        for (const Packet &pkt : opt_out.packets)
            l3.absorb(pkt, now);
        out.injectedPackets += opt_out.packets.size();
        opt_out.packets.clear();
        ref_out.packets.clear();
        return true;
    };
    auto deliver = [&](Cycle now, bool pre_tick) {
        for (const Packet &pkt : l3.take(now, pre_tick)) {
            opt.deliver(pkt, now);
            ref.deliver(pkt, now);
            ++out.deliveredPackets;
        }
    };

    for (Cycle now = 0; now < c.cycles; ++now) {
        deliver(now, true);
        if (!check(now, "before tick"))
            return out;
        if (phases) {
            ref_cpu_phase.tick();
            ref_gpu_phase.tick();
        }
        opt.tick(now);
        ref.tick(now);
        if (!check(now, "tick"))
            return out;
        l3.maybeProbe(now);
        deliver(now, false);
        if (!check(now, "after tick"))
            return out;
    }
    out.mshrWaits = opt.stats().mshrWaits[0] + opt.stats().mshrWaits[1];
    return out;
}

} // namespace verify
} // namespace pearl
