#include "electrical/cmesh.hpp"

#include <bit>

#include "common/log.hpp"

namespace pearl {
namespace electrical {

using sim::Cycle;
using sim::NodeId;
using sim::Packet;

namespace {

constexpr std::uint64_t
bit(int i)
{
    return std::uint64_t{1} << i;
}

/** Circular distance from `start` to the next set bit of `mask` within
 *  `total` positions, or -1 when the mask is empty. */
int
distanceToNextSet(std::uint64_t mask, int start, int total)
{
    if (const std::uint64_t above = mask >> start)
        return std::countr_zero(above);
    if (const std::uint64_t below = mask & (bit(start) - 1))
        return total - start + std::countr_zero(below);
    return -1;
}

} // namespace

CmeshNetwork::CmeshNetwork(const CmeshConfig &cfg)
    : cfg_(cfg), numRouters_(cfg.meshX * cfg.meshY),
      numEndpoints_(numRouters_ + 1)
{
    PEARL_ASSERT(cfg_.numVcs >= 2 && cfg_.numVcs % 2 == 0,
                 "need an even VC count for request/response classes");
    PEARL_ASSERT(cfg_.numVcs <= kMaxVcs,
                 "a router's input VCs must fit one 64-bit mask");
    PEARL_ASSERT(cfg_.l3Router >= 0 && cfg_.l3Router < numRouters_);

    routers_.resize(static_cast<std::size_t>(numRouters_));
    interfaces_.reserve(static_cast<std::size_t>(numEndpoints_));
    for (int e = 0; e < numEndpoints_; ++e)
        interfaces_.emplace_back(cfg_.injectionQueueDepth);
    endpointPort_.resize(static_cast<std::size_t>(numEndpoints_));

    for (int r = 0; r < numRouters_; ++r) {
        Router &router = routers_[static_cast<std::size_t>(r)];
        // Port 4 is the cluster endpoint; the L3 router adds port 5.
        router.numPorts = r == cfg_.l3Router ? 6 : 5;
        router.totalVcs = router.numPorts * cfg_.numVcs;
        router.inputs.reserve(static_cast<std::size_t>(router.totalVcs));
        for (int i = 0; i < router.totalVcs; ++i)
            router.inputs.emplace_back(cfg_.vcDepthFlits);
        for (int p = 0; p < router.numPorts; ++p) {
            OutputPort &out = router.outputs[static_cast<std::size_t>(p)];
            out.credits.fill(cfg_.vcDepthFlits);
            if (p < 4) {
                out.neighbor = neighbor(r, p);
                out.neighborPort = oppositePort(p);
                continue;
            }
            const NodeId e = p == 4 ? r : numRouters_;
            out.local = true;
            out.width = localWidth(e);
            endpointPort_[static_cast<std::size_t>(e)] = {r, p};
        }
    }
}

int
CmeshNetwork::routerOf(NodeId endpoint) const
{
    PEARL_ASSERT(endpoint >= 0 && endpoint < numEndpoints_);
    return endpointPort_[static_cast<std::size_t>(endpoint)].first;
}

int
CmeshNetwork::localWidth(sim::NodeId endpoint) const
{
    return endpoint == numRouters_ ? cfg_.mcLocalFlitsPerCycle
                                   : cfg_.clusterLocalFlitsPerCycle;
}

int
CmeshNetwork::neighbor(int router, int dir) const
{
    const int x = routerX(router);
    const int y = routerY(router);
    switch (dir) {
      case kPortN: return y + 1 < cfg_.meshY ? router + cfg_.meshX : -1;
      case kPortS: return y > 0 ? router - cfg_.meshX : -1;
      case kPortE: return x + 1 < cfg_.meshX ? router + 1 : -1;
      case kPortW: return x > 0 ? router - 1 : -1;
      default: return -1;
    }
}

int
CmeshNetwork::oppositePort(int dir) const
{
    switch (dir) {
      case kPortN: return kPortS;
      case kPortS: return kPortN;
      case kPortE: return kPortW;
      case kPortW: return kPortE;
      default: panic("oppositePort of a local port");
    }
}

int
CmeshNetwork::computeRoute(int router, const Packet &pkt) const
{
    const auto [dst_router, dst_port] =
        endpointPort_[static_cast<std::size_t>(pkt.dst)];
    const int x = routerX(router), y = routerY(router);
    const int dx = routerX(dst_router), dy = routerY(dst_router);
    if (x < dx)
        return kPortE;
    if (x > dx)
        return kPortW;
    if (y < dy)
        return kPortN;
    if (y > dy)
        return kPortS;
    return dst_port;
}

int
CmeshNetwork::vcClassBase(const Packet &pkt) const
{
    // Requests (and probes, which are op-requests) use the lower half of
    // the VCs; responses the upper half.  This breaks protocol deadlock.
    const bool response = pkt.op == sim::CoherenceOp::Data ||
                          pkt.op == sim::CoherenceOp::DataExcl ||
                          pkt.op == sim::CoherenceOp::Ack;
    return response ? cfg_.numVcs / 2 : 0;
}

bool
CmeshNetwork::canInject(const Packet &pkt) const
{
    const auto &ni = interfaces_[static_cast<std::size_t>(pkt.src)];
    return static_cast<int>(ni.queue.size()) < cfg_.injectionQueueDepth;
}

bool
CmeshNetwork::inject(const Packet &pkt)
{
    if (!canInject(pkt))
        return false;
    Packet copy = pkt;
    copy.cycleInjected = cycle_;
    stats_.noteInjected(copy);
    interfaces_[static_cast<std::size_t>(pkt.src)].queue.push_back(copy);
    return true;
}

void
CmeshNetwork::ejectFlit(const Flit &flit)
{
    dynamicEnergyJ_ += cfg_.energy.ejectEnergyJ(sim::kFlitBits);
    --flitsInFlight_;
    if (flit.tail) {
        Packet pkt = packets_[flit.slot];
        pkt.cycleDelivered = cycle_;
        stats_.noteDelivered(pkt);
        delivered_.push_back(pkt);
        freeSlots_.push_back(flit.slot);
    }
}

void
CmeshNetwork::deliverLinkFlits()
{
    for (Router &router : routers_) {
        for (unsigned busy = router.linksBusy; busy != 0; busy &= busy - 1) {
            const int p = std::countr_zero(busy);
            OutputPort &out = router.outputs[static_cast<std::size_t>(p)];
            if (cycle_ < out.linkReadyAt)
                continue;
            PEARL_ASSERT(out.neighbor >= 0, "flit sent off the mesh edge");
            Router &down = routers_[static_cast<std::size_t>(out.neighbor)];
            const int idx = out.neighborPort * cfg_.numVcs + out.linkVc;
            auto &fifo = down.inputs[static_cast<std::size_t>(idx)].fifo;
            PEARL_ASSERT(static_cast<int>(fifo.size()) < cfg_.vcDepthFlits,
                         "credit protocol violated");
            fifo.push_back(out.linkReg);
            down.occupied |= bit(idx);
            router.linksBusy &= ~(1u << p);
        }
    }
}

void
CmeshNetwork::injectFromInterface(int e)
{
    NetworkInterface &ni = interfaces_[static_cast<std::size_t>(e)];
    if (ni.queue.empty())
        return;
    const auto [r, port] = endpointPort_[static_cast<std::size_t>(e)];
    Router &router = routers_[static_cast<std::size_t>(r)];

    const Packet &pkt = ni.queue.front();
    const int flits = pkt.numFlits();

    // Find (or continue with) the VC carrying this packet: the lowest
    // VC of the packet's class that is empty and not routed.
    if (ni.flitsSent == 0) {
        const int first = port * cfg_.numVcs + vcClassBase(pkt);
        const std::uint64_t class_vcs = (bit(cfg_.numVcs / 2) - 1) << first;
        const std::uint64_t free =
            class_vcs & ~(router.occupied | router.routed);
        if (free == 0)
            return; // all class VCs busy; retry next cycle
        ni.curVc = std::countr_zero(free);
        if (freeSlots_.empty()) {
            ni.slot = static_cast<std::uint32_t>(packets_.size());
            packets_.push_back(pkt);
        } else {
            ni.slot = freeSlots_.back();
            freeSlots_.pop_back();
            packets_[ni.slot] = pkt;
        }
    }

    // The NI datapath pushes up to the local-port width per cycle.
    auto &fifo = router.inputs[static_cast<std::size_t>(ni.curVc)].fifo;
    int budget = localWidth(e);
    while (budget-- > 0) {
        if (static_cast<int>(fifo.size()) >= cfg_.vcDepthFlits)
            break;
        Flit flit;
        flit.slot = ni.slot;
        flit.head = ni.flitsSent == 0;
        flit.tail = ni.flitsSent == flits - 1;
        fifo.push_back(flit);
        router.occupied |= bit(ni.curVc);
        ++flitsInFlight_;
        ++ni.flitsSent;
        if (ni.flitsSent == flits) {
            ni.queue.pop_front();
            ni.flitsSent = 0;
            break; // next packet picks a VC next cycle
        }
    }
}

void
CmeshNetwork::allocateVc(Router &router, int idx)
{
    InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
    OutputPort &out = router.outputs[static_cast<std::size_t>(vc.outPort)];
    if (!out.local) {
        // The lowest free downstream VC of the packet's class.
        const std::uint32_t class_vcs =
            ((1u << (cfg_.numVcs / 2)) - 1) << vc.classBase;
        const std::uint32_t free = class_vcs & ~out.allocated;
        if (free == 0)
            return; // retry next cycle
        vc.outVc = std::countr_zero(free);
        out.allocated |= 1u << vc.outVc;
    }
    // Ejection needs no downstream VC.
    router.needVc &= ~bit(idx);
    out.ready |= bit(idx);
}

void
CmeshNetwork::routeAndAllocate(int router_id)
{
    Router &router = routers_[static_cast<std::size_t>(router_id)];

    // Route computation for fresh head flits.
    for (std::uint64_t fresh = router.occupied & ~router.routed; fresh != 0;
         fresh &= fresh - 1) {
        const int idx = std::countr_zero(fresh);
        InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
        if (!vc.fifo.front().head)
            continue;
        const Packet &pkt = packets_[vc.fifo.front().slot];
        vc.outPort = computeRoute(router_id, pkt);
        vc.classBase = vcClassBase(pkt);
        router.routed |= bit(idx);
        router.needVc |= bit(idx);
    }

    // VC allocation for routed heads without a downstream VC, in
    // round-robin order from vaPointer.  The pointer moves only after
    // the loop, so the visit order is a plain rotation of the mask.
    const std::uint64_t waiting = router.needVc & router.occupied;
    if (waiting != 0) {
        const std::uint64_t low = bit(router.vaPointer) - 1;
        for (std::uint64_t m = waiting & ~low; m != 0; m &= m - 1)
            allocateVc(router, std::countr_zero(m));
        for (std::uint64_t m = waiting & low; m != 0; m &= m - 1)
            allocateVc(router, std::countr_zero(m));
    }
    router.vaPointer = (router.vaPointer + 1) % router.totalVcs;
}

void
CmeshNetwork::switchAllocate(int router_id)
{
    Router &router = routers_[static_cast<std::size_t>(router_id)];
    if (router.occupied == 0)
        return; // no flit to move, and no pointer moves without a grant
    const int total_vcs = router.totalVcs;

    for (int out_port = 0; out_port < router.numPorts; ++out_port) {
        OutputPort &out =
            router.outputs[static_cast<std::size_t>(out_port)];
        if (!out.local && (router.linksBusy & (1u << out_port)) != 0)
            continue; // link busy this cycle
        // Local (ejection) ports are as wide as the endpoint interface;
        // mesh links carry one flit per cycle.
        int budget = out.width;
        // Scan position i probes input VC (rrPointer + i) % total_vcs,
        // re-reading rrPointer after every grant, exactly as
        // verify::RefCmesh does; the scan jumps straight to the next
        // live VC instead of probing each position.  Because a grant
        // moves rrPointer while i keeps counting, a grant at position i
        // makes a multi-flit ejection port skip the next i + 1 VCs: with
        // VCs 0 and 1 ready and rrPointer 0, it grants VC 0, then probes
        // position 2 and skips VC 1.  That skip is kept on purpose;
        // fixing it is a behaviour change that moves the CMESH goldens.
        for (int i = 0; i < total_vcs && budget > 0; ++i) {
            const std::uint64_t live = out.ready & router.occupied;
            int idx = out.rrPointer + i;
            if (idx >= total_vcs)
                idx -= total_vcs;
            const int gap = distanceToNextSet(live, idx, total_vcs);
            if (gap < 0 || i + gap >= total_vcs)
                break;
            i += gap;
            idx += gap;
            if (idx >= total_vcs)
                idx -= total_vcs;

            InputVc &vc = router.inputs[static_cast<std::size_t>(idx)];
            if (!out.local) {
                int &credits = out.credits[static_cast<std::size_t>(
                    vc.outVc)];
                if (credits <= 0)
                    continue;
                --credits;
            }

            const Flit flit = vc.fifo.front();
            vc.fifo.pop_front();
            if (vc.fifo.empty())
                router.occupied &= ~bit(idx);
            if (out.local) {
                ejectFlit(flit);
                --budget;
            } else {
                out.linkReg = flit;
                out.linkVc = vc.outVc;
                out.linkReadyAt =
                    cycle_ + static_cast<sim::Cycle>(cfg_.linkCyclesPerFlit);
                router.linksBusy |= 1u << out_port;
                dynamicEnergyJ_ += cfg_.energy.hopEnergyJ(sim::kFlitBits);
            }
            out.rrPointer = idx + 1 == total_vcs ? 0 : idx + 1;

            // Credit return to the upstream router this VC drains from.
            const int p = idx / cfg_.numVcs;
            if (p < 4) {
                // Output port p faces the router input port p drains.
                const OutputPort &up =
                    router.outputs[static_cast<std::size_t>(p)];
                if (up.neighbor >= 0) {
                    ++routers_[static_cast<std::size_t>(up.neighbor)]
                          .outputs[static_cast<std::size_t>(up.neighborPort)]
                          .credits[static_cast<std::size_t>(
                              idx - p * cfg_.numVcs)];
                }
            }

            if (flit.tail) {
                if (!out.local)
                    out.allocated &= ~(1u << vc.outVc);
                router.routed &= ~bit(idx);
                out.ready &= ~bit(idx);
            }
            if (!out.local)
                break; // one flit per mesh link per cycle
        }
    }
}

void
CmeshNetwork::step()
{
    deliverLinkFlits();
    for (int e = 0; e < numEndpoints_; ++e)
        injectFromInterface(e);
    for (int r = 0; r < numRouters_; ++r)
        routeAndAllocate(r);
    for (int r = 0; r < numRouters_; ++r)
        switchAllocate(r);
    ++cycle_;
}

std::uint64_t
CmeshNetwork::countBufferedFlits() const
{
    std::uint64_t count = 0;
    for (const Router &router : routers_) {
        for (const InputVc &vc : router.inputs)
            count += vc.fifo.size();
        count += static_cast<std::uint64_t>(
            std::popcount(router.linksBusy));
    }
    return count;
}

bool
CmeshNetwork::idle() const
{
    if (flitsInFlight_ > 0)
        return false;
    for (const auto &ni : interfaces_) {
        if (!ni.queue.empty())
            return false;
    }
    return true;
}

double
CmeshNetwork::staticEnergyJ(double cycle_seconds) const
{
    return cfg_.energy.routerStaticW * numRouters_ *
           static_cast<double>(cycle_) * cycle_seconds;
}

} // namespace electrical
} // namespace pearl
