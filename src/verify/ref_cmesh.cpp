#include "verify/ref_cmesh.hpp"

#include "common/log.hpp"

namespace pearl {
namespace verify {

using sim::Cycle;
using sim::NodeId;
using sim::Packet;

RefCmesh::RefCmesh(const electrical::CmeshConfig &cfg)
    : cfg_(cfg), numRouters_(cfg.meshX * cfg.meshY),
      numEndpoints_(numRouters_ + 1)
{
    PEARL_ASSERT(cfg_.numVcs >= 2 && cfg_.numVcs % 2 == 0,
                 "need an even VC count for request/response classes");
    PEARL_ASSERT(cfg_.l3Router >= 0 && cfg_.l3Router < numRouters_);

    routers_.resize(static_cast<std::size_t>(numRouters_));
    interfaces_.resize(static_cast<std::size_t>(numEndpoints_));
    endpointPort_.resize(static_cast<std::size_t>(numEndpoints_));

    for (int r = 0; r < numRouters_; ++r) {
        Router &router = routers_[static_cast<std::size_t>(r)];
        router.localEndpoints.push_back(r); // the cluster endpoint
        if (r == cfg_.l3Router)
            router.localEndpoints.push_back(numRouters_); // the L3
        const int num_ports =
            4 + static_cast<int>(router.localEndpoints.size());
        router.inputs.assign(static_cast<std::size_t>(num_ports), {});
        router.outputs.resize(static_cast<std::size_t>(num_ports));
        for (int p = 0; p < num_ports; ++p) {
            router.inputs[static_cast<std::size_t>(p)].resize(
                static_cast<std::size_t>(cfg_.numVcs));
            auto &out = router.outputs[static_cast<std::size_t>(p)];
            out.vcs.resize(static_cast<std::size_t>(cfg_.numVcs));
            for (auto &vc : out.vcs)
                vc.credits = cfg_.vcDepthFlits;
        }
        for (std::size_t i = 0; i < router.localEndpoints.size(); ++i) {
            endpointPort_[static_cast<std::size_t>(
                router.localEndpoints[i])] = {r, 4 + static_cast<int>(i)};
        }
    }
}

int
RefCmesh::localWidth(sim::NodeId endpoint) const
{
    return endpoint == numRouters_ ? cfg_.mcLocalFlitsPerCycle
                                   : cfg_.clusterLocalFlitsPerCycle;
}

int
RefCmesh::neighbor(int router, int dir) const
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
RefCmesh::oppositePort(int dir) const
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
RefCmesh::computeRoute(int router, const Packet &pkt) const
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

bool
RefCmesh::isLocalPort(int router, int port) const
{
    return port >= 4 &&
           port < 4 + static_cast<int>(
                          routers_[static_cast<std::size_t>(router)]
                              .localEndpoints.size());
}

int
RefCmesh::vcClassBase(const Packet &pkt) const
{
    // Requests (and probes, which are op-requests) use the lower half of
    // the VCs; responses the upper half.  This breaks protocol deadlock.
    const bool response = pkt.op == sim::CoherenceOp::Data ||
                          pkt.op == sim::CoherenceOp::DataExcl ||
                          pkt.op == sim::CoherenceOp::Ack;
    return response ? cfg_.numVcs / 2 : 0;
}

bool
RefCmesh::canInject(const Packet &pkt) const
{
    const auto &ni = interfaces_[static_cast<std::size_t>(pkt.src)];
    return static_cast<int>(ni.queue.size()) < cfg_.injectionQueueDepth;
}

bool
RefCmesh::inject(const Packet &pkt)
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
RefCmesh::ejectFlit(const Flit &flit)
{
    dynamicEnergyJ_ += cfg_.energy.ejectEnergyJ(sim::kFlitBits);
    --flitsInFlight_;
    if (flit.tail) {
        Packet pkt = *flit.pkt;
        pkt.cycleDelivered = cycle_;
        stats_.noteDelivered(pkt);
        delivered_.push_back(pkt);
    }
}

void
RefCmesh::deliverLinkFlits()
{
    for (int r = 0; r < numRouters_; ++r) {
        Router &router = routers_[static_cast<std::size_t>(r)];
        const int num_ports = static_cast<int>(router.outputs.size());
        for (int p = 0; p < num_ports; ++p) {
            OutputPort &out = router.outputs[static_cast<std::size_t>(p)];
            if (!out.linkReg || cycle_ < out.linkReadyAt)
                continue;
            {
                const int n = neighbor(r, p);
                PEARL_ASSERT(n >= 0, "flit sent off the mesh edge");
                const int in_port = oppositePort(p);
                auto &fifo =
                    routers_[static_cast<std::size_t>(n)]
                        .inputs[static_cast<std::size_t>(in_port)]
                               [static_cast<std::size_t>(out.linkVc)]
                        .fifo;
                PEARL_ASSERT(static_cast<int>(fifo.size()) <
                                 cfg_.vcDepthFlits,
                             "credit protocol violated");
                fifo.push_back(*out.linkReg);
            }
            out.linkReg.reset();
            out.linkVc = -1;
        }
    }
}

void
RefCmesh::injectFromInterface(int e)
{
    NetworkInterface &ni = interfaces_[static_cast<std::size_t>(e)];
    if (ni.queue.empty())
        return;
    const auto [r, port] = endpointPort_[static_cast<std::size_t>(e)];
    Router &router = routers_[static_cast<std::size_t>(r)];
    auto &vcs = router.inputs[static_cast<std::size_t>(port)];

    Packet &pkt = ni.queue.front();
    const int flits = pkt.numFlits();

    // Find (or continue with) the VC carrying this packet.
    if (ni.flitsSent == 0) {
        const int base = vcClassBase(pkt);
        int chosen = -1;
        for (int v = base; v < base + cfg_.numVcs / 2; ++v) {
            InputVc &vc = vcs[static_cast<std::size_t>(v)];
            if (vc.fifo.empty() && !vc.routed) {
                chosen = v;
                break;
            }
        }
        if (chosen < 0)
            return; // all class VCs busy; retry next cycle
        ni.curVc = chosen;
        ni.pktShared = std::make_shared<Packet>(pkt);
    }

    // The NI datapath pushes up to the local-port width per cycle.
    int budget = localWidth(e);
    while (budget-- > 0) {
        InputVc &vc = vcs[static_cast<std::size_t>(ni.curVc)];
        if (static_cast<int>(vc.fifo.size()) >= cfg_.vcDepthFlits)
            break;
        Flit flit;
        flit.pkt = ni.pktShared;
        flit.seq = ni.flitsSent;
        flit.head = ni.flitsSent == 0;
        flit.tail = ni.flitsSent == flits - 1;
        vc.fifo.push_back(flit);
        ++flitsInFlight_;
        ++ni.flitsSent;
        if (ni.flitsSent == flits) {
            ni.queue.pop_front();
            ni.flitsSent = 0;
            ni.pktShared.reset();
            break; // next packet picks a VC next cycle
        }
    }
}

void
RefCmesh::routeAndAllocate(int router_id)
{
    Router &router = routers_[static_cast<std::size_t>(router_id)];
    const int num_ports = static_cast<int>(router.inputs.size());

    // Route computation for fresh head flits.
    for (int p = 0; p < num_ports; ++p) {
        for (int v = 0; v < cfg_.numVcs; ++v) {
            InputVc &vc =
                router.inputs[static_cast<std::size_t>(p)]
                             [static_cast<std::size_t>(v)];
            if (vc.routed || vc.fifo.empty() || !vc.fifo.front().head)
                continue;
            vc.outPort = computeRoute(router_id, *vc.fifo.front().pkt);
            vc.routed = true;
        }
    }

    // VC allocation for routed heads without a downstream VC.
    const int total_vcs = num_ports * cfg_.numVcs;
    for (int i = 0; i < total_vcs; ++i) {
        const int idx = (router.vaPointer + i) % total_vcs;
        const int p = idx / cfg_.numVcs;
        const int v = idx % cfg_.numVcs;
        InputVc &vc = router.inputs[static_cast<std::size_t>(p)]
                                   [static_cast<std::size_t>(v)];
        if (!vc.routed || vc.outVc >= 0 || vc.fifo.empty())
            continue;
        if (isLocalPort(router_id, vc.outPort)) {
            // Ejection needs no downstream VC.
            vc.outVc = v;
            continue;
        }
        OutputPort &out =
            router.outputs[static_cast<std::size_t>(vc.outPort)];
        const int base = vcClassBase(*vc.fifo.front().pkt);
        for (int ov = base; ov < base + cfg_.numVcs / 2; ++ov) {
            OutputVc &ovc = out.vcs[static_cast<std::size_t>(ov)];
            if (!ovc.allocated) {
                ovc.allocated = true;
                vc.outVc = ov;
                break;
            }
        }
    }
    router.vaPointer = (router.vaPointer + 1) % total_vcs;
}

void
RefCmesh::switchAllocate(int router_id)
{
    Router &router = routers_[static_cast<std::size_t>(router_id)];
    const int num_ports = static_cast<int>(router.inputs.size());
    const int total_vcs = num_ports * cfg_.numVcs;

    for (int out_port = 0; out_port < num_ports; ++out_port) {
        OutputPort &out =
            router.outputs[static_cast<std::size_t>(out_port)];
        const bool local = isLocalPort(router_id, out_port);
        if (!local && out.linkReg)
            continue; // link busy this cycle
        // Local (ejection) ports are as wide as the endpoint interface;
        // mesh links carry one flit per cycle.
        int budget = 1;
        if (local) {
            budget = localWidth(
                router.localEndpoints[static_cast<std::size_t>(out_port -
                                                               4)]);
        }
        for (int i = 0; i < total_vcs && budget > 0; ++i) {
            const int idx = (out.rrPointer + i) % total_vcs;
            const int p = idx / cfg_.numVcs;
            const int v = idx % cfg_.numVcs;
            InputVc &vc = router.inputs[static_cast<std::size_t>(p)]
                                       [static_cast<std::size_t>(v)];
            if (!vc.routed || vc.outPort != out_port || vc.fifo.empty() ||
                vc.outVc < 0) {
                continue;
            }
            if (!local) {
                OutputVc &ovc =
                    out.vcs[static_cast<std::size_t>(vc.outVc)];
                if (ovc.credits <= 0)
                    continue;
                --ovc.credits;
            }

            Flit flit = vc.fifo.front();
            vc.fifo.pop_front();
            if (local) {
                ejectFlit(flit);
                --budget;
            } else {
                out.linkReg = flit;
                out.linkVc = vc.outVc;
                out.linkReadyAt =
                    cycle_ + static_cast<sim::Cycle>(cfg_.linkCyclesPerFlit);
                dynamicEnergyJ_ += cfg_.energy.hopEnergyJ(sim::kFlitBits);
            }
            // Moving the pointer inside the scan is the behaviour the
            // optimized model mirrors: on a multi-flit ejection port a
            // grant at position i skips the next i + 1 VCs.
            out.rrPointer = (idx + 1) % total_vcs;

            // Credit return to the upstream router this VC drains from.
            if (p < 4) {
                const int up = neighbor(router_id, p);
                if (up >= 0) {
                    const int up_out = oppositePort(p);
                    ++routers_[static_cast<std::size_t>(up)]
                          .outputs[static_cast<std::size_t>(up_out)]
                          .vcs[static_cast<std::size_t>(v)]
                          .credits;
                }
            }

            if (flit.tail) {
                if (!local) {
                    out.vcs[static_cast<std::size_t>(vc.outVc)].allocated =
                        false;
                }
                vc.routed = false;
                vc.outPort = -1;
                vc.outVc = -1;
            }
            if (!local)
                break; // one flit per mesh link per cycle
        }
    }
}

void
RefCmesh::step()
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
RefCmesh::countBufferedFlits() const
{
    std::uint64_t count = 0;
    for (const Router &router : routers_) {
        for (const auto &port : router.inputs) {
            for (const InputVc &vc : port)
                count += vc.fifo.size();
        }
        for (const OutputPort &out : router.outputs)
            count += out.linkReg ? 1 : 0;
    }
    return count;
}

bool
RefCmesh::idle() const
{
    if (flitsInFlight_ > 0)
        return false;
    for (const auto &ni : interfaces_) {
        if (!ni.queue.empty())
            return false;
    }
    return true;
}

} // namespace verify
} // namespace pearl
