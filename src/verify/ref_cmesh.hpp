/**
 * @file
 * A deliberately naive reference implementation of the CMESH baseline.
 *
 * RefCmesh keeps the original electrical::CmeshNetwork step verbatim:
 * std::deque input VCs, flits that share the packet through a
 * std::shared_ptr, and allocators that probe every input VC of a router
 * for every output port, every cycle.  It shares only leaf components
 * with the optimized model: electrical::CmeshConfig and its energy
 * constants, and sim::NetworkStats.
 *
 * The point is divergence detection, not speed: verify::runCmeshDiff
 * (verify/diff.hpp) steps a RefCmesh and a CmeshNetwork in lockstep and
 * compares injection acceptance, per-cycle deliveries, the dynamic
 * energy integral bit for bit and the flit ledger.  Behaviour the
 * optimized model mirrors rather than fixes lives here in its plainest
 * form — notably the switch allocator's round-robin pointer, which is
 * updated inside its scan (see switchAllocate).
 */

#ifndef PEARL_VERIFY_REF_CMESH_HPP
#define PEARL_VERIFY_REF_CMESH_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "electrical/cmesh.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/stats.hpp"

namespace pearl {
namespace verify {

/** The naive reference CMESH (see file comment). */
class RefCmesh : public sim::Network
{
  public:
    explicit RefCmesh(
        const electrical::CmeshConfig &cfg = electrical::CmeshConfig{});

    // sim::Network --------------------------------------------------------
    bool inject(const sim::Packet &pkt) override;
    bool canInject(const sim::Packet &pkt) const override;
    void step() override;
    std::vector<sim::Packet> &delivered() override { return delivered_; }
    sim::Cycle cycle() const override { return cycle_; }
    int numNodes() const override { return numEndpoints_; }
    const sim::NetworkStats &stats() const override { return stats_; }
    bool idle() const override;

    // State exposed to the differential driver -------------------------
    double dynamicEnergyJ() const { return dynamicEnergyJ_; }
    std::uint64_t flitsInFlight() const { return flitsInFlight_; }
    std::uint64_t countBufferedFlits() const;

  private:
    /** A flit in flight; every flit of a packet shares it. */
    struct Flit
    {
        std::shared_ptr<sim::Packet> pkt;
        int seq = 0;
        bool head = false;
        bool tail = false;
    };

    struct InputVc
    {
        std::deque<Flit> fifo;
        int outPort = -1;
        int outVc = -1;
        bool routed = false;
    };

    struct OutputVc
    {
        bool allocated = false;
        int credits = 0;
    };

    struct OutputPort
    {
        std::vector<OutputVc> vcs;
        std::optional<Flit> linkReg; //!< flit traversing the link
        int linkVc = -1;             //!< downstream VC of linkReg
        sim::Cycle linkReadyAt = 0;  //!< when linkReg reaches downstream
        int rrPointer = 0;           //!< switch-allocation round robin
    };

    struct Router
    {
        // Ports 0..3: mesh N/E/S/W; 4..: local endpoint ports.
        std::vector<std::vector<InputVc>> inputs; //!< [port][vc]
        std::vector<OutputPort> outputs;
        std::vector<sim::NodeId> localEndpoints;  //!< per local port
        int vaPointer = 0;                        //!< VC-allocation RR
    };

    /** Per-endpoint network interface: packets waiting to become flits. */
    struct NetworkInterface
    {
        std::deque<sim::Packet> queue;
        int flitsSent = 0;  //!< of the head packet
        int curVc = -1;     //!< VC carrying the head packet
        std::shared_ptr<sim::Packet> pktShared; //!< head packet, shared
    };

    static constexpr int kPortN = 0;
    static constexpr int kPortE = 1;
    static constexpr int kPortS = 2;
    static constexpr int kPortW = 3;

    int routerX(int r) const { return r % cfg_.meshX; }
    int routerY(int r) const { return r / cfg_.meshX; }
    int localWidth(sim::NodeId endpoint) const;
    int neighbor(int router, int dir) const;
    int oppositePort(int dir) const;
    int computeRoute(int router, const sim::Packet &pkt) const;
    bool isLocalPort(int router, int port) const;
    int vcClassBase(const sim::Packet &pkt) const;

    void deliverLinkFlits();
    void injectFromInterface(int endpoint);
    void routeAndAllocate(int router_id);
    void switchAllocate(int router_id);
    void ejectFlit(const Flit &flit);

    electrical::CmeshConfig cfg_;
    int numRouters_;
    int numEndpoints_;
    std::vector<Router> routers_;
    std::vector<NetworkInterface> interfaces_;
    std::vector<std::pair<int, int>> endpointPort_; //!< endpoint->(router,port)
    std::vector<sim::Packet> delivered_;
    sim::NetworkStats stats_;
    sim::Cycle cycle_ = 0;
    double dynamicEnergyJ_ = 0.0;
    std::uint64_t flitsInFlight_ = 0;
};

} // namespace verify
} // namespace pearl

#endif // PEARL_VERIFY_REF_CMESH_HPP
