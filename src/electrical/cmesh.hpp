/**
 * @file
 * The electrical CMESH baseline: a 4x4 concentrated mesh with XY routing,
 * virtual-channel wormhole flow control and credit-based backpressure
 * (Section IV: "4 VCs, 4 input buffers per VC, each buffer slot is 128
 * bits").
 *
 * Endpoints 0-15 are the clusters, one per router; endpoint 16 is the L3,
 * concentrated onto a centre router.  Requests travel in VCs {0,1} and
 * responses in VCs {2,3}, which breaks request-response protocol deadlock;
 * XY dimension order keeps routing deadlock-free.  The link width equals
 * one flit per cycle, matching the PEARL crossbar's bisection bandwidth
 * at the full 64-wavelength state (see DESIGN.md).
 *
 * The step touches only live state: flits carry a slot into a packet
 * slab, input VCs are fixed ring buffers, and each router keeps 64-bit
 * masks of its occupied, routed and VC-waiting input VCs (so a router
 * has at most 64 input VCs: numVcs <= kMaxVcs).  verify::RefCmesh keeps
 * the plain version of every stage as the lockstep oracle.
 */

#ifndef PEARL_ELECTRICAL_CMESH_HPP
#define PEARL_ELECTRICAL_CMESH_HPP

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "electrical/energy.hpp"
#include "sim/network.hpp"
#include "sim/packet.hpp"
#include "sim/ring_queue.hpp"
#include "sim/stats.hpp"

namespace pearl {

namespace sim {
class WorkerPool;
} // namespace sim

namespace electrical {

/** Configuration of the CMESH baseline. */
struct CmeshConfig
{
    int meshX = 4;
    int meshY = 4;
    int numVcs = 4;              //!< VCs per input port (2 req + 2 resp)
    int vcDepthFlits = 4;        //!< buffer slots per VC
    int l3Router = 5;            //!< mesh router hosting the MC endpoint
    int injectionQueueDepth = 16; //!< packets queued per endpoint NI
    int clusterLocalFlitsPerCycle = 2; //!< cluster ejection/injection width
    int mcLocalFlitsPerCycle = 4;      //!< MC endpoint width (2 channels)
    /** Cycles a flit occupies a mesh link: 1 for the full-width CMESH,
     *  2 / 4 for the proportionally bandwidth-reduced variants compared
     *  against the 32- and 16-wavelength photonic states (Figure 5). */
    int linkCyclesPerFlit = 1;
    ElectricalConstants energy;
};

/** The CMESH network model. */
class CmeshNetwork : public sim::Network
{
  public:
    /** Ports per router at most: mesh N/E/S/W, the cluster, the MC. */
    static constexpr int kMaxPorts = 6;
    /** VCs per port at most: a router's kMaxPorts * kMaxVcs input VCs
     *  must fit one 64-bit mask, and numVcs is even. */
    static constexpr int kMaxVcs = 10;

    explicit CmeshNetwork(const CmeshConfig &cfg = CmeshConfig{});

    // sim::Network interface ------------------------------------------------
    bool inject(const sim::Packet &pkt) override;
    bool canInject(const sim::Packet &pkt) const override;
    void step() override;
    std::vector<sim::Packet> &delivered() override { return delivered_; }
    sim::Cycle cycle() const override { return cycle_; }
    int numNodes() const override { return numEndpoints_; }
    const sim::NetworkStats &stats() const override { return stats_; }
    bool idle() const override;

    // Energy ---------------------------------------------------------------
    /** Total dynamic energy spent so far, joules. */
    double dynamicEnergyJ() const { return dynamicEnergyJ_; }

    /** Static energy over the elapsed cycles, joules. */
    double staticEnergyJ(double cycle_seconds) const;

    /** Total network energy (static + dynamic), joules. */
    double
    totalEnergyJ(double cycle_seconds) const
    {
        return dynamicEnergyJ() + staticEnergyJ(cycle_seconds);
    }

    const CmeshConfig &config() const { return cfg_; }

    /** Mesh router hosting an endpoint. */
    int routerOf(sim::NodeId endpoint) const;

    /** Flits per cycle an endpoint's local interface moves. */
    int localWidth(sim::NodeId endpoint) const;

    /** Kept only so pearlbench builds; every run steps on one thread. */
    void setWorkerPool(sim::WorkerPool *) {}

    /** Flits inside the router fabric (input FIFOs + link registers). */
    std::uint64_t flitsInFlight() const { return flitsInFlight_; }

    /** Recount buffered flits from the FIFOs and link registers — the
     *  verification plane checks it equals flitsInFlight(). */
    std::uint64_t countBufferedFlits() const;

  private:
    /** A flit in flight: its packet's slot in packets_, and whether it
     *  opens or closes the packet. */
    struct Flit
    {
        std::uint32_t slot = 0;
        bool head = false;
        bool tail = false;
    };

    struct InputVc
    {
        explicit InputVc(int depth)
            : fifo(static_cast<std::size_t>(depth))
        {}

        sim::RingQueue<Flit> fifo;
        int outPort = -1;   //!< valid while routed
        int outVc = -1;     //!< downstream VC, valid while ready
        int classBase = 0;  //!< first VC of the head packet's class
    };

    /** An output port with its wiring precomputed. */
    struct OutputPort
    {
        int neighbor = -1;      //!< downstream router; -1 local/edge
        int neighborPort = -1;  //!< that router's input port
        bool local = false;     //!< ejection port to an endpoint
        int width = 1;          //!< flits it moves per cycle
        /** Input VCs routed here that hold a downstream VC. */
        std::uint64_t ready = 0;
        std::uint32_t allocated = 0;          //!< downstream VCs held
        std::array<int, kMaxVcs> credits{};   //!< per downstream VC
        Flit linkReg;                         //!< flit on the link
        int linkVc = -1;             //!< downstream VC of linkReg
        sim::Cycle linkReadyAt = 0;  //!< when linkReg reaches downstream
        int rrPointer = 0;           //!< switch-allocation round robin
    };

    struct Router
    {
        // Ports 0..3: mesh N/E/S/W; 4..: local endpoint ports.
        int numPorts = 0;
        int totalVcs = 0;           //!< numPorts * numVcs
        std::uint64_t occupied = 0; //!< input VCs holding flits
        std::uint64_t routed = 0;   //!< input VCs whose head is routed
        std::uint64_t needVc = 0;   //!< routed, waiting for a VC
        unsigned linksBusy = 0;     //!< mesh outputs holding linkReg
        int vaPointer = 0;          //!< VC-allocation RR
        std::array<OutputPort, kMaxPorts> outputs;
        std::vector<InputVc> inputs; //!< [port * numVcs + vc]
    };

    /** Per-endpoint network interface: packets waiting to become flits. */
    struct NetworkInterface
    {
        explicit NetworkInterface(int depth)
            : queue(static_cast<std::size_t>(depth))
        {}

        sim::RingQueue<sim::Packet> queue;
        int flitsSent = 0;   //!< of the head packet
        int curVc = -1;      //!< flat input VC carrying the head packet
        std::uint32_t slot = 0; //!< head packet's slot in packets_
    };

    static constexpr int kPortN = 0;
    static constexpr int kPortE = 1;
    static constexpr int kPortS = 2;
    static constexpr int kPortW = 3;

    int routerX(int r) const { return r % cfg_.meshX; }
    int routerY(int r) const { return r / cfg_.meshX; }
    int neighbor(int router, int dir) const;
    int oppositePort(int dir) const;
    int computeRoute(int router, const sim::Packet &pkt) const;
    int vcClassBase(const sim::Packet &pkt) const;

    void deliverLinkFlits();
    void injectFromInterface(int endpoint);
    void routeAndAllocate(int router_id);
    void allocateVc(Router &router, int idx);
    void switchAllocate(int router_id);
    void ejectFlit(const Flit &flit);

    CmeshConfig cfg_;
    int numRouters_;
    int numEndpoints_;
    std::vector<Router> routers_;
    std::vector<NetworkInterface> interfaces_;
    std::vector<std::pair<int, int>> endpointPort_; //!< endpoint->(router,port)
    /** Packets whose flits are in the fabric; a slot frees when the
     *  tail ejects and is reused LIFO from freeSlots_. */
    std::vector<sim::Packet> packets_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<sim::Packet> delivered_;
    sim::NetworkStats stats_;
    sim::Cycle cycle_ = 0;
    double dynamicEnergyJ_ = 0.0;
    std::uint64_t flitsInFlight_ = 0;
};

} // namespace electrical
} // namespace pearl

#endif // PEARL_ELECTRICAL_CMESH_HPP
