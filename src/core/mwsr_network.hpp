/**
 * @file
 * An MWSR (multiple-writer single-reader) photonic crossbar with
 * token-ring arbitration — the Corona-style design the paper's Related
 * Work contrasts with PEARL's reservation-assisted SWMR.
 *
 * Each *destination* owns a data waveguide; any router may write to it,
 * but only the current holder of that channel's token.  The token
 * circulates over a dedicated arbitration waveguide, costing one cycle
 * per hop, so a writer waits on average half a rotation before it can
 * transmit — the arbitration latency R-SWMR eliminates by replacing the
 * token with a receiver-side reservation broadcast.
 *
 * The model reuses the photonic power/laser machinery; wavelength
 * scaling is intentionally not supported (this is a static baseline for
 * the SWMR-vs-MWSR ablation).
 */

#ifndef PEARL_CORE_MWSR_NETWORK_HPP
#define PEARL_CORE_MWSR_NETWORK_HPP

#include <vector>

#include "core/arch_config.hpp"
#include "photonic/power_model.hpp"
#include "photonic/wl_state.hpp"
#include "sim/min_heap.hpp"
#include "sim/network.hpp"
#include "sim/ring_queue.hpp"

namespace pearl {
namespace core {

/** Configuration of the MWSR baseline. */
struct MwsrConfig
{
    int numNodes = 17;
    photonic::WlState state = photonic::WlState::WL64;
    int linkLatencyCycles = 2;   //!< propagation + receive pipeline
    int tokenHopCycles = 1;      //!< token pass latency per router
    int voqDepthPackets = 8;     //!< per (source, destination) queue
    double cycleSeconds = 0.5e-9;
};

/** Token-arbitrated multiple-writer single-reader crossbar. */
class MwsrNetwork : public sim::Network
{
  public:
    MwsrNetwork(const MwsrConfig &cfg, const photonic::PowerModel &power);

    // sim::Network ------------------------------------------------------
    bool inject(const sim::Packet &pkt) override;
    bool canInject(const sim::Packet &pkt) const override;
    void step() override;
    std::vector<sim::Packet> &delivered() override { return delivered_; }
    sim::Cycle cycle() const override { return cycle_; }
    int numNodes() const override { return cfg_.numNodes; }
    const sim::NetworkStats &stats() const override { return stats_; }
    bool idle() const override;

    /** Total laser energy (all channels always lit), joules. */
    double laserEnergyJ() const;

    /** Mean cycles writers spent waiting for a token (arbitration
     *  latency — the quantity R-SWMR removes). */
    double avgTokenWaitCycles() const;

  private:
    /** One destination's waveguide + its circulating token. */
    struct Channel
    {
        int holder = 0;          //!< router currently holding the token
        int hopCountdown = 0;    //!< cycles until the token lands
        bool transmitting = false;
        int flitsRemaining = 0;
        long creditBits = 0;
        sim::Cycle grabStart = 0;
    };

    struct InFlight
    {
        sim::Cycle due;
        sim::Packet pkt;

        bool
        operator>(const InFlight &o) const
        {
            return due > o.due;
        }
    };

    sim::RingQueue<sim::Packet> &voq(int src, int dst);
    const sim::RingQueue<sim::Packet> &voq(int src, int dst) const;

    MwsrConfig cfg_;
    photonic::PowerModel power_;
    std::vector<Channel> channels_;                   //!< per destination
    std::vector<sim::RingQueue<sim::Packet>> voqs_;   //!< src*N + dst
    sim::MinHeap<InFlight> inFlight_;
    std::vector<sim::Packet> delivered_;
    sim::NetworkStats stats_;
    sim::Cycle cycle_ = 0;
    std::uint64_t tokenWaitTotal_ = 0;
    std::uint64_t tokenGrabs_ = 0;
    std::uint64_t flitsInFlight_ = 0;
};

} // namespace core
} // namespace pearl

#endif // PEARL_CORE_MWSR_NETWORK_HPP
