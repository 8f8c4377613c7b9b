/**
 * @file
 * Tests of the PEARL crossbar network: end-to-end delivery, window
 * boundaries, policy application, collector callbacks and energy
 * accounting.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/network.hpp"
#include "core/topology.hpp"
#include "photonic/power_model.hpp"

namespace pearl {
namespace core {
namespace {

using photonic::PowerModel;
using photonic::WlState;
using sim::Cycle;
using sim::MsgClass;
using sim::Packet;

Packet
netPacket(int src, int dst, MsgClass cls = MsgClass::ReqCpuL2Down,
          int size = sim::kRequestBits)
{
    static std::uint64_t seq = 0;
    Packet p;
    p.id = ++seq;
    p.msgClass = cls;
    p.src = src;
    p.dst = dst;
    p.sizeBits = size;
    return p;
}

class PearlNetworkTest : public ::testing::Test
{
  protected:
    void
    makeNet(PowerPolicy *policy = nullptr)
    {
        policy_ = policy ? policy : &static64_;
        net_ = std::make_unique<PearlNetwork>(cfg_, power_, DbaConfig{},
                                              policy_);
    }

    void
    stepN(int n)
    {
        for (int i = 0; i < n; ++i)
            net_->step();
    }

    PearlConfig cfg_;
    PowerModel power_;
    StaticPolicy static64_{WlState::WL64};
    PowerPolicy *policy_ = nullptr;
    std::unique_ptr<PearlNetwork> net_;
};

TEST_F(PearlNetworkTest, DeliversEndToEnd)
{
    makeNet();
    ASSERT_TRUE(net_->inject(netPacket(0, 5)));
    stepN(20);
    ASSERT_EQ(net_->delivered().size(), 1u);
    const Packet &p = net_->delivered()[0];
    EXPECT_EQ(p.dst, 5);
    EXPECT_GT(p.cycleDelivered, p.cycleInjected);
    EXPECT_EQ(net_->stats().deliveredPackets(), 1u);
}

TEST_F(PearlNetworkTest, DeliveryLatencyIsReasonable)
{
    makeNet();
    net_->inject(netPacket(0, 5));
    stepN(20);
    ASSERT_EQ(net_->delivered().size(), 1u);
    // 2 reservation + 2 serialize + link/eject pipeline.
    const auto lat = net_->delivered()[0].latency();
    EXPECT_GE(lat, 5u);
    EXPECT_LE(lat, 10u);
}

TEST_F(PearlNetworkTest, AllSeventeenNodesReachable)
{
    makeNet();
    for (int src = 0; src < net_->numNodes(); ++src) {
        const int dst = (src + 7) % net_->numNodes();
        ASSERT_TRUE(net_->inject(netPacket(src, dst)));
    }
    stepN(40);
    EXPECT_EQ(net_->stats().deliveredPackets(), 17u);
}

TEST_F(PearlNetworkTest, IdleAfterDrain)
{
    makeNet();
    EXPECT_TRUE(net_->idle());
    net_->inject(netPacket(1, 2));
    EXPECT_FALSE(net_->idle());
    stepN(30);
    EXPECT_TRUE(net_->idle());
}

TEST_F(PearlNetworkTest, WindowCollectorFiresPerRouterPerWindow)
{
    cfg_.reservationWindow = 100;
    cfg_.windowOffsetPerRouter = 3;
    makeNet();
    std::vector<WindowRecord> records;
    net_->setWindowCollector(
        [&records](const WindowRecord &r) { records.push_back(r); });
    stepN(250);
    // Router 0 (offset 0) closes windows at cycles 100 and 200; routers
    // 1..16 (offsets 3..48) close at offset, offset+100, offset+200.
    EXPECT_EQ(records.size(), static_cast<std::size_t>(2 + 16 * 3));
    // Offsets stagger the boundaries: both aligned and offset closes
    // appear in the stream.
    bool found_aligned = false, found_offset = false;
    for (const auto &r : records) {
        found_aligned |= (r.windowEnd % 100) == 0;
        found_offset |= (r.windowEnd % 100) == 3;
    }
    EXPECT_TRUE(found_aligned);
    EXPECT_TRUE(found_offset);
}

TEST_F(PearlNetworkTest, PolicyDrivesLaserState)
{
    cfg_.reservationWindow = 50;
    StaticPolicy low(WlState::WL8);
    makeNet(&low);
    stepN(200);
    for (int r = 0; r < net_->numNodes(); ++r)
        EXPECT_EQ(net_->router(r).laser().state(), WlState::WL8);
    EXPECT_GT(net_->residency(WlState::WL8), 0.5);
}

TEST_F(PearlNetworkTest, LaserEnergyMatchesUniformState)
{
    cfg_.reservationWindow = 1000000; // no boundaries in this test
    makeNet();
    stepN(1000);
    // All routers at WL64: total power is the paper's network aggregate.
    const double expected =
        1.16 * 1000 * cfg_.cycleSeconds *
        (16.0 + cfg_.l3WaveguideGroup) / (16.0 + cfg_.l3WaveguideGroup);
    EXPECT_NEAR(net_->laserEnergyJ(), expected, expected * 1e-9);
    EXPECT_NEAR(net_->averageLaserPowerW(), 1.16, 1e-9);
}

TEST_F(PearlNetworkTest, EnergyAccumulates)
{
    makeNet();
    stepN(100);
    const double laser = net_->laserEnergyJ();
    const double trim = net_->trimmingEnergyJ();
    const double stat = net_->staticEnergyJ();
    EXPECT_GT(laser, 0.0);
    EXPECT_GT(trim, 0.0);
    EXPECT_GT(stat, 0.0);
    EXPECT_GE(net_->totalEnergyJ(), laser + trim + stat);
    net_->inject(netPacket(0, 3, MsgClass::RespCpuL2Down,
                           sim::kResponseBits));
    stepN(30);
    EXPECT_GT(net_->dynamicEnergyJ(), 0.0);
}

TEST_F(PearlNetworkTest, BackpressureOnFullInjectBuffer)
{
    makeNet();
    int accepted = 0;
    // Responses are 5 flits; 64 slots accept 12 of them.
    while (net_->canInject(netPacket(0, 1, MsgClass::RespCpuL2Down,
                                     sim::kResponseBits)) &&
           accepted < 100) {
        net_->inject(netPacket(0, 1, MsgClass::RespCpuL2Down,
                               sim::kResponseBits));
        ++accepted;
    }
    EXPECT_EQ(accepted, 12);
    EXPECT_FALSE(net_->inject(netPacket(0, 1, MsgClass::RespCpuL2Down,
                                        sim::kResponseBits)));
    // Draining makes room again.
    stepN(60);
    EXPECT_TRUE(net_->canInject(netPacket(0, 1, MsgClass::RespCpuL2Down,
                                          sim::kResponseBits)));
}

TEST_F(PearlNetworkTest, TelemetryWavelengthFollowsPolicy)
{
    cfg_.reservationWindow = 50;
    StaticPolicy low(WlState::WL16);
    makeNet(&low);
    stepN(120);
    EXPECT_EQ(net_->telemetryOf(0).wavelengths, 16);
}

TEST_F(PearlNetworkTest, ResidencySumsToOne)
{
    cfg_.reservationWindow = 64;
    ReactivePolicy reactive;
    makeNet(&reactive);
    net_->inject(netPacket(2, 9, MsgClass::RespGpuL2Down,
                           sim::kResponseBits));
    stepN(500);
    double total = 0.0;
    for (int s = 0; s < photonic::kNumWlStates; ++s)
        total += net_->residency(photonic::stateFromIndex(s));
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(PearlNetworkTest, L3RouterHasWaveguideGroup)
{
    makeNet();
    EXPECT_EQ(net_->router(cfg_.l3Node).waveguides(),
              cfg_.l3WaveguideGroup);
    EXPECT_EQ(net_->router(0).waveguides(), 1);
}

/** Counts its decisions; always answers 64 WL. */
class CountingPolicy : public PowerPolicy
{
  public:
    WlState
    nextState(const WindowObservation &) override
    {
        ++calls;
        return WlState::WL64;
    }
    const char *name() const override { return "counting"; }

    std::uint64_t calls = 0;
};

// windowDecisions() is what the concurrent ML pass-1 collections skip
// ahead by, so it must count stage 5's policy calls exactly: on 17-,
// 33- and 129-node chips, with RW dividing the run or not, RW above
// the run, staggers of 0, 10 and 37, and runs of 0 and 1 cycles.
TEST(WindowDecisions, EqualsPolicyCallsOfABareRun)
{
    const PowerModel power;
    for (int clusters : {16, 32, 128}) {
        TopologySpec spec;
        spec.clusters = clusters;
        const PearlConfig base = spec.pearlConfig();
        for (std::uint64_t rw : {1u, 7u, 100u, 250u, 333u, 700u, 1500u}) {
            for (int offset : {0, 10, 37}) {
                for (Cycle cycles : {0u, 1u, 2u, 99u, 100u, 101u, 1000u}) {
                    SCOPED_TRACE(std::to_string(base.numNodes()) +
                                 " nodes, RW " + std::to_string(rw) +
                                 ", offset " + std::to_string(offset) +
                                 ", " + std::to_string(cycles) +
                                 " cycles");
                    PearlConfig cfg = base;
                    cfg.reservationWindow = rw;
                    cfg.windowOffsetPerRouter = offset;
                    CountingPolicy policy;
                    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
                    for (Cycle c = 0; c < cycles; ++c)
                        net.step();
                    EXPECT_EQ(PearlNetwork::windowDecisions(cfg, cycles),
                              policy.calls);
                }
            }
        }
    }
}

} // namespace
} // namespace core
} // namespace pearl
