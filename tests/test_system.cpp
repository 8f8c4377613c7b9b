/**
 * @file
 * Integration tests: the full HeteroSystem (clusters + banked L3 +
 * memory) running on both network implementations.
 */

#include <gtest/gtest.h>

#include "core/network.hpp"
#include "core/system.hpp"
#include "core/topology.hpp"
#include "electrical/cmesh.hpp"
#include "photonic/power_model.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace core {
namespace {

using traffic::BenchmarkPair;
using traffic::BenchmarkSuite;

class SystemTest : public ::testing::Test
{
  protected:
    SystemTest() : pair_{suite_.find("FA"), suite_.find("DCT")} {}

    BenchmarkSuite suite_;
    BenchmarkPair pair_;
};

TEST_F(SystemTest, PearlEndToEndTrafficFlows)
{
    PearlConfig cfg;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);

    EXPECT_GT(net.stats().injectedPackets(), 100u);
    EXPECT_GT(net.stats().deliveredPackets(), 100u);
    // Both request and response classes moved.
    EXPECT_GT(net.stats().classDelivered(sim::MsgClass::ReqGpuL2Down), 0u);
    EXPECT_GT(net.stats().classDelivered(sim::MsgClass::RespCpuL2Down),
              0u);
    // Memory-class traffic flowed to/from node 16.
    EXPECT_GT(net.stats().classDelivered(sim::MsgClass::ReqL3), 0u);
    EXPECT_GT(net.stats().classDelivered(sim::MsgClass::RespL3), 0u);
}

TEST_F(SystemTest, NeedsANetworkThatHasNotStepped)
{
    // The clusters key their demand on the network cycle from 0.
    electrical::CmeshNetwork net;
    net.step();
    EXPECT_DEATH(HeteroSystem(net, pair_, SystemConfig{}),
                 "network that has not stepped");
}

TEST_F(SystemTest, CmeshEndToEndTrafficFlows)
{
    electrical::CmeshNetwork net;
    HeteroSystem system(net, pair_, SystemConfig{});
    system.run(5000);
    EXPECT_GT(net.stats().deliveredPackets(), 100u);
}

TEST_F(SystemTest, DeterministicAcrossRuns)
{
    auto run = [this]() {
        PearlConfig cfg;
        photonic::PowerModel power;
        StaticPolicy policy(photonic::WlState::WL64);
        PearlNetwork net(cfg, power, DbaConfig{}, &policy);
        HeteroSystem system(net, pair_, SystemConfig{},
                            [&net](int n) { return &net.telemetryOf(n); });
        system.run(3000);
        return net.stats().deliveredPackets();
    };
    EXPECT_EQ(run(), run());
}

TEST_F(SystemTest, SeedChangesOutcome)
{
    auto run = [this](std::uint64_t seed) {
        PearlConfig cfg;
        photonic::PowerModel power;
        StaticPolicy policy(photonic::WlState::WL64);
        PearlNetwork net(cfg, power, DbaConfig{}, &policy);
        SystemConfig sys;
        sys.seed = seed;
        HeteroSystem system(net, pair_, sys,
                            [&net](int n) { return &net.telemetryOf(n); });
        system.run(3000);
        return net.stats().deliveredPackets();
    };
    EXPECT_NE(run(1), run(2));
}

TEST_F(SystemTest, PacketConservation)
{
    // Every injected packet is eventually delivered or still queued; the
    // system never loses or duplicates packets.
    PearlConfig cfg;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(4000);
    EXPECT_LE(net.stats().deliveredPackets(),
              net.stats().injectedPackets());
    // In-flight inventory is bounded by the buffering, not growing
    // without bound.
    const auto in_flight =
        net.stats().injectedPackets() - net.stats().deliveredPackets();
    EXPECT_LT(in_flight, 4000u);
}

TEST_F(SystemTest, CacheStatisticsAreSane)
{
    PearlConfig cfg;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(8000);
    const auto cs = system.aggregateClusterStats();
    EXPECT_GT(cs.accesses[0], 0u);
    EXPECT_GT(cs.accesses[1], 0u);
    EXPECT_GT(cs.l1Hits[0] + cs.l1Misses[0], 0u);
    // Miss rates are valid fractions.
    EXPECT_LE(cs.l1MissRate(sim::CoreType::CPU), 1.0);
    EXPECT_LE(cs.l2MissRate(sim::CoreType::GPU), 1.0);
    const auto l3 = system.aggregateL3Stats();
    EXPECT_GT(l3.reads + l3.readExcls, 0u);
    EXPECT_LE(l3.hitRate(), 1.0);
}

TEST_F(SystemTest, LocalBankTrafficShortCircuits)
{
    // Some requests home onto the requester's own bank; they never touch
    // the network, so network injections must be fewer than total L3
    // requests + responses.
    PearlConfig cfg;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);
    const auto l3 = system.aggregateL3Stats();
    const auto network_l2down =
        net.stats().classInjected(sim::MsgClass::ReqCpuL2Down) +
        net.stats().classInjected(sim::MsgClass::ReqGpuL2Down);
    EXPECT_LT(network_l2down, l3.reads + l3.readExcls + l3.writebacks);
}

TEST_F(SystemTest, TelemetryPopulatedOnAllRouters)
{
    PearlConfig cfg;
    cfg.reservationWindow = 1 << 30; // no resets during the test
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);
    int routers_with_injections = 0;
    for (int r = 0; r < 16; ++r) {
        if (net.telemetryOf(r).packetsInjected > 0)
            ++routers_with_injections;
    }
    EXPECT_EQ(routers_with_injections, 16);
    // The MC node sees memory-class traffic.
    EXPECT_GT(net.telemetryOf(16).packetsInjected, 0u);
}

TEST_F(SystemTest, MemoryNodeServesBankMisses)
{
    PearlConfig cfg;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);
    EXPECT_GT(system.memory().stats().reads, 0u);
}

TEST_F(SystemTest, ScalesDownToEightClusters)
{
    // Section III-A2 discusses scaling the design; the model is
    // parameterized in the cluster count through TopologySpec.  An
    // 8-cluster chip must run end to end.
    TopologySpec topo;
    topo.clusters = 8;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(topo.pearlConfig(), power, DbaConfig{}, &policy);
    EXPECT_EQ(net.numNodes(), 9);

    HeteroSystem system(net, pair_, makeSystemConfig(topo),
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);
    EXPECT_GT(net.stats().deliveredPackets(), 50u);
    for (int r = 0; r < 8; ++r)
        EXPECT_GT(net.telemetryOf(r).packetsInjected, 0u);
}

TEST_F(SystemTest, ScalesDownToFourClusters)
{
    TopologySpec topo;
    topo.clusters = 4;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(topo.pearlConfig(), power, DbaConfig{}, &policy);

    HeteroSystem system(net, pair_, makeSystemConfig(topo),
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);
    EXPECT_GT(net.stats().deliveredPackets(), 20u);
}

TEST_F(SystemTest, ScalesUpToThirtyTwoClustersGrouped)
{
    // Above 16 clusters the TopologySpec splits the fabric into
    // waveguide groups; the full system (wide directory sharer masks,
    // decoupled L3 banking, express inter-group slots) must run end to
    // end and deliver traffic from every router.
    TopologySpec topo;
    topo.clusters = 32;
    const PearlConfig cfg = topo.pearlConfig();
    EXPECT_TRUE(cfg.grouped());
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    EXPECT_EQ(net.numNodes(), 33);

    HeteroSystem system(net, pair_, makeSystemConfig(topo),
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(5000);
    EXPECT_GT(net.stats().deliveredPackets(), 100u);
    EXPECT_GT(net.expressAcquired(), 0u);
    for (int r = 0; r < 32; ++r)
        EXPECT_GT(net.telemetryOf(r).packetsInjected, 0u);
}

TEST_F(SystemTest, LatencyPercentilesAvailable)
{
    PearlConfig cfg;
    photonic::PowerModel power;
    StaticPolicy policy(photonic::WlState::WL64);
    PearlNetwork net(cfg, power, DbaConfig{}, &policy);
    HeteroSystem system(net, pair_, SystemConfig{},
                        [&net](int n) { return &net.telemetryOf(n); });
    system.run(6000);
    const auto &st = net.stats();
    EXPECT_GT(st.latencyQuantile(0.5), 0.0);
    EXPECT_GE(st.latencyQuantile(0.99), st.latencyQuantile(0.5));
    EXPECT_GE(st.latencyQuantile(0.5), st.latencyQuantile(0.05));
}

} // namespace
} // namespace core
} // namespace pearl
