/**
 * @file
 * Parameterized property sweeps across the simulator's state spaces:
 * every wavelength state, every laser-state transition pair, mesh
 * geometries, buffer operation sequences, and cross-network drop-in
 * compatibility of the sim::Network interface.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/mwsr_network.hpp"
#include "core/network.hpp"
#include "core/router.hpp"
#include "core/system.hpp"
#include "electrical/cmesh.hpp"
#include "photonic/laser.hpp"
#include "photonic/power_model.hpp"
#include "photonic/reservation.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace {

// ---- Per-wavelength-state router properties ---------------------------

class WlStateSweep
    : public ::testing::TestWithParam<photonic::WlState>
{};

TEST_P(WlStateSweep, RouterDeliversAtEveryState)
{
    const auto state = GetParam();
    core::PearlConfig cfg;
    cfg.initialState = state;
    photonic::PowerModel power;
    core::PearlRouter router(0, cfg, power, core::DbaConfig{});

    sim::Packet pkt;
    pkt.msgClass = sim::MsgClass::RespCpuL2Down;
    pkt.sizeBits = sim::kResponseBits;
    ASSERT_TRUE(router.inject(pkt, 0));

    std::vector<sim::Packet> done;
    sim::Cycle t = 0;
    while (done.empty() && t < 1000)
        router.transmitCycle(t++, done);
    ASSERT_EQ(done.size(), 1u);

    // Serialisation time = reservation + ceil(bits / bandwidth).
    const int expected =
        cfg.reservationCycles +
        (sim::kResponseBits + photonic::bitsPerCycle(state) - 1) /
            photonic::bitsPerCycle(state);
    EXPECT_EQ(static_cast<int>(t), expected);
}

TEST_P(WlStateSweep, LaserPowerMatchesModel)
{
    const auto state = GetParam();
    photonic::PowerModel model;
    photonic::LaserBank bank(model, 4, state);
    bank.tick(1.0);
    EXPECT_DOUBLE_EQ(bank.energyJ(), model.laserPowerW(state));
}

TEST_P(WlStateSweep, TrimmingNeverExceedsFullState)
{
    const auto state = GetParam();
    photonic::PowerModel model;
    EXPECT_LE(model.trimmingPowerW(state, 64, 64),
              model.trimmingPowerW(photonic::WlState::WL64, 64, 64));
    EXPECT_GE(model.trimmingPowerW(state, 64, 64),
              model.trimmingPowerW(photonic::WlState::WL8, 64, 64));
}

INSTANTIATE_TEST_SUITE_P(
    AllStates, WlStateSweep,
    ::testing::Values(photonic::WlState::WL8, photonic::WlState::WL16,
                      photonic::WlState::WL32, photonic::WlState::WL48,
                      photonic::WlState::WL64),
    [](const ::testing::TestParamInfo<photonic::WlState> &info) {
        return photonic::toString(info.param);
    });

// ---- Laser transition matrix ---------------------------------------

class LaserTransitionSweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(LaserTransitionSweep, BlackoutExactlyOnUpSwitch)
{
    const auto [from, to] = GetParam();
    photonic::PowerModel model;
    photonic::LaserBank bank(model, 6, photonic::stateFromIndex(from));
    bank.requestState(photonic::stateFromIndex(to), 100);
    EXPECT_EQ(bank.state(), photonic::stateFromIndex(to));
    if (to > from) {
        EXPECT_FALSE(bank.stable(100));
        EXPECT_FALSE(bank.stable(105));
        EXPECT_TRUE(bank.stable(106));
        EXPECT_EQ(bank.upSwitches(), 1u);
    } else {
        EXPECT_TRUE(bank.stable(100));
        EXPECT_EQ(bank.upSwitches(), 0u);
    }
}

std::vector<std::pair<int, int>>
allTransitions()
{
    std::vector<std::pair<int, int>> pairs;
    for (int a = 0; a < photonic::kNumWlStates; ++a) {
        for (int b = 0; b < photonic::kNumWlStates; ++b)
            pairs.push_back({a, b});
    }
    return pairs;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, LaserTransitionSweep, ::testing::ValuesIn(allTransitions()),
    [](const ::testing::TestParamInfo<std::pair<int, int>> &info) {
        return std::string(photonic::toString(
                   photonic::stateFromIndex(info.param.first))) +
               "_to_" +
               photonic::toString(
                   photonic::stateFromIndex(info.param.second));
    });

// ---- CMESH geometry sweep ----------------------------------------------

class MeshGeometrySweep
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(MeshGeometrySweep, RandomTrafficDrainsOnAnyGeometry)
{
    const auto [x, y] = GetParam();
    electrical::CmeshConfig cfg;
    cfg.meshX = x;
    cfg.meshY = y;
    cfg.l3Router = (x * y) / 2;
    electrical::CmeshNetwork net(cfg);
    const int nodes = net.numNodes();

    Rng rng(41);
    int injected = 0;
    for (sim::Cycle t = 0; t < 600; ++t) {
        const int src = static_cast<int>(rng.below(nodes));
        int dst = static_cast<int>(rng.below(nodes));
        if (dst == src)
            dst = (dst + 1) % nodes;
        sim::Packet p;
        p.id = t + 1;
        p.msgClass = rng.chance(0.5) ? sim::MsgClass::RespGpuL2Down
                                     : sim::MsgClass::ReqCpuL2Down;
        p.op = rng.chance(0.5) ? sim::CoherenceOp::Data
                               : sim::CoherenceOp::Read;
        p.src = src;
        p.dst = dst;
        p.sizeBits = p.op == sim::CoherenceOp::Data
                         ? sim::kResponseBits
                         : sim::kRequestBits;
        injected += net.inject(p);
        net.step();
    }
    for (int i = 0; i < 20000 && !net.idle(); ++i)
        net.step();
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.stats().deliveredPackets(),
              static_cast<std::uint64_t>(injected));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MeshGeometrySweep,
    ::testing::Values(std::pair<int, int>{2, 2}, std::pair<int, int>{4, 2},
                      std::pair<int, int>{4, 4},
                      std::pair<int, int>{2, 8}),
    [](const ::testing::TestParamInfo<std::pair<int, int>> &info) {
        return std::to_string(info.param.first) + "x" +
               std::to_string(info.param.second);
    });

// ---- Buffer operation-sequence invariant -----------------------------

TEST(BufferProperty, OccupancyAlwaysSumOfQueuedFlits)
{
    Rng rng(77);
    sim::FlitBuffer buf(32);
    std::deque<int> shadow; // flit counts of queued packets
    for (int op = 0; op < 5000; ++op) {
        if (rng.chance(0.6)) {
            sim::Packet p;
            p.sizeBits = rng.chance(0.5) ? sim::kRequestBits
                                         : sim::kResponseBits;
            const int flits = p.numFlits();
            const bool could = buf.canAccept(flits);
            const bool did = buf.push(p);
            ASSERT_EQ(could, did);
            if (did)
                shadow.push_back(flits);
        } else if (!buf.empty()) {
            const sim::Packet p = buf.pop();
            ASSERT_EQ(p.numFlits(), shadow.front());
            shadow.pop_front();
        }
        int expected = 0;
        for (int f : shadow)
            expected += f;
        ASSERT_EQ(buf.occupiedSlots(), expected);
        ASSERT_EQ(buf.packetCount(), shadow.size());
        ASSERT_LE(buf.occupiedSlots(), buf.capacitySlots());
    }
}

// ---- Reservation-channel monotonicity --------------------------------

TEST(ReservationProperty, PacketBitsMonotoneInRouters)
{
    int prev = 0;
    for (int n : {4, 8, 16, 32, 64, 128}) {
        photonic::ReservationConfig cfg;
        cfg.numRouters = n;
        const int bits = photonic::ReservationChannel(cfg).packetBits();
        EXPECT_GE(bits, prev);
        prev = bits;
    }
}

// ---- Drop-in Network compatibility -----------------------------------

TEST(NetworkInterop, HeteroSystemRunsOnMwsr)
{
    // The full cache stack must run unchanged on the MWSR baseline —
    // the sim::Network abstraction is the seam.
    traffic::BenchmarkSuite suite;
    traffic::BenchmarkPair pair{suite.find("Rad"), suite.find("QRS")};
    photonic::PowerModel power;
    core::MwsrNetwork net(core::MwsrConfig{}, power);
    core::HeteroSystem system(net, pair, core::SystemConfig{});
    system.run(5000);
    EXPECT_GT(net.stats().deliveredPackets(), 50u);
}

TEST(NetworkInterop, ThermalModelDoesNotChangeTraffic)
{
    // Enabling the thermal model changes the energy accounting, never
    // the packet behaviour.
    traffic::BenchmarkSuite suite;
    traffic::BenchmarkPair pair{suite.find("Rad"), suite.find("QRS")};
    photonic::PowerModel power;

    auto run = [&](bool thermal) {
        core::PearlConfig cfg;
        cfg.useThermalModel = thermal;
        core::StaticPolicy policy(photonic::WlState::WL64);
        core::PearlNetwork net(cfg, power, core::DbaConfig{}, &policy);
        core::HeteroSystem system(
            net, pair, core::SystemConfig{},
            [&net](int n) { return &net.telemetryOf(n); });
        system.run(4000);
        return std::pair<std::uint64_t, double>(
            net.stats().deliveredFlits(), net.trimmingEnergyJ());
    };
    const auto flat = run(false);
    const auto thermal = run(true);
    EXPECT_EQ(flat.first, thermal.first);
    EXPECT_NE(flat.second, thermal.second);
}

} // namespace
} // namespace pearl
