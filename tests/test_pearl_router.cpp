/**
 * @file
 * Tests of the PEARL router microarchitecture: serialization timing,
 * DBA-driven splits, reservation overhead, laser blackout, ejection and
 * telemetry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "core/router.hpp"
#include "photonic/power_model.hpp"

namespace pearl {
namespace core {
namespace {

using photonic::PowerModel;
using photonic::WlState;
using sim::CoreType;
using sim::Cycle;
using sim::MsgClass;
using sim::Packet;

Packet
makePacket(MsgClass cls, int size_bits, int dst = 5)
{
    static std::uint64_t seq = 0;
    Packet p;
    p.id = ++seq;
    p.msgClass = cls;
    p.sizeBits = size_bits;
    p.src = 0;
    p.dst = dst;
    return p;
}

class PearlRouterTest : public ::testing::Test
{
  protected:
    PearlRouterTest() : power_()
    {
        cfg_.reservationCycles = 2;
    }

    void
    makeRouter(WlState initial = WlState::WL64)
    {
        cfg_.initialState = initial;
        router_ = std::make_unique<PearlRouter>(0, cfg_, power_,
                                                DbaConfig{});
    }

    /** Run transmit cycles until `n` packets completed or limit hit. */
    int
    cyclesToTransmit(std::size_t n, int limit = 1000)
    {
        std::vector<Packet> done;
        int cycles = 0;
        while (done.size() < n && cycles < limit) {
            router_->transmitCycle(now_++, done);
            ++cycles;
        }
        EXPECT_EQ(done.size(), n);
        return cycles;
    }

    PowerModel power_;
    PearlConfig cfg_;
    std::unique_ptr<PearlRouter> router_;
    Cycle now_ = 0;
};

TEST_F(PearlRouterTest, InjectRespectsCapacity)
{
    makeRouter();
    // CPU buffer: 64 slots of 1-flit requests.
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(router_->inject(
            makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits), 0));
    }
    EXPECT_FALSE(router_->canAccept(
        makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits)));
    // GPU class has its own pool.
    EXPECT_TRUE(router_->canAccept(
        makePacket(MsgClass::ReqGpuL2Down, sim::kRequestBits)));

    // A refused injection or re-injection leaves buffers and telemetry
    // as they were.
    const Packet req = makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits);
    const sim::RouterTelemetry before = router_->telemetry();
    EXPECT_FALSE(router_->inject(req, 1));
    EXPECT_FALSE(router_->reinject(req, 1));
    EXPECT_EQ(router_->telemetry().packetsInjected, before.packetsInjected);
    EXPECT_EQ(router_->telemetry().incomingFromCores,
              before.incomingFromCores);
    EXPECT_EQ(router_->telemetry().retransmitsQueued,
              before.retransmitsQueued);
    EXPECT_EQ(router_->injectBuffers().of(CoreType::CPU).packetCount(), 64u);
    // An accepted re-injection is stamped with its cycle.
    EXPECT_TRUE(router_->reinject(
        makePacket(MsgClass::ReqGpuL2Down, sim::kRequestBits), 7));
    EXPECT_EQ(router_->injectBuffers().of(CoreType::GPU).front().cycleInjected,
              7u);
    EXPECT_EQ(router_->telemetry().retransmitsQueued,
              before.retransmitsQueued + 1);
}

TEST(RoundNonNegative, MatchesLroundAtHalfwaysAndBeyond2To52)
{
    std::vector<double> xs = {0.0, 0.49999999999999994, 0.5,
                              std::nextafter(0.5, 1.0), 5e-324,
                              std::nextafter(1.0, 0.0)};
    for (int i = 0; i <= 4096; ++i)
        xs.push_back(i + 0.5); // 0.5, 1.5, 2.5, ...
    for (int e = 50; e <= 62; ++e) {
        const double p = std::ldexp(1.0, e);
        for (double x : {p - 1.0, p - 0.5, p, p + 0.5, p + 1.0, p + 2.0})
            xs.push_back(x);
    }
    for (double x : xs)
        EXPECT_EQ(roundNonNegative(x), std::lround(x)) << x;
}

TEST(RoundNonNegative, MatchesLroundOnEveryCreditShare)
{
    // Every share the ladder and the proportional modes hand out, over a
    // grid of occupancies that covers every k/64 of the 64-slot buffers.
    std::set<double> shares;
    std::vector<DbaConfig> modes;
    modes.push_back(DbaConfig{});
    for (double step : {0.0625, 0.125, 0.25}) {
        DbaConfig c;
        c.mode = DbaConfig::Mode::Proportional;
        c.stepFraction = step;
        modes.push_back(c);
    }
    for (const DbaConfig &c : modes) {
        const DynamicBandwidthAllocator dba(c);
        for (int i = 0; i <= 64; ++i) {
            for (int j = 0; j <= 64; ++j) {
                const Allocation a = dba.allocate(i / 64.0, j / 64.0);
                shares.insert(a.cpuShare);
                shares.insert(a.gpuShare);
            }
        }
    }
    EXPECT_GE(shares.size(), 17u); // every 1/16 step, 0 and 1 included
    for (double share : shares) {
        for (WlState s : photonic::kWlStates) {
            for (int waveguides : {1, 4}) {
                const double x =
                    share * static_cast<double>(
                                photonic::bitsPerCycle(s) * waveguides);
                EXPECT_EQ(roundNonNegative(x), std::lround(x))
                    << share << " x " << photonic::toString(s);
            }
        }
    }
}

TEST(RoundNonNegative, MatchesLroundOnSeededRandomDoubles)
{
    Rng rng(0x5EED);
    int mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
        const double x = rng.uniform() * 1e6;
        if (roundNonNegative(x) != std::lround(x) && ++mismatches <= 5)
            ADD_FAILURE() << "roundNonNegative(" << x << ")";
    }
    EXPECT_EQ(mismatches, 0);
}

TEST_F(PearlRouterTest, SingleRequestTiming)
{
    // 1 flit at 64 WL: 2 reservation cycles + 2 serialization cycles.
    makeRouter(WlState::WL64);
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    EXPECT_EQ(cyclesToTransmit(1), 4);
}

TEST_F(PearlRouterTest, ResponseTimingAt64Wl)
{
    // 5 flits = 640 bits at 64 b/cyc: 10 cycles + 2 reservation.
    makeRouter(WlState::WL64);
    router_->inject(
        makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits), 0);
    EXPECT_EQ(cyclesToTransmit(1), 12);
}

TEST_F(PearlRouterTest, LowStateIsSlower)
{
    // The same response at 8 WL: 640/8 = 80 cycles + reservation.
    makeRouter(WlState::WL8);
    router_->inject(
        makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits), 0);
    EXPECT_EQ(cyclesToTransmit(1), 82);
}

TEST_F(PearlRouterTest, BackToBackHidesReservation)
{
    makeRouter(WlState::WL64);
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    // First: 2 res + 2 data.  Second: reservation overlapped, 2 data.
    EXPECT_EQ(cyclesToTransmit(2), 6);
}

TEST_F(PearlRouterTest, DbaGivesFullBandwidthToSoleClass)
{
    // Only CPU traffic: Algorithm 1 case (a) gives it 100%, so two
    // single-flit packets need 2 cycles each after the reservation.
    makeRouter(WlState::WL64);
    for (int i = 0; i < 4; ++i) {
        router_->inject(
            makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits), 0);
    }
    EXPECT_EQ(cyclesToTransmit(4), 2 + 4 * 2);
}

TEST_F(PearlRouterTest, ClassesTransmitSimultaneously)
{
    // CPU and GPU packets proceed in parallel on their shares — the
    // paper's goal (iv).
    makeRouter(WlState::WL64);
    router_->inject(
        makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits), 0);
    router_->inject(
        makePacket(MsgClass::RespGpuL2Down, sim::kResponseBits), 0);
    std::vector<Packet> done;
    int cycles = 0;
    while (done.size() < 2 && cycles < 200) {
        router_->transmitCycle(now_++, done);
        ++cycles;
    }
    ASSERT_EQ(done.size(), 2u);
    // At a 50/50 split each class gets 32 b/cyc: 640/32 = 20 cycles
    // + 2 reservation; far less than a serialised 2 x 12.
    EXPECT_LE(cycles, 24);
}

TEST_F(PearlRouterTest, LaserBlackoutStopsTransmission)
{
    makeRouter(WlState::WL16);
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    router_->laser().requestState(WlState::WL64, 0); // 4-cycle blackout
    std::vector<Packet> done;
    for (Cycle t = 0; t < 4; ++t) {
        EXPECT_EQ(router_->transmitCycle(t, done), 0);
    }
    EXPECT_TRUE(done.empty());
    now_ = 4;
    EXPECT_EQ(cyclesToTransmit(1), 4); // 2 res + 2 data once stable
}

TEST_F(PearlRouterTest, TelemetryLabelCountsInjections)
{
    makeRouter();
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    router_->inject(
        makePacket(MsgClass::RespGpuL2Down, sim::kResponseBits), 0);
    const auto &t = router_->telemetry();
    EXPECT_EQ(t.packetsInjected, 2u);
    EXPECT_EQ(t.incomingFromCores, 2u);
    EXPECT_EQ(t.requestsSent, 1u);
    EXPECT_EQ(t.responsesSent, 1u);
    EXPECT_EQ(t.classCounts[static_cast<int>(MsgClass::ReqCpuL2Down)], 1u);
}

TEST_F(PearlRouterTest, RxEnqueueAndEject)
{
    makeRouter();
    Packet p = makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits);
    p.dst = 0;
    ASSERT_TRUE(router_->rxEnqueue(p));
    EXPECT_EQ(router_->telemetry().incomingFromRouters, 1u);
    EXPECT_EQ(router_->telemetry().responsesReceived, 1u);

    std::vector<Packet> delivered;
    // 5 flits at 4 flits/cycle: two eject cycles.
    router_->ejectCycle(10, delivered);
    EXPECT_TRUE(delivered.empty());
    router_->ejectCycle(11, delivered);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0].cycleDelivered, 11u);
    EXPECT_EQ(router_->telemetry().packetsToCore, 1u);
}

TEST_F(PearlRouterTest, RxBackpressureWhenFull)
{
    cfg_.rxSlotsPerClass = 5;
    makeRouter();
    Packet p = makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits);
    p.dst = 0;
    EXPECT_TRUE(router_->rxEnqueue(p));
    EXPECT_FALSE(router_->rxEnqueue(p)); // full: 5 of 5 slots used
}

TEST_F(PearlRouterTest, OccupancyAccumulation)
{
    makeRouter();
    router_->inject(
        makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits), 0);
    router_->accumulateOccupancy();
    router_->accumulateOccupancy();
    const auto &t = router_->telemetry();
    EXPECT_NEAR(t.cpuCoreBufOccupancy, 2.0 * 5.0 / 64.0, 1e-12);
    EXPECT_NEAR(router_->betaTotalMean(), 5.0 / 64.0, 1e-12);
}

TEST_F(PearlRouterTest, WindowResetClearsTelemetry)
{
    makeRouter();
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    router_->accumulateOccupancy();
    router_->resetWindow(WlState::WL16);
    const auto &t = router_->telemetry();
    EXPECT_EQ(t.packetsInjected, 0u);
    EXPECT_EQ(t.wavelengths, 16);
    EXPECT_DOUBLE_EQ(router_->betaTotalMean(), 0.0);
}

TEST_F(PearlRouterTest, WaveguideGroupMultipliesCapacity)
{
    cfg_.reservationCycles = 0;
    cfg_.initialState = WlState::WL64;
    PearlRouter wide(16, cfg_, power_, DbaConfig{}, /*waveguides=*/4);
    Packet p = makePacket(MsgClass::RespCpuL2Down, sim::kResponseBits);
    ASSERT_TRUE(wide.inject(p, 0));
    std::vector<Packet> done;
    int cycles = 0;
    Cycle t = 0;
    while (done.empty() && cycles < 100) {
        wide.transmitCycle(t++, done);
        ++cycles;
    }
    // 640 bits at 4 x 64 = 256 b/cyc -> 3 cycles.
    EXPECT_EQ(cycles, 3);
}

TEST_F(PearlRouterTest, FcfsModeServesArrivalOrder)
{
    // In FCFS mode the older head gets the whole link; a GPU packet that
    // arrived first monopolises the channel over a later CPU packet.
    cfg_.initialState = photonic::WlState::WL64;
    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;
    PearlRouter router(0, cfg_, power_, fcfs);
    Packet gpu = makePacket(MsgClass::RespGpuL2Down, sim::kResponseBits);
    Packet cpu = makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits);
    router.inject(gpu, 0);
    router.inject(cpu, 1); // later arrival
    std::vector<Packet> done;
    Cycle t = 0;
    while (done.empty() && t < 100)
        router.transmitCycle(t++, done);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].coreType(), CoreType::GPU);
    // The CPU packet completes strictly after the GPU packet.
    while (done.size() < 2 && t < 200)
        router.transmitCycle(t++, done);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1].coreType(), CoreType::CPU);
}

TEST_F(PearlRouterTest, IdleReflectsBuffers)
{
    makeRouter();
    EXPECT_TRUE(router_->idle());
    router_->inject(makePacket(MsgClass::ReqCpuL2Down, sim::kRequestBits),
                    0);
    EXPECT_FALSE(router_->idle());
    cyclesToTransmit(1);
    EXPECT_TRUE(router_->idle());
}

} // namespace
} // namespace core
} // namespace pearl
