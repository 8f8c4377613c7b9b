/**
 * @file
 * Tests for the photonic substrate: wavelength states, loss budget,
 * reservation channel sizing, laser bank and power model.
 */

#include <gtest/gtest.h>

#include "photonic/devices.hpp"
#include "photonic/laser.hpp"
#include "photonic/loss_budget.hpp"
#include "photonic/power_model.hpp"
#include "photonic/reservation.hpp"
#include "photonic/wl_state.hpp"

namespace pearl {
namespace photonic {
namespace {

TEST(WlState, Wavelengths)
{
    EXPECT_EQ(wavelengths(WlState::WL8), 8);
    EXPECT_EQ(wavelengths(WlState::WL16), 16);
    EXPECT_EQ(wavelengths(WlState::WL32), 32);
    EXPECT_EQ(wavelengths(WlState::WL48), 48);
    EXPECT_EQ(wavelengths(WlState::WL64), 64);
}

TEST(WlState, SerializationLatencyTable)
{
    // Section III-C: 64 WL -> 2 cycles per 128-bit flit, 48/32 -> 4,
    // 16 -> 8; the 8WL low state extrapolates to 16.
    EXPECT_EQ(cyclesPerFlit(WlState::WL64), 2);
    EXPECT_EQ(cyclesPerFlit(WlState::WL48), 4);
    EXPECT_EQ(cyclesPerFlit(WlState::WL32), 4);
    EXPECT_EQ(cyclesPerFlit(WlState::WL16), 8);
    EXPECT_EQ(cyclesPerFlit(WlState::WL8), 16);
}

TEST(WlState, BandwidthMonotoneInState)
{
    for (int i = 1; i < kNumWlStates; ++i) {
        EXPECT_GT(bitsPerCycle(stateFromIndex(i)),
                  bitsPerCycle(stateFromIndex(i - 1)));
    }
}

TEST(WlState, IndexRoundTrip)
{
    for (int i = 0; i < kNumWlStates; ++i)
        EXPECT_EQ(indexOf(stateFromIndex(i)), i);
}

TEST(WlState, LitBanks)
{
    EXPECT_DOUBLE_EQ(litBanks(WlState::WL64), 4.0);
    EXPECT_DOUBLE_EQ(litBanks(WlState::WL8), 0.5);
}

TEST(LossBudget, PathLossIsPositiveAndBounded)
{
    LossBudget budget{DeviceConstants{}, ChipGeometry{}};
    const double loss = budget.worstCasePathLossDb();
    EXPECT_GT(loss, 3.0);  // at least the fixed component losses
    EXPECT_LT(loss, 30.0); // sane for an on-chip link
}

TEST(LossBudget, ReservationBroadcastCostsMore)
{
    // The 1:16 split makes the reservation path lossier than the
    // single-reader data path.
    LossBudget budget{DeviceConstants{}, ChipGeometry{}};
    EXPECT_GT(budget.reservationPathLossDb(),
              budget.worstCasePathLossDb());
}

TEST(LossBudget, RequiredPowerScalesWithLoss)
{
    DeviceConstants lossy;
    lossy.waveguideDbPerCm = 2.0;
    LossBudget base{DeviceConstants{}, ChipGeometry{}};
    LossBudget worse{lossy, ChipGeometry{}};
    EXPECT_GT(worse.requiredLaserOpticalW(), base.requiredLaserOpticalW());
}

TEST(LossBudget, ElectricalPowerLinearInWavelengths)
{
    LossBudget budget{DeviceConstants{}, ChipGeometry{}};
    const double w16 = budget.electricalLaserW(WlState::WL16, 0.1);
    const double w64 = budget.electricalLaserW(WlState::WL64, 0.1);
    EXPECT_NEAR(w64 / w16, 4.0, 1e-9);
}

TEST(LossBudget, CalibratedEfficiencyConsistent)
{
    // Deriving laser power with the calibrated efficiency reproduces the
    // paper's 1.16 W full-state figure.
    LossBudget budget{DeviceConstants{}, ChipGeometry{}};
    const double eta = budget.calibratedEfficiency(1.16);
    EXPECT_GT(eta, 0.0);
    EXPECT_LT(eta, 1.0);
    EXPECT_NEAR(budget.electricalLaserW(WlState::WL64, eta), 1.16, 1e-9);
}

TEST(Reservation, PacketSizeFormula)
{
    // ResPacket = ceil(log2(2 * 16 * 2 * 2 * 5 * 1)) = ceil(log2(640)).
    ReservationChannel ch;
    EXPECT_EQ(ch.packetBits(), 10);
}

TEST(Reservation, WavelengthsCoverOneCyclBroadcast)
{
    ReservationChannel ch;
    const int wl = ch.wavelengthsNeeded();
    EXPECT_GE(wl, 1);
    // With that many wavelengths the broadcast fits in 1 cycle + 1 tune.
    EXPECT_EQ(ch.latencyCycles(wl), 2);
}

TEST(Reservation, MoreRoutersNeedBiggerPackets)
{
    ReservationConfig big;
    big.numRouters = 64;
    EXPECT_GT(ReservationChannel(big).packetBits(),
              ReservationChannel().packetBits());
}

TEST(PowerModel, PaperCalibratedValues)
{
    PowerModel model;
    EXPECT_DOUBLE_EQ(model.laserPowerW(WlState::WL64), 1.16);
    EXPECT_DOUBLE_EQ(model.laserPowerW(WlState::WL48), 0.871);
    EXPECT_DOUBLE_EQ(model.laserPowerW(WlState::WL32), 0.581);
    EXPECT_DOUBLE_EQ(model.laserPowerW(WlState::WL16), 0.29);
    EXPECT_DOUBLE_EQ(model.laserPowerW(WlState::WL8), 0.145);
}

TEST(PowerModel, NearlyLinearInWavelengths)
{
    // "The laser power increases almost linearly with the number of
    // wavelengths" (Section III-C).
    PowerModel model;
    for (int i = 0; i < kNumWlStates; ++i) {
        const WlState s = stateFromIndex(i);
        const double per_wl =
            model.laserPowerW(s) / wavelengths(s);
        EXPECT_NEAR(per_wl, 1.16 / 64.0, 0.15 * 1.16 / 64.0);
    }
}

TEST(PowerModel, ScaledDividesUniformly)
{
    PowerModel model;
    PowerModel per_router = model.scaled(1.0 / 24.0);
    EXPECT_NEAR(per_router.laserPowerW(WlState::WL64), 1.16 / 24.0, 1e-12);
}

TEST(PowerModel, TrimmingScalesWithLitBanks)
{
    PowerModel model;
    const double full = model.trimmingPowerW(WlState::WL64, 64, 64);
    const double quarter = model.trimmingPowerW(WlState::WL16, 64, 64);
    EXPECT_GT(full, quarter);
    // The receive-side heaters are state independent.
    const double rx_only = model.trimmingPowerW(WlState::WL16, 0, 64);
    EXPECT_DOUBLE_EQ(rx_only, 64 * DeviceConstants{}.ringHeatingW);
}

TEST(PowerModel, DynamicEnergyPerBitPositiveAndSmall)
{
    PowerModel model;
    const double e = model.dynamicEnergyPerBitJ();
    EXPECT_GT(e, 0.0);
    EXPECT_LT(e, 5e-12); // well under 5 pJ/bit
}

TEST(PowerModel, FromLossBudget)
{
    LossBudget budget{DeviceConstants{}, ChipGeometry{}};
    const double eta = budget.calibratedEfficiency(1.16);
    PowerModel derived = PowerModel::fromLossBudget(budget, eta);
    EXPECT_NEAR(derived.laserPowerW(WlState::WL64), 1.16, 1e-9);
    EXPECT_NEAR(derived.laserPowerW(WlState::WL32), 0.58, 0.01);
}

// ---- LaserBank -------------------------------------------------------

TEST(LaserBank, StartsStable)
{
    PowerModel model;
    LaserBank bank(model, 4, WlState::WL64);
    EXPECT_TRUE(bank.stable(0));
    EXPECT_EQ(bank.state(), WlState::WL64);
}

TEST(LaserBank, DownSwitchIsImmediate)
{
    PowerModel model;
    LaserBank bank(model, 4, WlState::WL64);
    bank.requestState(WlState::WL16, 100);
    EXPECT_EQ(bank.state(), WlState::WL16);
    EXPECT_TRUE(bank.stable(100));
    EXPECT_EQ(bank.downSwitches(), 1u);
}

TEST(LaserBank, UpSwitchBlacksOutForTurnOn)
{
    PowerModel model;
    LaserBank bank(model, 4, WlState::WL16);
    bank.requestState(WlState::WL64, 100);
    EXPECT_EQ(bank.state(), WlState::WL64);
    EXPECT_FALSE(bank.stable(100));
    EXPECT_FALSE(bank.stable(103));
    EXPECT_TRUE(bank.stable(104));
    EXPECT_EQ(bank.upSwitches(), 1u);
}

TEST(LaserBank, SameStateRequestIsNoOp)
{
    PowerModel model;
    LaserBank bank(model, 4, WlState::WL32);
    bank.requestState(WlState::WL32, 50);
    EXPECT_TRUE(bank.stable(50));
    EXPECT_EQ(bank.upSwitches(), 0u);
    EXPECT_EQ(bank.downSwitches(), 0u);
}

TEST(LaserBank, EnergyIntegration)
{
    PowerModel model;
    LaserBank bank(model, 4, WlState::WL64);
    const double dt = 0.5e-9;
    for (int i = 0; i < 1000; ++i)
        bank.tick(dt);
    EXPECT_NEAR(bank.energyJ(), 1.16 * 1000 * dt, 1e-15);
    EXPECT_NEAR(bank.averagePowerW(dt), 1.16, 1e-9);
}

TEST(LaserBank, ResidencyTracksStates)
{
    PowerModel model;
    LaserBank bank(model, 0, WlState::WL64);
    for (WlState s : kWlStates)
        EXPECT_EQ(bank.residency(s), 0.0) << "before any tick";
    const double dt = 0.5e-9;
    for (int i = 0; i < 750; ++i)
        bank.tick(dt);
    bank.requestState(WlState::WL8, 750);
    for (int i = 0; i < 250; ++i)
        bank.tick(dt);
    EXPECT_NEAR(bank.residency(WlState::WL64), 0.75, 1e-9);
    EXPECT_NEAR(bank.residency(WlState::WL8), 0.25, 1e-9);
    EXPECT_DOUBLE_EQ(bank.residency(WlState::WL32), 0.0);
}

TEST(LaserBank, MixedStateEnergy)
{
    PowerModel model;
    LaserBank bank(model, 0, WlState::WL64);
    const double dt = 1.0;
    bank.tick(dt); // 1.16 J
    bank.requestState(WlState::WL8, 1);
    bank.tick(dt); // + 0.145 J
    EXPECT_NEAR(bank.energyJ(), 1.305, 1e-12);
}

TEST(LaserBank, ResetStats)
{
    PowerModel model;
    LaserBank bank(model, 4, WlState::WL64);
    bank.tick(1.0);
    bank.requestState(WlState::WL8, 1);
    bank.resetStats();
    EXPECT_DOUBLE_EQ(bank.energyJ(), 0.0);
    EXPECT_EQ(bank.cycles(), 0u);
    EXPECT_EQ(bank.downSwitches(), 0u);
}

} // namespace
} // namespace photonic
} // namespace pearl
