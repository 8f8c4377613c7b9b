/**
 * @file
 * Tests of the wavelength-state policies (static, reactive, random).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/power_policy.hpp"

namespace pearl {
namespace core {
namespace {

using photonic::WlState;

WindowObservation
obsWithBeta(double beta)
{
    WindowObservation obs;
    obs.betaTotalMean = beta;
    obs.windowCycles = 500;
    return obs;
}

TEST(StaticPolicy, AlwaysReturnsItsState)
{
    StaticPolicy p(WlState::WL32);
    for (double beta : {0.0, 0.5, 2.0})
        EXPECT_EQ(p.nextState(obsWithBeta(beta)), WlState::WL32);
}

TEST(ReactivePolicy, ThresholdLadder)
{
    ReactiveThresholds t;
    t.upper = 0.5;
    t.midUpper = 0.25;
    t.midLower = 0.12;
    t.lower = 0.04;
    ReactivePolicy p(t);
    EXPECT_EQ(p.nextState(obsWithBeta(0.60)), WlState::WL64);
    EXPECT_EQ(p.nextState(obsWithBeta(0.30)), WlState::WL48);
    EXPECT_EQ(p.nextState(obsWithBeta(0.15)), WlState::WL32);
    EXPECT_EQ(p.nextState(obsWithBeta(0.05)), WlState::WL16);
    EXPECT_EQ(p.nextState(obsWithBeta(0.01)), WlState::WL8);
}

TEST(ReactivePolicy, BoundariesAreExclusive)
{
    ReactiveThresholds t;
    t.upper = 0.5;
    ReactivePolicy p(t);
    // "beta > threshold", so exactly-at-threshold picks the lower state.
    EXPECT_NE(p.nextState(obsWithBeta(0.5)), WlState::WL64);
    EXPECT_EQ(p.nextState(obsWithBeta(0.5001)), WlState::WL64);
}

TEST(ReactivePolicy, No8WlFloor)
{
    ReactiveThresholds t;
    t.enable8Wl = false;
    ReactivePolicy p(t);
    EXPECT_EQ(p.nextState(obsWithBeta(0.0)), WlState::WL16);
}

TEST(ReactivePolicy, MonotoneInBeta)
{
    ReactivePolicy p;
    int prev = -1;
    for (double beta = 0.0; beta <= 1.2; beta += 0.01) {
        const int idx = photonic::indexOf(p.nextState(obsWithBeta(beta)));
        EXPECT_GE(idx, prev);
        prev = std::max(prev, idx);
    }
}

TEST(RandomPolicy, ExcludesLowStateDuringTraining)
{
    RandomPolicy p(Rng(5), /*include8_wl=*/false);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(photonic::indexOf(p.nextState(obsWithBeta(0.0))));
    EXPECT_EQ(seen.count(photonic::indexOf(WlState::WL8)), 0u);
    EXPECT_EQ(seen.size(), 4u); // all four remaining states drawn
}

TEST(RandomPolicy, CoversAllStatesWhenAllowed)
{
    RandomPolicy p(Rng(6), /*include8_wl=*/true);
    std::set<int> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(photonic::indexOf(p.nextState(obsWithBeta(0.0))));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RandomPolicy, DeterministicPerSeed)
{
    RandomPolicy a(Rng(9)), b(Rng(9));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextState(obsWithBeta(0)), b.nextState(obsWithBeta(0)));
}

// The concurrent ML pass-1 collections start each pair's stream with
// skip(): it must land exactly where that many decisions would.
TEST(RandomPolicy, SkipMatchesDrawing)
{
    for (bool include8 : {false, true}) {
        for (std::uint64_t n : {0u, 1u, 2u, 17u, 1000u, 5083u}) {
            SCOPED_TRACE("n " + std::to_string(n) +
                         (include8 ? ", 8WL" : ""));
            RandomPolicy skipped(Rng(31), include8);
            RandomPolicy drawn(Rng(31), include8);
            skipped.skip(n);
            for (std::uint64_t i = 0; i < n; ++i)
                drawn.nextState(obsWithBeta(0.0));
            EXPECT_EQ(skipped.draws(), n);
            EXPECT_EQ(drawn.draws(), n);
            for (int i = 0; i < 8; ++i)
                EXPECT_EQ(skipped.nextState(obsWithBeta(0.0)),
                          drawn.nextState(obsWithBeta(0.0)));
            EXPECT_EQ(skipped.draws(), n + 8);
        }
    }
}

} // namespace
} // namespace core
} // namespace pearl
