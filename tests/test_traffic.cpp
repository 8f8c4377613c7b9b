/**
 * @file
 * Tests for the synthetic traffic substrate: profiles, the benchmark
 * suite splits, the demand generator and the global phase process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "traffic/generator.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace traffic {
namespace {

TEST(Profile, OnFraction)
{
    BenchmarkProfile p;
    p.pOnToOff = 0.01;
    p.pOffToOn = 0.03;
    EXPECT_NEAR(p.onFraction(), 0.75, 1e-12);
    p.pOnToOff = 0.0;
    p.pOffToOn = 0.0;
    EXPECT_DOUBLE_EQ(p.onFraction(), 1.0);
}

TEST(Profile, MeanAccessRate)
{
    BenchmarkProfile p;
    p.pOnToOff = 0.01;
    p.pOffToOn = 0.01; // 50% on
    p.accessRateOn = 0.2;
    p.accessRateOff = 0.0;
    EXPECT_NEAR(p.meanAccessRate(), 0.1, 1e-12);
}

TEST(Suite, TwelvePlusTwelveProfiles)
{
    BenchmarkSuite suite;
    EXPECT_EQ(suite.cpuBenchmarks().size(), 12u);
    EXPECT_EQ(suite.gpuBenchmarks().size(), 12u);
    for (const auto &p : suite.cpuBenchmarks())
        EXPECT_EQ(p.coreType, sim::CoreType::CPU);
    for (const auto &p : suite.gpuBenchmarks())
        EXPECT_EQ(p.coreType, sim::CoreType::GPU);
}

TEST(Suite, TableIVTestBenchmarks)
{
    // The test benchmarks are exactly the ones Table IV names.
    BenchmarkSuite suite;
    EXPECT_EQ(suite.find("FA").name, "Fluid Animate");
    EXPECT_EQ(suite.find("fmm").name, "Fast Multipole Method");
    EXPECT_EQ(suite.find("Rad").name, "Radiosity");
    EXPECT_EQ(suite.find("x264").name, "x264");
    EXPECT_EQ(suite.find("DCT").name, "Discrete Cosine Transforms");
    EXPECT_EQ(suite.find("Dwrt").name, "1-D Haar Wavelet Transform");
    EXPECT_EQ(suite.find("QRS").name, "Quasi Random Sequence");
    EXPECT_EQ(suite.find("Reduc").name, "Reduction");
}

TEST(Suite, SplitSizes)
{
    // 6x6 training, 2x2 validation, 4x4 test (Section IV-A).
    BenchmarkSuite suite;
    EXPECT_EQ(suite.trainingPairs().size(), 36u);
    EXPECT_EQ(suite.validationPairs().size(), 4u);
    EXPECT_EQ(suite.testPairs().size(), 16u);
}

TEST(Suite, SplitsAreDisjoint)
{
    BenchmarkSuite suite;
    std::set<std::string> train, val, test;
    for (const auto &p : suite.trainingPairs()) {
        train.insert(p.cpu.abbrev);
        train.insert(p.gpu.abbrev);
    }
    for (const auto &p : suite.validationPairs()) {
        val.insert(p.cpu.abbrev);
        val.insert(p.gpu.abbrev);
    }
    for (const auto &p : suite.testPairs()) {
        test.insert(p.cpu.abbrev);
        test.insert(p.gpu.abbrev);
    }
    for (const auto &b : test) {
        EXPECT_EQ(train.count(b), 0u) << b;
        EXPECT_EQ(val.count(b), 0u) << b;
    }
    for (const auto &b : val)
        EXPECT_EQ(train.count(b), 0u) << b;
}

TEST(Suite, PairLabels)
{
    BenchmarkSuite suite;
    BenchmarkPair pair{suite.find("FA"), suite.find("DCT")};
    EXPECT_EQ(pair.label(), "FA+DCT");
}

TEST(Generator, DeterministicWithSeed)
{
    BenchmarkSuite suite;
    const auto prof = suite.find("FA");
    CoreDemandGenerator a(prof, 5, Rng(123));
    CoreDemandGenerator b(prof, 5, Rng(123));
    for (int i = 0; i < 2000; ++i) {
        auto ra = a.tick();
        auto rb = b.tick();
        ASSERT_EQ(ra.has_value(), rb.has_value());
        if (ra) {
            EXPECT_EQ(ra->lineAddr, rb->lineAddr);
            EXPECT_EQ(ra->write, rb->write);
            EXPECT_EQ(ra->instr, rb->instr);
        }
    }
}

TEST(Generator, RateMatchesProfile)
{
    BenchmarkProfile p;
    p.coreType = sim::CoreType::CPU;
    p.accessRateOn = 0.25;
    p.accessRateOff = 0.25; // phase-independent
    p.instrFraction = 0.0;
    CoreDemandGenerator gen(p, 0, Rng(9));
    int issued = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        issued += gen.tick().has_value();
    EXPECT_NEAR(static_cast<double>(issued) / n, 0.25, 0.02);
}

TEST(Generator, AddressesStayInRegions)
{
    BenchmarkSuite suite;
    auto prof = suite.find("DCT");
    prof.accessRateOn = 1.0;
    prof.accessRateOff = 1.0;
    CoreDemandGenerator gen(prof, 33, Rng(4));
    const std::uint64_t priv = AddressSpace::privateBase(33);
    const std::uint64_t shared = AddressSpace::sharedBase(sim::CoreType::GPU);
    for (int i = 0; i < 5000; ++i) {
        auto acc = gen.tick();
        ASSERT_TRUE(acc.has_value());
        const bool in_priv =
            acc->lineAddr >= priv &&
            acc->lineAddr < priv + prof.workingSetLines + (1ULL << 29);
        const bool in_shared =
            acc->lineAddr >= shared &&
            acc->lineAddr < shared + AddressSpace::kSharedLines;
        EXPECT_TRUE(in_priv || in_shared) << acc->lineAddr;
    }
}

TEST(Generator, StreamingReusesLines)
{
    // Eight consecutive stream accesses land in the same cache line.
    BenchmarkProfile p;
    p.coreType = sim::CoreType::CPU;
    p.accessRateOn = 1.0;
    p.accessRateOff = 1.0;
    p.streamFraction = 1.0;
    p.instrFraction = 0.0;
    p.writeFraction = 0.0;
    p.sharedFraction = 0.0;
    CoreDemandGenerator gen(p, 0, Rng(6));
    std::set<std::uint64_t> lines;
    const int n = 800;
    for (int i = 0; i < n; ++i)
        lines.insert(gen.tick()->lineAddr);
    // ~n/8 distinct lines.
    EXPECT_NEAR(static_cast<double>(lines.size()), n / 8.0, 4.0);
}

TEST(Generator, InstrFractionRespected)
{
    BenchmarkProfile p;
    p.coreType = sim::CoreType::CPU;
    p.accessRateOn = 1.0;
    p.accessRateOff = 1.0;
    p.instrFraction = 0.4;
    CoreDemandGenerator gen(p, 0, Rng(10));
    int instr = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        instr += gen.tick()->instr;
    EXPECT_NEAR(static_cast<double>(instr) / n, 0.4, 0.02);
}

TEST(Generator, InstructionFetchesNeverWrite)
{
    BenchmarkProfile p;
    p.coreType = sim::CoreType::CPU;
    p.accessRateOn = 1.0;
    p.accessRateOff = 1.0;
    p.instrFraction = 0.5;
    p.writeFraction = 1.0;
    CoreDemandGenerator gen(p, 0, Rng(12));
    for (int i = 0; i < 5000; ++i) {
        auto acc = gen.tick();
        if (acc->instr) {
            EXPECT_FALSE(acc->write);
        }
    }
}

TEST(GlobalPhase, LongRunOnFraction)
{
    GlobalPhase phase(0.001, 0.003, Rng(77)); // expect 75% on
    int on = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        phase.tick();
        on += phase.on();
    }
    EXPECT_NEAR(static_cast<double>(on) / n, 0.75, 0.05);
}

TEST(GlobalPhase, SharedPhaseSynchronisesCores)
{
    BenchmarkProfile p;
    p.coreType = sim::CoreType::GPU;
    p.accessRateOn = 1.0;
    p.accessRateOff = 0.0;
    GlobalPhase phase(0.01, 0.01, Rng(3));
    CoreDemandGenerator a(p, 0, Rng(1), &phase);
    CoreDemandGenerator b(p, 1, Rng(2), &phase);
    for (int i = 0; i < 5000; ++i) {
        phase.tick();
        const bool ia = a.tick().has_value();
        const bool ib = b.tick().has_value();
        // With rate 1/0, issuance equals the shared phase for both.
        EXPECT_EQ(ia, phase.on());
        EXPECT_EQ(ib, phase.on());
    }
}

// Look-ahead: GlobalPhase::at() and CoreDemandGenerator::scan() against
// the per-cycle reference path (tick(), on(), draw()) --------------------

/** The states a ticked phase reads at cycles 0 .. cycles - 1. */
std::vector<bool>
tickedStates(double p_on_to_off, double p_off_to_on, std::uint64_t seed,
             std::uint64_t cycles)
{
    GlobalPhase ticked(p_on_to_off, p_off_to_on, Rng(seed));
    std::vector<bool> states;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        ticked.tick();
        states.push_back(ticked.on());
    }
    return states;
}

/** Reads a looked-ahead phase at every cycle in order and checks each
 *  state, and that each run ends no later than the true next flip. */
void
expectLookAheadMatches(double p_on_to_off, double p_off_to_on,
                       std::uint64_t seed, std::uint64_t cycles,
                       std::uint64_t min_flips)
{
    const std::vector<bool> states =
        tickedStates(p_on_to_off, p_off_to_on, seed, cycles);
    std::uint64_t flips = 0;
    for (std::uint64_t c = 1; c < cycles; ++c)
        flips += states[c] != states[c - 1];
    EXPECT_GE(flips, min_flips);

    // next_flip[c]: the first cycle after c with another state.
    std::vector<std::uint64_t> next_flip(cycles, cycles);
    for (std::uint64_t c = cycles - 1; c-- > 0;) {
        next_flip[c] =
            states[c + 1] != states[c] ? c + 1 : next_flip[c + 1];
    }

    GlobalPhase ahead(p_on_to_off, p_off_to_on, Rng(seed));
    for (std::uint64_t c = 0; c < cycles; ++c) {
        const GlobalPhase::Run run = ahead.at(c);
        ASSERT_EQ(run.on, states[c]) << "cycle " << c;
        ASSERT_GT(run.end, c) << "cycle " << c;
        ASSERT_LE(std::min(run.end, cycles), next_flip[c]) << "cycle " << c;
    }
}

TEST(GlobalPhase, LookAheadMatchesTickedPhaseOverALongRun)
{
    // 200k cycles with mean dwells of 500 (on) and 250 (off) cycles:
    // hundreds of flips.
    expectLookAheadMatches(0.002, 0.004, 0x9A5E, 200000, 300);
}

TEST(GlobalPhase, LookAheadMatchesTickedPhaseAtProbabilitiesZeroAndOne)
{
    // Never flips (each read draws up to kLookAhead ahead), flips every
    // cycle, and the two absorbing mixes.
    expectLookAheadMatches(0.0, 0.0, 11, 20000, 0);
    expectLookAheadMatches(1.0, 1.0, 12, 20000, 19999);
    expectLookAheadMatches(1.0, 0.0, 13, 20000, 0);
    expectLookAheadMatches(0.0, 1.0, 14, 20000, 0);
}

TEST(GlobalPhase, LookAheadAnswersCyclesInAnyOrder)
{
    // Cores scan from different positions, so reads go back and forth.
    const std::uint64_t cycles = 60000;
    const std::vector<bool> states = tickedStates(0.01, 0.02, 5, cycles);
    GlobalPhase ahead(0.01, 0.02, Rng(5));
    Rng order(99);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t c = order.below(cycles);
        ASSERT_EQ(ahead.at(c).on, states[c]) << "cycle " << c;
    }
}

TEST(GlobalPhase, IsEitherTickedOrReadAhead)
{
    GlobalPhase ticked(0.01, 0.01, Rng(7));
    ticked.tick();
    EXPECT_DEATH(ticked.at(0), "at\\(\\) after tick\\(\\)");
    GlobalPhase ahead(0.01, 0.01, Rng(7));
    ahead.at(0);
    EXPECT_DEATH(ahead.tick(), "tick\\(\\) after at\\(\\)");
    EXPECT_DEATH(ahead.on(), "on\\(\\) after at\\(\\)");
}

/** One issue a demand generator made: its cycle and access. */
struct Issue
{
    std::uint64_t cycle;
    MemAccess acc;
};

/** The reference path: one draw() per cycle, ticking `phase` (if any)
 *  first, and generate() when it fires. */
std::vector<Issue>
drawLoop(CoreDemandGenerator &gen, GlobalPhase *phase, std::uint64_t cycles)
{
    std::vector<Issue> out;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        if (phase)
            phase->tick();
        if (gen.draw())
            out.push_back({c, gen.generate()});
    }
    return out;
}

/** scan() from cycle 0 on, as ClusterNode drives it: generate() at each
 *  issuing stop, then scan on from the next cycle.  Counts the stops
 *  that ended a horizon without an issue. */
std::vector<Issue>
scanLoop(CoreDemandGenerator &gen, std::uint64_t cycles,
         std::uint64_t &horizon_stops)
{
    std::vector<Issue> out;
    std::uint64_t from = 0;
    while (from < cycles) {
        const CoreDemandGenerator::Stop stop = gen.scan(from);
        EXPECT_GE(stop.cycle, from);
        EXPECT_LT(stop.cycle, from + CoreDemandGenerator::kScanHorizon);
        if (stop.issues) {
            if (stop.cycle < cycles)
                out.push_back({stop.cycle, gen.generate()});
        } else {
            EXPECT_EQ(stop.cycle, from + CoreDemandGenerator::kScanHorizon - 1);
            ++horizon_stops;
        }
        from = stop.cycle + 1;
    }
    return out;
}

void
expectSameIssues(const std::vector<Issue> &scanned,
                 const std::vector<Issue> &drawn)
{
    ASSERT_EQ(scanned.size(), drawn.size());
    for (std::size_t i = 0; i < drawn.size(); ++i) {
        ASSERT_EQ(scanned[i].cycle, drawn[i].cycle) << "issue " << i;
        EXPECT_EQ(scanned[i].acc.lineAddr, drawn[i].acc.lineAddr)
            << "issue " << i;
        EXPECT_EQ(scanned[i].acc.write, drawn[i].acc.write) << "issue " << i;
        EXPECT_EQ(scanned[i].acc.instr, drawn[i].acc.instr) << "issue " << i;
    }
}

/** A profile with distinct on/off rates and mixed accesses. */
BenchmarkProfile
scanProfile(double rate_on, double rate_off)
{
    BenchmarkProfile p;
    p.coreType = sim::CoreType::CPU;
    p.accessRateOn = rate_on;
    p.accessRateOff = rate_off;
    p.pOnToOff = 0.003;
    p.pOffToOn = 0.002;
    p.instrFraction = 0.2;
    p.writeFraction = 0.3;
    p.sharedFraction = 0.2;
    p.streamFraction = 0.5;
    p.workingSetLines = 300;
    return p;
}

TEST(Generator, ScanMatchesPerCycleDrawsInPrivateMode)
{
    for (const auto &[on, off] : {std::pair{0.05, 0.01}, {0.3, 0.0}}) {
        SCOPED_TRACE("rates " + std::to_string(on) + "/" +
                     std::to_string(off));
        const BenchmarkProfile p = scanProfile(on, off);
        CoreDemandGenerator drawn(p, 3, Rng(21));
        CoreDemandGenerator scanned(p, 3, Rng(21));
        std::uint64_t horizon_stops = 0;
        const auto want = drawLoop(drawn, nullptr, 100000);
        EXPECT_GT(want.size(), 500u);
        expectSameIssues(scanLoop(scanned, 100000, horizon_stops), want);
    }
}

TEST(Generator, ScanMatchesPerCycleDrawsOnASharedPhase)
{
    // Two cores on one phase, each scanned over the whole run before the
    // next (so the second reads the phase from cycle 0 again), against
    // two cores drawing every cycle on a ticked twin.  accessRateOff 0
    // leaves the off phases silent.
    const BenchmarkProfile p = scanProfile(0.2, 0.0);
    const std::uint64_t cycles = 120000;
    GlobalPhase ticked(0.004, 0.004, Rng(31));
    GlobalPhase ahead(0.004, 0.004, Rng(31));
    CoreDemandGenerator drawn_a(p, 1, Rng(41), &ticked);
    CoreDemandGenerator drawn_b(p, 2, Rng(42), &ticked);
    std::vector<Issue> want_a;
    std::vector<Issue> want_b;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        ticked.tick();
        if (drawn_a.draw())
            want_a.push_back({c, drawn_a.generate()});
        if (drawn_b.draw())
            want_b.push_back({c, drawn_b.generate()});
    }
    EXPECT_GT(want_a.size(), 1000u);

    CoreDemandGenerator scanned_a(p, 1, Rng(41), &ahead);
    CoreDemandGenerator scanned_b(p, 2, Rng(42), &ahead);
    std::uint64_t horizon_stops = 0;
    expectSameIssues(scanLoop(scanned_a, cycles, horizon_stops), want_a);
    expectSameIssues(scanLoop(scanned_b, cycles, horizon_stops), want_b);
}

TEST(Generator, ScanCrossesTheHorizonExactly)
{
    // Mean gaps of 10k cycles: most scans end a horizon without an issue
    // and the next one picks up where it stopped.  Private mode, then a
    // shared phase.
    const BenchmarkProfile p = scanProfile(1e-4, 5e-5);
    const std::uint64_t cycles = 400000;
    {
        CoreDemandGenerator drawn(p, 4, Rng(51));
        CoreDemandGenerator scanned(p, 4, Rng(51));
        std::uint64_t horizon_stops = 0;
        const auto want = drawLoop(drawn, nullptr, cycles);
        EXPECT_GT(want.size(), 10u);
        expectSameIssues(scanLoop(scanned, cycles, horizon_stops), want);
        EXPECT_GT(horizon_stops, 20u);
    }
    {
        GlobalPhase ticked(0.001, 0.001, Rng(61));
        GlobalPhase ahead(0.001, 0.001, Rng(61));
        CoreDemandGenerator drawn(p, 4, Rng(52), &ticked);
        CoreDemandGenerator scanned(p, 4, Rng(52), &ahead);
        std::uint64_t horizon_stops = 0;
        const auto want = drawLoop(drawn, &ticked, cycles);
        EXPECT_GT(want.size(), 10u);
        expectSameIssues(scanLoop(scanned, cycles, horizon_stops), want);
        EXPECT_GT(horizon_stops, 20u);
    }
}

TEST(Generator, ScanAtRatesZeroAndOne)
{
    const std::uint64_t horizons = 5;
    const std::uint64_t cycles = horizons * CoreDemandGenerator::kScanHorizon;
    for (const bool shared : {false, true}) {
        SCOPED_TRACE(shared ? "shared phase" : "private");
        GlobalPhase ticked(0.01, 0.01, Rng(71));
        GlobalPhase ahead(0.01, 0.01, Rng(71));

        // Rate 0 never issues: every scan ends its horizon, and after
        // `horizons` of them the stream sits where `cycles` draws leave
        // it, so the next access is the same.
        const BenchmarkProfile silent = scanProfile(0.0, 0.0);
        CoreDemandGenerator drawn(silent, 5, Rng(81),
                                  shared ? &ticked : nullptr);
        CoreDemandGenerator scanned(silent, 5, Rng(81),
                                    shared ? &ahead : nullptr);
        std::uint64_t horizon_stops = 0;
        EXPECT_TRUE(drawLoop(drawn, shared ? &ticked : nullptr, cycles)
                        .empty());
        EXPECT_TRUE(scanLoop(scanned, cycles, horizon_stops).empty());
        EXPECT_EQ(horizon_stops, horizons);
        const MemAccess a = drawn.generate();
        const MemAccess b = scanned.generate();
        EXPECT_EQ(a.lineAddr, b.lineAddr);
        EXPECT_EQ(a.write, b.write);
        EXPECT_EQ(a.instr, b.instr);

        // Rate 1 issues every cycle: each scan stops where it starts.
        GlobalPhase ticked1(0.01, 0.01, Rng(72));
        GlobalPhase ahead1(0.01, 0.01, Rng(72));
        const BenchmarkProfile busy = scanProfile(1.0, 1.0);
        CoreDemandGenerator drawn1(busy, 6, Rng(82),
                                   shared ? &ticked1 : nullptr);
        CoreDemandGenerator scanned1(busy, 6, Rng(82),
                                     shared ? &ahead1 : nullptr);
        const auto want = drawLoop(drawn1, shared ? &ticked1 : nullptr, 5000);
        EXPECT_EQ(want.size(), 5000u);
        expectSameIssues(scanLoop(scanned1, 5000, horizon_stops), want);
    }
}

TEST(Suite, FindUnknownAborts)
{
    BenchmarkSuite suite;
    EXPECT_EXIT(suite.find("nope"), ::testing::ExitedWithCode(1),
                "unknown benchmark");
}

} // namespace
} // namespace traffic
} // namespace pearl
