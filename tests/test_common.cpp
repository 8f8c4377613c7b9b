/**
 * @file
 * Tests for the common utilities: RNG, statistics, tables, units.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/reservoir.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace pearl {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsDecorrelated)
{
    Rng parent(21);
    Rng a = parent.fork();
    Rng b = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, GeometricMeanRoughlyInverseP)
{
    Rng rng(31);
    double total = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(rng.geometric(0.25));
    EXPECT_NEAR(total / n, 4.0, 0.25);
}

TEST(Rng, DeriveSeedIsPureAndDecorrelated)
{
    // Same (base, index) -> same seed; any change -> different seed.
    EXPECT_EQ(deriveSeed(100, 0), deriveSeed(100, 0));
    EXPECT_NE(deriveSeed(100, 0), deriveSeed(100, 1));
    EXPECT_NE(deriveSeed(100, 0), deriveSeed(101, 0));

    // Streams seeded from adjacent indices must not track each other.
    Rng a(deriveSeed(7, 3)), b(deriveSeed(7, 4));
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);

    // No collisions over a realistic sweep width.
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 4096; ++i)
        seen.insert(deriveSeed(100, i));
    EXPECT_EQ(seen.size(), 4096u);
}

TEST(Env, ParseU64AcceptsPlainIntegers)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseU64("60000", v));
    EXPECT_EQ(v, 60000u);
    EXPECT_TRUE(parseU64("18446744073709551615", v));
    EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

TEST(Env, ParseU64RejectsGarbage)
{
    std::uint64_t v = 0;
    EXPECT_FALSE(parseU64("abc", v));
    EXPECT_FALSE(parseU64("", v));
    EXPECT_FALSE(parseU64("12abc", v));
    EXPECT_FALSE(parseU64("-5", v));
    EXPECT_FALSE(parseU64("1e4", v));
    // Out of range for 64 bits.
    EXPECT_FALSE(parseU64("99999999999999999999999", v));
}

TEST(Env, EnvU64FallsBackOnGarbage)
{
    // The old std::atoll path silently turned garbage into 0; the
    // strict parser must warn and keep the fallback instead.
    setenv("PEARL_TEST_ENV_U64", "abc", 1);
    EXPECT_EQ(envU64("PEARL_TEST_ENV_U64", 1234u), 1234u);

    setenv("PEARL_TEST_ENV_U64", "77", 1);
    EXPECT_EQ(envU64("PEARL_TEST_ENV_U64", 1234u), 77u);

    unsetenv("PEARL_TEST_ENV_U64");
    EXPECT_EQ(envU64("PEARL_TEST_ENV_U64", 1234u), 1234u);
}

TEST(Env, ParseDoubleAcceptsNumbers)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("0", v));
    EXPECT_DOUBLE_EQ(v, 0.0);
    EXPECT_TRUE(parseDouble("-2.5", v));
    EXPECT_DOUBLE_EQ(v, -2.5);
    EXPECT_TRUE(parseDouble("1e-3", v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseDouble("42 ", v)); // trailing blanks tolerated
    EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(Env, ParseDoubleRejectsGarbage)
{
    double v = 0.0;
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("abc", v));
    EXPECT_FALSE(parseDouble("1.5x", v));
    EXPECT_FALSE(parseDouble("1e999", v)); // overflow
}

TEST(Env, ParseBoolAcceptsTheUsualSpellings)
{
    bool v = false;
    for (const char *t : {"1", "true", "TRUE", "Yes", "on", " true "}) {
        EXPECT_TRUE(parseBool(t, v)) << t;
        EXPECT_TRUE(v) << t;
    }
    for (const char *f : {"0", "false", "FALSE", "No", "off", " off "}) {
        EXPECT_TRUE(parseBool(f, v)) << f;
        EXPECT_FALSE(v) << f;
    }
}

TEST(Env, ParseBoolRejectsGarbage)
{
    bool v = false;
    EXPECT_FALSE(parseBool("", v));
    EXPECT_FALSE(parseBool("   ", v));
    EXPECT_FALSE(parseBool("2", v));
    EXPECT_FALSE(parseBool("enable", v));
    EXPECT_FALSE(parseBool("true!", v));
}

TEST(Env, EnvDoubleFallsBackOnGarbage)
{
    setenv("PEARL_TEST_ENV_D", "nope", 1);
    EXPECT_DOUBLE_EQ(envDouble("PEARL_TEST_ENV_D", 2.5), 2.5);

    setenv("PEARL_TEST_ENV_D", "0.125", 1);
    EXPECT_DOUBLE_EQ(envDouble("PEARL_TEST_ENV_D", 2.5), 0.125);

    unsetenv("PEARL_TEST_ENV_D");
    EXPECT_DOUBLE_EQ(envDouble("PEARL_TEST_ENV_D", 2.5), 2.5);
}

TEST(Env, EnvBoolFallsBackOnGarbage)
{
    setenv("PEARL_TEST_ENV_B", "maybe", 1);
    EXPECT_TRUE(envBool("PEARL_TEST_ENV_B", true));
    EXPECT_FALSE(envBool("PEARL_TEST_ENV_B", false));

    setenv("PEARL_TEST_ENV_B", "yes", 1);
    EXPECT_TRUE(envBool("PEARL_TEST_ENV_B", false));
    setenv("PEARL_TEST_ENV_B", "off", 1);
    EXPECT_FALSE(envBool("PEARL_TEST_ENV_B", true));

    unsetenv("PEARL_TEST_ENV_B");
    EXPECT_FALSE(envBool("PEARL_TEST_ENV_B", false));
}

TEST(Env, EnvStrReturnsSetValueVerbatim)
{
    unsetenv("PEARL_TEST_ENV_S");
    EXPECT_EQ(envStr("PEARL_TEST_ENV_S", "fb"), "fb");

    setenv("PEARL_TEST_ENV_S", "trace.jsonl", 1);
    EXPECT_EQ(envStr("PEARL_TEST_ENV_S", "fb"), "trace.jsonl");

    // "" is a set value, not an unset one.
    setenv("PEARL_TEST_ENV_S", "", 1);
    EXPECT_EQ(envStr("PEARL_TEST_ENV_S", "fb"), "");
    unsetenv("PEARL_TEST_ENV_S");
}

TEST(EnvRegistry, KnobsAreWellFormed)
{
    std::set<std::string> names;
    for (const EnvKnob &k : envRegistry()) {
        const std::string name = k.name;
        EXPECT_EQ(name.rfind("PEARL_", 0), 0u)
            << name << " lacks the PEARL_ prefix";
        EXPECT_TRUE(names.insert(name).second)
            << name << " registered twice";
        const std::string type = k.type;
        EXPECT_TRUE(type == "bool" || type == "u64" ||
                    type == "double" || type == "string")
            << name << " has unknown type " << type;
        EXPECT_FALSE(std::string(k.fallback).empty()) << name;
        EXPECT_FALSE(std::string(k.summary).empty()) << name;
    }
}

/** PEARL_* names `text` reads: a string literal passed to getenv() or
 *  an env*() helper (whitespace allowed before the literal), or a
 *  shell `${NAME` expansion. */
std::set<std::string>
envReads(const std::string &text)
{
    auto is_ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    auto name_at = [&](std::size_t pos) {
        std::size_t end = pos;
        while (end < text.size() && is_ident(text[end]))
            ++end;
        return text.substr(pos, end - pos);
    };
    std::set<std::string> names;
    for (std::size_t q = text.find("\"PEARL_"); q != std::string::npos;
         q = text.find("\"PEARL_", q + 1)) {
        std::size_t p = q;
        while (p > 0 && std::isspace(static_cast<unsigned char>(text[p - 1])))
            --p;
        if (p == 0 || text[p - 1] != '(')
            continue;
        const std::size_t call_end = --p;
        while (p > 0 && is_ident(text[p - 1]))
            --p;
        const std::string call = text.substr(p, call_end - p);
        if (call == "getenv" || call.rfind("env", 0) == 0)
            names.insert(name_at(q + 1));
    }
    for (std::size_t d = text.find("${PEARL_"); d != std::string::npos;
         d = text.find("${PEARL_", d + 1))
        names.insert(name_at(d + 2));
    return names;
}

/** envReads() over every file under `dirs` of the source tree, except
 *  the registry itself. */
std::set<std::string>
envReadsUnder(std::initializer_list<const char *> dirs)
{
    namespace fs = std::filesystem;
    std::set<std::string> names;
    for (const char *dir : dirs) {
        for (const auto &entry : fs::recursive_directory_iterator(
                 fs::path(PEARL_SOURCE_DIR) / dir)) {
            if (!entry.is_regular_file() ||
                entry.path().filename() == "env.hpp")
                continue;
            std::ifstream in(entry.path());
            std::ostringstream buf;
            buf << in.rdbuf();
            names.merge(envReads(buf.str()));
        }
    }
    return names;
}

TEST(EnvRegistry, EveryKnobIsReadAndEveryReadIsRegistered)
{
    std::set<std::string> registered;
    for (const EnvKnob &k : envRegistry())
        registered.insert(k.name);

    const std::set<std::string> read_anywhere =
        envReadsUnder({"src", "bench", "examples", "tests", "scripts"});
    for (const std::string &name : registered) {
        EXPECT_TRUE(read_anywhere.count(name))
            << name << " is registered but nothing reads it";
    }

    for (const std::string &name :
         envReadsUnder({"src", "bench", "examples"})) {
        if (name.rfind("PEARL_TEST_ENV_", 0) == 0)
            continue;
        EXPECT_TRUE(registered.count(name))
            << name << " is read but not registered in envRegistry()";
    }
}

TEST(EnvRegistry, HelpRendersEveryKnob)
{
    const std::string help = envHelp();
    for (const EnvKnob &k : envRegistry())
        EXPECT_NE(help.find(k.name), std::string::npos) << k.name;
}

// The README's knob table must be exactly envMarkdownTable()'s output,
// enclosed in the env-table markers.  On drift, regenerate with
// `./build/examples/quickstart --env-help` (or paste
// pearl::envMarkdownTable()) rather than editing the table by hand.
TEST(EnvRegistry, ReadmeTableMatchesRegistry)
{
    const std::string readme_path = PEARL_SOURCE_DIR "/README.md";
    std::ifstream readme(readme_path);
    ASSERT_TRUE(readme) << "cannot open " << readme_path;
    std::ostringstream buf;
    buf << readme.rdbuf();
    const std::string text = buf.str();

    const std::string begin_marker = "<!-- env-table:begin";
    const std::string end_marker = "<!-- env-table:end -->";
    const std::size_t begin = text.find(begin_marker);
    ASSERT_NE(begin, std::string::npos) << "README lost the env-table "
                                           "begin marker";
    const std::size_t table_start = text.find('\n', begin) + 1;
    const std::size_t end = text.find(end_marker, table_start);
    ASSERT_NE(end, std::string::npos) << "README lost the env-table "
                                         "end marker";
    EXPECT_EQ(text.substr(table_start, end - table_start),
              envMarkdownTable())
        << "README env table drifted from pearl::envRegistry() — "
           "regenerate it from envMarkdownTable()";
}

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat s;
    s.add(1.0);
    s.add(2.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(DiscreteHistogram, FractionsSumToOne)
{
    DiscreteHistogram h;
    h.add(0, 10);
    h.add(1, 30);
    h.add(4, 60);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.10);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.30);
    EXPECT_DOUBLE_EQ(h.fraction(4), 0.60);
    EXPECT_DOUBLE_EQ(h.fraction(2), 0.0);
}

TEST(DiscreteHistogram, EmptyFractionIsZero)
{
    DiscreteHistogram h;
    EXPECT_DOUBLE_EQ(h.fraction(3), 0.0);
}

TEST(Units, DbRoundTrip)
{
    for (double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 20.0}) {
        EXPECT_NEAR(units::linearToDb(units::dbToLinear(db)), db, 1e-9);
    }
}

TEST(Units, DbmToWatts)
{
    EXPECT_NEAR(units::dbmToWatts(0.0), 1e-3, 1e-12);
    EXPECT_NEAR(units::dbmToWatts(30.0), 1.0, 1e-9);
    EXPECT_NEAR(units::dbmToWatts(-15.0), 31.622776e-6, 1e-9);
}

TEST(Units, TenDbIsFactorTen)
{
    EXPECT_NEAR(units::dbToLinear(10.0), 10.0, 1e-12);
    EXPECT_NEAR(units::dbToLinear(3.0), 1.9952623, 1e-6);
}

TEST(Units, CyclesFor)
{
    // 2 ns at 2 GHz = 4 cycles.
    EXPECT_EQ(units::cyclesFor(2e-9, 2e9), 4u);
    EXPECT_EQ(units::cyclesFor(0.4e-9, 2e9), 1u);
}

TEST(TextTable, AlignsAndPreservesCells)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.rows().size(), 2u);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.345, 1), "34.5%");
}

TEST(Reservoir, ExactForSmallStreams)
{
    ReservoirSampler r(128);
    for (int i = 1; i <= 100; ++i)
        r.add(static_cast<double>(i));
    EXPECT_EQ(r.count(), 100u);
    EXPECT_EQ(r.sampleSize(), 100u);
    EXPECT_NEAR(r.median(), 50.5, 0.01);
    EXPECT_NEAR(r.quantile(0.0), 1.0, 1e-12);
    EXPECT_NEAR(r.quantile(1.0), 100.0, 1e-12);
}

TEST(Reservoir, EmptyReturnsZero)
{
    ReservoirSampler r(16);
    EXPECT_DOUBLE_EQ(r.median(), 0.0);
    EXPECT_DOUBLE_EQ(r.p99(), 0.0);
}

TEST(Reservoir, ApproximatesLargeStreamQuantiles)
{
    // A uniform [0, 1000) stream: percentiles should land near the
    // analytic values even through subsampling.
    ReservoirSampler r(4096, 7);
    Rng rng(5);
    for (int i = 0; i < 200000; ++i)
        r.add(rng.uniform() * 1000.0);
    EXPECT_EQ(r.sampleSize(), 4096u);
    EXPECT_NEAR(r.median(), 500.0, 40.0);
    EXPECT_NEAR(r.p95(), 950.0, 40.0);
    EXPECT_NEAR(r.p99(), 990.0, 15.0);
}

TEST(Reservoir, ResetClears)
{
    ReservoirSampler r(16);
    r.add(5.0);
    r.reset();
    EXPECT_EQ(r.count(), 0u);
    EXPECT_DOUBLE_EQ(r.median(), 0.0);
}

TEST(Reservoir, TailSensitivity)
{
    // 3% of the stream is a 100x outlier: p99 must see it, the median
    // must not.
    ReservoirSampler r(8192, 3);
    Rng rng(9);
    for (int i = 0; i < 100000; ++i)
        r.add(rng.chance(0.03) ? 1000.0 : 10.0);
    EXPECT_NEAR(r.median(), 10.0, 1e-9);
    EXPECT_GT(r.p99(), 500.0);
}

} // namespace
} // namespace pearl
