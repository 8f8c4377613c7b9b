/**
 * @file
 * Property test: the CSV schema round-trips RunMetrics exactly.
 *
 * csvRow -> splitCsvLine -> parseMetricCells must be the identity on
 * every representable value, including the awkward corners of IEEE 754
 * (NaN, infinities, subnormals, negative zero, extreme magnitudes) —
 * the sweep journal trusts this inverse to restore completed jobs on
 * resume.  Subnormals are the regression this suite pins: strtod sets
 * ERANGE on underflow, and parseDouble used to reject that, silently
 * dropping journal rows whose residency shares had denormalised.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "metrics/csv.hpp"

namespace pearl {
namespace metrics {
namespace {

/** Bitwise equality, with all NaNs identified: the formatter spells
 *  every NaN payload "nan"/"-nan", so payload bits cannot survive the
 *  trip and must not be asserted. */
bool
sameValue(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b) &&
               std::signbit(a) == std::signbit(b);
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/** Adversarial double corpus: every IEEE 754 corner the formatter and
 *  parser could disagree on. */
std::vector<double>
specialDoubles()
{
    using lim = std::numeric_limits<double>;
    return {
        0.0,
        -0.0,
        lim::quiet_NaN(),
        -lim::quiet_NaN(),
        lim::infinity(),
        -lim::infinity(),
        lim::denorm_min(),
        -lim::denorm_min(),
        437.0 * lim::denorm_min(),
        lim::min(),                     // smallest normal
        std::nextafter(lim::min(), 0.0), // largest subnormal
        lim::max(),
        -lim::max(),
        lim::epsilon(),
        1.0 / 3.0,
        -123456.789e-200,
        9.87654321e300,
    };
}

RunMetrics
fuzzedMetrics(Rng &rng, const std::vector<double> &corpus)
{
    RunMetrics m;
    m.configName = "fuzz";
    m.pairLabel = "FZ+FZ";
    // Integer fields: arbitrary 64-bit values.
    m.cycles = rng.next();
    m.deliveredPackets = rng.next();
    m.deliveredFlits = rng.next();
    m.deliveredBits = rng.next();
    m.cpuPackets = rng.next();
    m.gpuPackets = rng.next();
    m.corruptedPackets = rng.next();
    m.reservationDrops = rng.next();
    m.retransmittedPackets = rng.next();
    m.ackTimeouts = rng.next();
    m.droppedPackets = rng.next();
    m.thermalUnlockedCycles = rng.next();
    m.policyFallbackEntries = rng.next();
    m.policyFallbackExits = rng.next();
    m.policyFallbackWindows = rng.next();
    // Double fields: a special value or a raw random bit pattern.
    const auto draw = [&]() -> double {
        if (rng.chance(0.5))
            return corpus[rng.below(corpus.size())];
        return std::bit_cast<double>(rng.next());
    };
    m.throughputFlitsPerCycle = draw();
    m.throughputGbps = draw();
    m.avgLatencyCycles = draw();
    m.cpuLatencyCycles = draw();
    m.gpuLatencyCycles = draw();
    m.totalEnergyJ = draw();
    m.energyPerBitPj = draw();
    m.laserPowerW = draw();
    for (double &r : m.residency)
        r = draw();
    return m;
}

/** The metric cells of a rendered row (key columns stripped). */
std::vector<std::string>
metricCells(const RunMetrics &m, std::size_t num_keys)
{
    std::vector<std::string> cells =
        splitCsvLine(csvRow({"cfg", "pair"}, m));
    cells.erase(cells.begin(),
                cells.begin() + static_cast<std::ptrdiff_t>(num_keys));
    return cells;
}

TEST(CsvRoundTrip, FuzzedMetricsSurviveRenderParseRender)
{
    const std::vector<double> corpus = specialDoubles();
    Rng rng(0xC5F);
    for (int trial = 0; trial < 500; ++trial) {
        const RunMetrics original = fuzzedMetrics(rng, corpus);
        const std::vector<std::string> cells = metricCells(original, 2);

        RunMetrics parsed;
        parsed.configName = original.configName;
        parsed.pairLabel = original.pairLabel;
        ASSERT_TRUE(parseMetricCells(cells, parsed))
            << "trial " << trial << " row: " << csvRow({"c", "p"}, original);

        // Value-level inverse: every field identical (doubles bitwise,
        // NaN sign preserved, payload identified).
        const auto want = metricFields(original);
        const auto got = metricFields(parsed);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(want[i].isInteger, got[i].isInteger);
            if (want[i].isInteger)
                EXPECT_EQ(want[i].u, got[i].u)
                    << "trial " << trial << " field " << want[i].name;
            else
                EXPECT_TRUE(sameValue(want[i].d, got[i].d))
                    << "trial " << trial << " field " << want[i].name
                    << ": " << formatMetricValue(want[i]) << " vs "
                    << formatMetricValue(got[i]);
        }

        // String-level inverse: re-rendering the parsed row reproduces
        // the original bytes (the sweep journal appends these verbatim).
        EXPECT_EQ(csvRow({"cfg", "pair"}, parsed),
                  csvRow({"cfg", "pair"}, original))
            << "trial " << trial;
    }
}

TEST(CsvRoundTrip, HeaderAndRowColumnCountsAgree)
{
    const RunMetrics m;
    const auto header = splitCsvLine(csvHeader({"config", "pair"}));
    const auto row = splitCsvLine(csvRow({"c", "p"}, m));
    EXPECT_EQ(header.size(), row.size());
    EXPECT_EQ(header.size(), 2 + metricFields(m).size());
}

TEST(CsvRoundTrip, RejectsMalformedRows)
{
    const RunMetrics m;
    std::vector<std::string> cells = metricCells(m, 2);

    {
        RunMetrics out;
        auto extra = cells;
        extra.push_back("0");
        EXPECT_FALSE(parseMetricCells(extra, out));
    }
    {
        RunMetrics out;
        auto missing = cells;
        missing.pop_back();
        EXPECT_FALSE(parseMetricCells(missing, out));
    }
    {
        RunMetrics out;
        auto garbage = cells;
        garbage[0] = "12x"; // trailing junk on an integer field
        EXPECT_FALSE(parseMetricCells(garbage, out));
    }
    {
        RunMetrics out;
        auto negative = cells;
        negative[0] = "-3"; // integer fields are unsigned counters
        EXPECT_FALSE(parseMetricCells(negative, out));
    }
    {
        // A failed parse must not clobber the output row (the journal
        // skips the line and keeps the previously restored state).
        RunMetrics out;
        out.cycles = 42;
        auto garbage = cells;
        garbage.back() = "not-a-number";
        EXPECT_FALSE(parseMetricCells(garbage, out));
        EXPECT_EQ(out.cycles, 42u);
    }
}

// parseDouble itself: the primitive under the schema ------------------------

TEST(CsvRoundTrip, ParseDoubleAcceptsSubnormalsBitExactly)
{
    // strtod reports ERANGE on gradual underflow even though the
    // rounded subnormal it returns is the correct closest value;
    // parseDouble must accept it (only overflow to +/-HUGE_VAL is a
    // genuine range failure).
    using lim = std::numeric_limits<double>;
    for (double v : {lim::denorm_min(), 437.0 * lim::denorm_min(),
                     std::nextafter(lim::min(), 0.0),
                     -lim::denorm_min()}) {
        MetricField f;
        f.isInteger = false;
        f.d = v;
        double out = 0.0;
        ASSERT_TRUE(parseDouble(formatMetricValue(f), out))
            << formatMetricValue(f);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out),
                  std::bit_cast<std::uint64_t>(v))
            << formatMetricValue(f);
    }
}

TEST(CsvRoundTrip, ParseDoubleStillRejectsOverflowAndGarbage)
{
    double out = 0.0;
    EXPECT_FALSE(parseDouble("1e999", out));
    EXPECT_FALSE(parseDouble("-1e999", out));
    EXPECT_FALSE(parseDouble("", out));
    EXPECT_FALSE(parseDouble("4.2q", out));
    EXPECT_TRUE(parseDouble("inf", out));
    EXPECT_TRUE(std::isinf(out));
    EXPECT_TRUE(parseDouble("nan", out));
    EXPECT_TRUE(std::isnan(out));
    EXPECT_TRUE(parseDouble("-0", out));
    EXPECT_TRUE(std::signbit(out));
}

} // namespace
} // namespace metrics
} // namespace pearl
