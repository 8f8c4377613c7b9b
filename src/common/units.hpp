/**
 * @file
 * Unit helpers for the photonic/electrical power models.
 *
 * Optical budgets are naturally expressed in decibels while the simulator
 * accounts energy in joules and power in watts; these helpers keep the
 * conversions in one audited place.
 */

#ifndef PEARL_COMMON_UNITS_HPP
#define PEARL_COMMON_UNITS_HPP

#include <cmath>
#include <cstdint>

namespace pearl {
namespace units {

/** Convert a power ratio expressed in dB to a linear ratio. */
inline double
dbToLinear(double db)
{
    return std::pow(10.0, db / 10.0);
}

/** Convert a linear power ratio to dB. */
inline double
linearToDb(double ratio)
{
    return 10.0 * std::log10(ratio);
}

/** Convert absolute power in dBm to watts. */
inline double
dbmToWatts(double dbm)
{
    return 1e-3 * std::pow(10.0, dbm / 10.0);
}

// Scalar prefixes -----------------------------------------------------------

constexpr double kilo = 1e3;
constexpr double mega = 1e6;
constexpr double giga = 1e9;
constexpr double milli = 1e-3;
constexpr double micro = 1e-6;
constexpr double nano = 1e-9;
constexpr double pico = 1e-12;
constexpr double femto = 1e-15;

/** Number of whole clock cycles needed to cover `seconds` at `freq_hz`. */
inline std::uint64_t
cyclesFor(double seconds, double freq_hz)
{
    return static_cast<std::uint64_t>(std::ceil(seconds * freq_hz - 1e-12));
}

} // namespace units
} // namespace pearl

#endif // PEARL_COMMON_UNITS_HPP
