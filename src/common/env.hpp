/**
 * @file
 * Strictly-validated environment-variable parsing.
 *
 * Every runtime knob (PEARL_BENCH_*, PEARL_THREADS, ...) goes through
 * these helpers so a typo like PEARL_BENCH_CYCLES=abc warns and falls
 * back to the default instead of silently becoming 0.
 */

#ifndef PEARL_COMMON_ENV_HPP
#define PEARL_COMMON_ENV_HPP

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"

namespace pearl {

/**
 * Parse `text` as an unsigned 64-bit integer.  Leading whitespace,
 * trailing garbage, negative values and out-of-range values all count
 * as parse failures.  @return true and set `out` on success.
 */
inline bool
parseU64(const std::string &text, std::uint64_t &out)
{
    const char *begin = text.c_str();
    // strtoull silently accepts "-5" (wrapping it); reject any minus.
    for (const char *p = begin; *p != '\0'; ++p) {
        if (*p == '-')
            return false;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(begin, &end, 10);
    if (end == begin || errno == ERANGE)
        return false;
    while (*end == ' ' || *end == '\t')
        ++end;
    if (*end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

/**
 * Read an unsigned integer environment variable.  An unset variable
 * yields `fallback`; an unparseable value warns and yields `fallback`.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    std::uint64_t out = 0;
    if (!parseU64(v, out)) {
        warn("ignoring unparseable ", name, "=\"", v, "\"; using ",
             fallback);
        return fallback;
    }
    return out;
}

/**
 * Parse `text` as a double.  Leading whitespace is accepted (strtod
 * semantics); trailing garbage, empty strings and overflow ("1e999")
 * count as parse failures.  Gradual underflow is NOT a failure: strtod
 * sets ERANGE for subnormal results too, but a subnormal is still the
 * correctly rounded value of its decimal spelling — and the canonical
 * CSV writer prints subnormals (max_digits10), so the parser must
 * round-trip them.  Only the overflow half of ERANGE rejects.
 * @return true and set `out` on success.
 */
inline bool
parseDouble(const std::string &text, double &out)
{
    const char *begin = text.c_str();
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin)
        return false;
    if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))
        return false;
    while (*end == ' ' || *end == '\t')
        ++end;
    if (*end != '\0')
        return false;
    out = v;
    return true;
}

/**
 * Parse `text` as a boolean.  Accepts 0/1, true/false, yes/no, on/off
 * (case-insensitive, surrounding spaces/tabs ignored); anything else is
 * a parse failure.  @return true and set `out` on success.
 */
inline bool
parseBool(const std::string &text, bool &out)
{
    std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos)
        return false;
    std::size_t last = text.find_last_not_of(" \t");
    std::string word = text.substr(first, last - first + 1);
    for (char &c : word)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (word == "1" || word == "true" || word == "yes" || word == "on") {
        out = true;
        return true;
    }
    if (word == "0" || word == "false" || word == "no" || word == "off") {
        out = false;
        return true;
    }
    return false;
}

/**
 * Read a double environment variable.  An unset variable yields
 * `fallback`; an unparseable value warns and yields `fallback` — same
 * contract as envU64.
 */
inline double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    double out = 0.0;
    if (!parseDouble(v, out)) {
        warn("ignoring unparseable ", name, "=\"", v, "\"; using ",
             fallback);
        return fallback;
    }
    return out;
}

/**
 * Read a string environment variable.  An unset variable yields
 * `fallback`; any set value (including "") is returned verbatim — there
 * is no unparseable case for strings, so no warn path.
 */
inline std::string
envStr(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v ? std::string(v) : fallback;
}

/**
 * Read a boolean environment variable (PEARL_TRACE and friends).  An
 * unset variable yields `fallback`; an unparseable value warns and
 * yields `fallback` — same contract as envU64.
 */
inline bool
envBool(const char *name, bool fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    bool out = false;
    if (!parseBool(v, out)) {
        warn("ignoring unparseable ", name, "=\"", v, "\"; using ",
             fallback ? "true" : "false");
        return fallback;
    }
    return out;
}

/** One documented runtime knob (an entry of envRegistry()). */
struct EnvKnob
{
    const char *name;     //!< environment variable
    const char *type;     //!< "bool", "u64", "double" or "string"
    const char *fallback; //!< human-readable default
    const char *summary;  //!< one-line description of the effect
};

/**
 * Single source of truth for every PEARL_* runtime environment knob.
 * The README's knob tables are generated from this list (the drift
 * test in test_common pins them to each other), and envHelp() renders
 * it for `quickstart --env-help`.  Add new knobs HERE when you add the
 * env*() call site, keeping each group alphabetical; test_common fails
 * on a knob that nothing reads and on a read that is not registered.
 */
inline const std::vector<EnvKnob> &
envRegistry()
{
    static const std::vector<EnvKnob> knobs = {
        // Simulation core.
        {"PEARL_VERIFY", "bool", "0",
         "install the invariant auditor on every network built through "
         "the Runner facade (packet conservation, buffer and express "
         "legality each cycle)"},
        // Observability.
        {"PEARL_METRICS_DUMP", "string", "unset",
         "append every run's metrics as canonical CSV rows to this "
         "file"},
        {"PEARL_TRACE", "bool", "0",
         "emit a structured event trace for each run"},
        {"PEARL_TRACE_PATH", "string", "pearl_trace.json",
         "trace output path; extension picks the sink (.jsonl or "
         "Chrome .json)"},
        // Sweep engine.
        {"PEARL_THREADS", "u64", "CPUs in the affinity mask",
         "job worker threads for sweeps and training-data collection; "
         "single runs use one thread"},
        // Benchmarks (bench/*).
        {"PEARL_BENCH_CYCLES", "u64", "60000",
         "measured cycles per bench run"},
        {"PEARL_BENCH_JSON", "string", "BENCH_scaling.json",
         "output JSON path of bench_ext_scaling"},
        {"PEARL_BENCH_PAIRS", "u64", "0 (= all)",
         "cap on benchmark pairs a figure aggregates over"},
        {"PEARL_BENCH_TRAIN", "u64", "30000",
         "training-simulation cycles for ML benches"},
        {"PEARL_BENCH_TRAIN_PAIRS", "u64", "0 (= all)",
         "cap on training pairs for ML benches"},
        {"PEARL_BENCH_WARMUP", "u64", "10000",
         "warm-up cycles excluded from measurement"},
        // Tests and fuzzing.
        {"PEARL_FUZZ_CASES", "u64", "200",
         "differential fuzz cases per campaign"},
        {"PEARL_FUZZ_SECONDS", "double", "0 (= unlimited)",
         "wall-clock budget for a fuzz campaign"},
        {"PEARL_FUZZ_SEED", "u64", "0xF0CC",
         "base seed a fuzz campaign derives every case from"},
        {"PEARL_UPDATE_GOLDEN", "u64", "0",
         "non-zero makes test_golden_metrics regenerate the golden "
         "CSVs instead of diffing"},
        // Scripts.
        {"PEARL_CHECK_JOBS", "u64", "4",
         "parallel build jobs for scripts/check.sh"},
    };
    return knobs;
}

/** Plain-text rendering of envRegistry() (for --env-help flags). */
inline std::string
envHelp()
{
    std::size_t width = 0;
    for (const EnvKnob &k : envRegistry())
        width = std::max(width, std::string(k.name).size());
    std::ostringstream os;
    os << "Runtime environment knobs (unset or unparseable values fall "
          "back to the default):\n";
    for (const EnvKnob &k : envRegistry()) {
        os << "  " << k.name
           << std::string(width - std::string(k.name).size(), ' ')
           << "  [" << k.type << ", default " << k.fallback << "] "
           << k.summary << '\n';
    }
    return os.str();
}

/** Markdown rendering of envRegistry(); the README embeds this table
 *  verbatim (test_common checks for drift). */
inline std::string
envMarkdownTable()
{
    std::ostringstream os;
    os << "| Variable | Type | Default | Effect |\n";
    os << "| --- | --- | --- | --- |\n";
    for (const EnvKnob &k : envRegistry()) {
        os << "| `" << k.name << "` | " << k.type << " | " << k.fallback
           << " | " << k.summary << " |\n";
    }
    return os.str();
}

} // namespace pearl

#endif // PEARL_COMMON_ENV_HPP
