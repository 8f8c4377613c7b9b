/**
 * @file
 * Logging and error-reporting helpers in the gem5 spirit.
 *
 * `panic()` is for internal invariant violations (simulator bugs) and
 * aborts; `fatal()` is for user/configuration errors and exits cleanly;
 * `warn()` and `inform()` are status messages that never stop the run.
 */

#ifndef PEARL_COMMON_LOG_HPP
#define PEARL_COMMON_LOG_HPP

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>

namespace pearl {

/** Verbosity levels for runtime log filtering. */
enum class LogLevel { Silent = 0, Error = 1, Warn = 2, Info = 3, Debug = 4 };

/** Global log configuration (process-wide). */
class Log
{
  public:
    /** Current verbosity; messages above this level are suppressed. */
    static LogLevel &
    level()
    {
        static LogLevel lvl = LogLevel::Warn;
        return lvl;
    }

    /** Output stream used for all log messages (defaults to stderr). */
    static std::ostream *&
    stream()
    {
        static std::ostream *os = &std::cerr;
        return os;
    }
};

namespace detail {

template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Serialises log lines across threads. */
inline std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

/**
 * Format `prefix`, the message and the newline into one string, then
 * insert it into Log::stream() once, under logMutex().  Lines from
 * concurrent sweep jobs therefore never interleave, and a stream other
 * than std::cerr (a test's or a benchmark's tap) sees no data race.
 */
template <typename... Args>
void
writeLine(const char *prefix, Args &&...args)
{
    const std::string line =
        formatMessage(prefix, std::forward<Args>(args)..., '\n');
    const std::lock_guard<std::mutex> lock(logMutex());
    *Log::stream() << line;
}

} // namespace detail

/** Informational message: normal operating status, nothing is wrong. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (Log::level() >= LogLevel::Info) {
        detail::writeLine("info: ", std::forward<Args>(args)...);
    }
}

/** Warning: something may behave suboptimally but the run continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (Log::level() >= LogLevel::Warn) {
        detail::writeLine("warn: ", std::forward<Args>(args)...);
    }
}

/**
 * Fatal error: the run cannot continue because of a user-visible problem
 * (bad configuration, invalid arguments).  Exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::writeLine("fatal: ", std::forward<Args>(args)...);
    std::exit(1);
}

/**
 * Panic: an internal invariant was violated — a simulator bug, not a user
 * error.  Aborts so a core dump / debugger can catch it.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::writeLine("panic: ", std::forward<Args>(args)...);
    std::abort();
}

/** Panic unless `cond` holds. */
#define PEARL_ASSERT(cond, ...)                                              \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::pearl::panic("assertion failed: ", #cond, " @ ", __FILE__,    \
                           ":", __LINE__, " ", ##__VA_ARGS__);               \
        }                                                                    \
    } while (0)

} // namespace pearl

#endif // PEARL_COMMON_LOG_HPP
