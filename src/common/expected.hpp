/**
 * @file
 * Structured errors and an `Expected<T>` result type.
 *
 * PEARL_ASSERT is for simulator invariants — it aborts, which is the
 * right reaction to a bug but the wrong one to a user typo.  Everything
 * a *user* can get wrong (configuration structs, RunSpecs, environment
 * knobs) flows through this layer instead: validation entry points
 * return `Expected<void>` carrying an actionable message, callers that
 * cannot continue throw `ConfigError`, and the sweep engine captures
 * such exceptions as structured per-job failures instead of taking the
 * whole run down.
 *
 * `Expected<T>` is a deliberately small subset of C++23 std::expected
 * (value-or-Error), enough for validation and parsing call sites; it is
 * not a coroutine-friendly monad and does not try to be.
 */

#ifndef PEARL_COMMON_EXPECTED_HPP
#define PEARL_COMMON_EXPECTED_HPP

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.hpp"

namespace pearl {

/** Coarse error taxonomy (DESIGN.md "Resilience": error taxonomy). */
enum class ErrorCode
{
    None = 0,
    InvalidConfig,   //!< a configuration struct fails validation
    InvalidArgument, //!< a bad value passed to an API entry point
    InvalidState,    //!< an operation is illegal in the current state
    IoError,         //!< file / journal read or write failure
    JobFailed,       //!< a sweep job raised an unclassified exception
};

/** Stable string form of an ErrorCode (logs, journal, job results). */
inline const char *
toString(ErrorCode code)
{
    switch (code) {
    case ErrorCode::None: return "none";
    case ErrorCode::InvalidConfig: return "invalid_config";
    case ErrorCode::InvalidArgument: return "invalid_argument";
    case ErrorCode::InvalidState: return "invalid_state";
    case ErrorCode::IoError: return "io_error";
    case ErrorCode::JobFailed: return "job_failed";
    }
    return "unknown";
}

/** One structured error: code + actionable message. */
struct Error
{
    ErrorCode code = ErrorCode::None;
    std::string message;

    Error() = default;
    Error(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

    /** "invalid_config: reservationWindow must be > 0 (got 0)". */
    std::string
    describe() const
    {
        return std::string(toString(code)) + ": " + message;
    }
};

/**
 * Exception form of an Error, for call sites that cannot return one
 * (constructors, deep call chains).  The sweep engine catches these and
 * records the code + message as a structured job failure.
 */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(Error err)
        : std::runtime_error(err.describe()), err_(std::move(err))
    {}

    const Error &error() const { return err_; }
    ErrorCode code() const { return err_.code; }

  private:
    Error err_;
};

/** Value-or-Error result.  Default-constructed as an empty error. */
template <typename T>
class Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {} // NOLINT(google-explicit-constructor)
    Expected(Error err) : error_(std::move(err)) {} // NOLINT(google-explicit-constructor)

    bool hasValue() const { return value_.has_value(); }
    explicit operator bool() const { return hasValue(); }

    /** The value; throws ConfigError when this holds an error. */
    T &
    value()
    {
        if (!value_)
            throw ConfigError(error_);
        return *value_;
    }
    const T &
    value() const
    {
        if (!value_)
            throw ConfigError(error_);
        return *value_;
    }

    /** The error; only meaningful when !hasValue(). */
    const Error &error() const { return error_; }

  private:
    std::optional<T> value_;
    Error error_;
};

/** Success-or-Error result of a validation entry point. */
template <>
class Expected<void>
{
  public:
    Expected() = default;                           //!< success
    Expected(Error err) : error_(std::move(err)) {} // NOLINT(google-explicit-constructor)

    bool hasValue() const { return error_.code == ErrorCode::None; }
    explicit operator bool() const { return hasValue(); }

    /** Throws ConfigError when this holds an error; no-op on success. */
    void
    value() const
    {
        if (!hasValue())
            throw ConfigError(error_);
    }

    const Error &error() const { return error_; }

  private:
    Error error_;
};

/** The canonical return type of `validate()` entry points. */
using Validation = Expected<void>;

/** Build an InvalidConfig error from streamable parts. */
template <typename... Args>
Error
configError(Args &&...args)
{
    return Error(ErrorCode::InvalidConfig,
                 detail::formatMessage(std::forward<Args>(args)...));
}

/** Throw ConfigError if `v` holds an error (validate-or-throw). */
inline void
throwIfInvalid(const Validation &v)
{
    v.value();
}

} // namespace pearl

#endif // PEARL_COMMON_EXPECTED_HPP
