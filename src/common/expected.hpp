/**
 * @file
 * Structured errors and the `Validation` result type.
 *
 * PEARL_ASSERT is for simulator invariants — it aborts, which is the
 * right reaction to a bug but the wrong one to a user typo.  Everything
 * a *user* can get wrong (configuration structs, RunSpecs, environment
 * knobs) flows through this layer instead: validation entry points
 * return a `Validation` carrying an actionable message, callers that
 * cannot continue throw `ConfigError`, and the sweep engine captures
 * such exceptions as structured per-job failures instead of taking the
 * whole run down.
 */

#ifndef PEARL_COMMON_EXPECTED_HPP
#define PEARL_COMMON_EXPECTED_HPP

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
    JobFailed,       //!< a sweep job raised an unclassified exception
};

/** Stable string form of an ErrorCode (logs, job results). */
inline const char *
toString(ErrorCode code)
{
    switch (code) {
    case ErrorCode::None: return "none";
    case ErrorCode::InvalidConfig: return "invalid_config";
    case ErrorCode::InvalidArgument: return "invalid_argument";
    case ErrorCode::InvalidState: return "invalid_state";
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

/** Success-or-Error result: the canonical return type of `validate()`
 *  entry points. */
class Validation
{
  public:
    Validation() = default;                           //!< success
    Validation(Error err) : error_(std::move(err)) {} // NOLINT(google-explicit-constructor)

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
