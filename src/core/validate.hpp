/**
 * @file
 * Validation entry points for the user-facing core configuration
 * structs (DESIGN.md "Resilience").
 *
 * Each `validate()` checks every field a user can set against the
 * constraints the simulator otherwise only enforces via PEARL_ASSERT
 * (or not at all: several bad values — a zero reservation window, a
 * negative buffer depth — previously produced wrong numbers or UB
 * instead of a diagnostic).  Validators return a `Validation` (success
 * or an `Error`) with an actionable message naming the field, the
 * constraint and the offending value; they never log or abort, so
 * callers decide whether to throw (`throwIfInvalid`), record a
 * structured job failure, or print and exit.
 */

#ifndef PEARL_CORE_VALIDATE_HPP
#define PEARL_CORE_VALIDATE_HPP

#include "common/expected.hpp"
#include "core/arch_config.hpp"
#include "core/dba.hpp"
#include "core/power_policy.hpp"

namespace pearl {
namespace core {

/** Validate a PEARL network configuration (Tables I/II constraints,
 *  fault-plane and recovery knobs included). */
Validation validate(const PearlConfig &cfg);

/** Validate a dynamic-bandwidth-allocator configuration. */
Validation validate(const DbaConfig &cfg);

/** Validate reactive-scaler thresholds (must be a descending ladder
 *  within [0, 1]). */
Validation validate(const ReactiveThresholds &t);

} // namespace core
} // namespace pearl

#endif // PEARL_CORE_VALIDATE_HPP
