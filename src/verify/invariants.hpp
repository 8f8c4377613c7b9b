/**
 * @file
 * Runtime invariant checker for the PEARL network (verification plane).
 *
 * Invariants installs as a core::StepAuditor and, after every step(),
 * asserts properties that must hold no matter what the optimized cycle
 * loop does internally:
 *
 *  - packet conservation: every accepted packet is in exactly one place
 *    — injected equals delivered + dropped + buffered + in-flight +
 *    backoff-queued + the un-ACKed source copies that no longer have a
 *    live in-flight instance (a reinjection creates one instance and
 *    consumes one queued loss, so retransmissions cancel out);
 *  - buffer bounds: every inject/rx FlitBuffer's occupied slots stay
 *    within [0, capacity] and bound the packet count;
 *  - transmit-channel legality: credit only accumulates on an active
 *    channel past its reservation, never reaches a whole flit, and the
 *    remaining-flit count matches the head packet;
 *  - wavelength-state legality: at a window boundary the laser state
 *    honours the fault-capped ceiling;
 *  - monotone accounting: energy integrals never decrease and the cycle
 *    counter advances by exactly one between audited steps.
 *
 * A violation throws InvariantViolation.  Checks are meant for Debug
 * builds and PEARL_VERIFY=1 runs: runtimeChecksEnabled() defaults on
 * under !NDEBUG and off in Release, and metrics::runPearl consults it
 * before installing an auditor, so Release runs keep a bare null-test
 * hook in the hot path.
 */

#ifndef PEARL_VERIFY_INVARIANTS_HPP
#define PEARL_VERIFY_INVARIANTS_HPP

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/env.hpp"
#include "core/network.hpp"

namespace pearl {
namespace verify {

/** Thrown when a runtime invariant fails; message names the cycle. */
class InvariantViolation : public std::runtime_error
{
  public:
    explicit InvariantViolation(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * Pure conservation check over a counts snapshot; exposed separately so
 * tests can feed deliberately corrupted counts (the injected-bug drill)
 * without a live network.
 * @return the violation description, or nullopt when conserved.
 */
std::optional<std::string> checkConservation(const core::AuditCounts &c,
                                             bool faults_enabled);

/** True when runtime invariant checks should be installed: PEARL_VERIFY
 *  when set, else on in Debug builds and off in Release. */
inline bool
runtimeChecksEnabled()
{
#ifndef NDEBUG
    const bool fallback = true;
#else
    const bool fallback = false;
#endif
    return envBool("PEARL_VERIFY", fallback);
}

/** The runtime invariant checker (see file comment). */
class Invariants : public core::StepAuditor
{
  public:
    void afterStep(const core::PearlNetwork &net) override;

    /** Steps audited so far (tests assert the hook actually ran). */
    std::uint64_t stepsAudited() const { return steps_; }

  private:
    std::uint64_t steps_ = 0;
    bool seen_ = false;
    sim::Cycle prevCycle_ = 0;
    double prevLaserJ_ = 0.0;
    double prevTrimJ_ = 0.0;
    double prevDynJ_ = 0.0;
};

} // namespace verify
} // namespace pearl

#endif // PEARL_VERIFY_INVARIANTS_HPP
