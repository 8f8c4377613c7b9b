/**
 * @file
 * Wavelength-state (laser power) selection policies.
 *
 * At every reservation-window boundary each router asks its policy which
 * of the five wavelength states to run next.  Implementations:
 *  - StaticPolicy:   fixed state (the 64WL baseline and the static 32/16
 *                    configurations of Figure 5);
 *  - ReactivePolicy: Algorithm 1 steps 7-8 — thresholds on the window's
 *                    mean total buffer occupancy;
 *  - RandomPolicy:   uniformly random states, used for the first ML data-
 *                    collection pass (Section IV-A);
 *  - the ML policy lives in src/ml/ (ridge regression + Equation 7).
 */

#ifndef PEARL_CORE_POWER_POLICY_HPP
#define PEARL_CORE_POWER_POLICY_HPP

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "photonic/wl_state.hpp"
#include "sim/packet.hpp"
#include "sim/telemetry.hpp"

namespace pearl {
namespace core {

/**
 * Optional per-decision introspection record for the observability
 * plane.  When tracing is on, the network hangs one of these off the
 * WindowObservation; policies that compute a demand prediction (the ML
 * policy) fill it in so the trace can show *why* a state was picked.
 * A null pointer (the default) costs policies a single branch.
 */
struct DecisionTrace
{
    bool hasPrediction = false;
    /** Predicted packets injected next window (ML policy). */
    double predictedPackets = 0.0;
    /** The feature vector the prediction was made from (Table III). */
    std::vector<double> features;
};

/**
 * Guard-layer outcome of one decision, reported back to the network so
 * fallback transitions land in telemetry, NetworkStats and the trace.
 * Plain policies never touch it (`guarded` stays false); the guarded ML
 * wrapper (ml::GuardedPolicy) fills it on every window.
 */
struct PolicyFeedback
{
    bool guarded = false;         //!< a guard layer produced this decision
    bool fallbackActive = false;  //!< decision came from the fallback policy
    bool enteredFallback = false; //!< guard tripped at this boundary
    bool exitedFallback = false;  //!< guard recovered at this boundary
    bool clampedPrediction = false; //!< raw prediction was insane
    /** Windowed mean of the normalised prediction error in [0, 1]. */
    double windowError = 0.0;
};

/** Everything a policy may look at when picking the next state. */
struct WindowObservation
{
    int router = 0;                      //!< router id
    bool isL3Router = false;
    photonic::WlState currentState = photonic::WlState::WL64;
    /** Mean of Buf_omega (beta_CPU + beta_GPU, in [0,2]) over the window
     *  — Algorithm 1 step 7's beta_total. */
    double betaTotalMean = 0.0;
    /** The full telemetry of the window that just ended. */
    const sim::RouterTelemetry *telemetry = nullptr;
    std::uint64_t windowCycles = 0;
    sim::Cycle windowEnd = 0;
    /**
     * Highest state the router's surviving laser banks can sustain
     * (WL64 on a healthy fabric).  The network clamps whatever the
     * policy returns, but policies may use the ceiling to avoid wasting
     * a window commanding unavailable states.
     */
    photonic::WlState wlCeiling = photonic::WlState::WL64;
    /** Non-null only while tracing: policies record their prediction
     *  here for the wavelength trace events. */
    DecisionTrace *decision = nullptr;
    /** Non-null when the network wants guard-layer outcomes (fallback
     *  transitions) reported; plain policies ignore it. */
    PolicyFeedback *feedback = nullptr;
};

/** Per-router wavelength-state selection policy. */
class PowerPolicy
{
  public:
    virtual ~PowerPolicy() = default;

    /** Pick the wavelength state for the next reservation window. */
    virtual photonic::WlState nextState(const WindowObservation &obs) = 0;

    /** Human-readable policy name for result tables. */
    virtual const char *name() const = 0;
};

/** Fixed wavelength state. */
class StaticPolicy : public PowerPolicy
{
  public:
    explicit StaticPolicy(photonic::WlState state) : state_(state) {}

    photonic::WlState
    nextState(const WindowObservation &) override
    {
        return state_;
    }

    const char *name() const override { return "static"; }

  private:
    photonic::WlState state_;
};

/** Thresholds for the reactive scaler (Algorithm 1 step 8). */
struct ReactiveThresholds
{
    double upper = 0.80;    //!< beta_total above this -> 64 WL
    double midUpper = 0.45; //!< -> 48 WL
    double midLower = 0.22; //!< -> 32 WL
    double lower = 0.09;    //!< -> 16 WL; below -> 8 WL

    /** Whether the 8WL low state may be used (else 16WL is the floor). */
    bool enable8Wl = true;
};

/** Reactive buffer-occupancy power scaling (Algorithm 1 steps 7-8). */
class ReactivePolicy : public PowerPolicy
{
  public:
    explicit ReactivePolicy(const ReactiveThresholds &t = {}) : t_(t) {}

    photonic::WlState
    nextState(const WindowObservation &obs) override
    {
        const double beta = obs.betaTotalMean;
        if (beta > t_.upper)
            return photonic::WlState::WL64;
        if (beta > t_.midUpper)
            return photonic::WlState::WL48;
        if (beta > t_.midLower)
            return photonic::WlState::WL32;
        if (beta > t_.lower)
            return photonic::WlState::WL16;
        return t_.enable8Wl ? photonic::WlState::WL8
                            : photonic::WlState::WL16;
    }

    const char *name() const override { return "reactive"; }

    const ReactiveThresholds &thresholds() const { return t_; }

  private:
    ReactiveThresholds t_;
};

/** Uniformly random states (first ML data-collection pass). */
class RandomPolicy : public PowerPolicy
{
  public:
    /**
     * @param rng          forked stream.
     * @param include8Wl   include the 8WL state in the draw (the paper
     *                     excludes it during training).
     */
    explicit RandomPolicy(Rng rng, bool include8_wl = false)
        : rng_(rng), include8Wl_(include8_wl)
    {}

    photonic::WlState
    nextState(const WindowObservation &) override
    {
        const int lo = include8Wl_ ? 0 : 1;
        ++draws_;
        return photonic::stateFromIndex(
            static_cast<int>(rng_.range(lo, photonic::kNumWlStates - 1)));
    }

    /**
     * Advance the stream as `n` decisions would.  Exact, because each
     * decision takes one value: Rng::below() has no rejection loop.
     */
    void
    skip(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            rng_.next();
        draws_ += n;
    }

    /** Values taken from the stream so far, by decisions and skip(). */
    std::uint64_t draws() const { return draws_; }

    const char *name() const override { return "random"; }

  private:
    Rng rng_;
    bool include8Wl_;
    std::uint64_t draws_ = 0;
};

} // namespace core
} // namespace pearl

#endif // PEARL_CORE_POWER_POLICY_HPP
