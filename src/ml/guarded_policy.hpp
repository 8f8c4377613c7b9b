/**
 * @file
 * Guardrails around the ML power policy (DESIGN.md "Resilience").
 *
 * The ridge model is trained offline; nothing stops a stale or badly
 * trained model from systematically under-predicting demand and parking
 * the fabric in a starving low-wavelength state.  `GuardedPolicy` wraps
 * `MlPowerPolicy` with three defenses, per router:
 *
 *  1. *Clamping*: a non-finite, negative or absurdly large prediction is
 *     clamped and the state recomputed from the clamped demand
 *     (Equation 7), so one bad inference never commands a nonsense
 *     state.
 *  2. *Online error tracking*: at every window boundary the previous
 *     window's prediction is compared against the packets actually
 *     injected (the same label the trainer uses); the normalised error
 *     `|pred - actual| / max(pred, actual, floor)` feeds a short sliding
 *     window.
 *  3. *Reactive fallback with hysteresis*: when the windowed mean error
 *     stays above `enterError` for `enterStreak` consecutive windows the
 *     router falls back to the paper's reactive threshold policy
 *     (Algorithm 1) — which needs no model — and returns to ML only
 *     after the (still shadow-evaluated) model's error stays below
 *     `exitError` for `exitStreak` windows.
 *
 * When the guard never trips, the chosen states — and therefore the run
 * metrics — are bit-identical to a bare `MlPowerPolicy` run: the wrapped
 * policy is evaluated exactly once per window either way, and neither
 * wrapper nor fallback consumes randomness.  The network reports
 * transitions through `core::PolicyFeedback` into telemetry,
 * NetworkStats and `policy_fallback` trace events.
 */

#ifndef PEARL_ML_GUARDED_POLICY_HPP
#define PEARL_ML_GUARDED_POLICY_HPP

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/expected.hpp"
#include "core/power_policy.hpp"
#include "ml/policy.hpp"

namespace pearl {
namespace ml {

/** Guardrail thresholds. */
struct GuardrailConfig
{
    /** Sliding-window length of per-window error samples. */
    int errorWindow = 8;
    /** Windowed mean error above this counts against the model. */
    double enterError = 0.70;
    /** Windowed mean error below this counts toward recovery. */
    double exitError = 0.40;
    /** Consecutive bad windows before falling back (K). */
    int enterStreak = 4;
    /** Consecutive good windows before returning to ML (hysteresis). */
    int exitStreak = 8;
    /** Error-normalisation floor in packets: tiny windows where both
     *  prediction and truth are a handful of packets never produce
     *  large relative errors. */
    double floorPackets = 8.0;
    /** Predictions above this many packets per window are insane for
     *  any supported configuration and are clamped. */
    double maxPredictedPackets = 1.0e6;
};

/** Validate guardrail thresholds. */
inline Validation
validate(const GuardrailConfig &cfg)
{
    if (cfg.errorWindow <= 0)
        return configError("guard.errorWindow must be > 0 windows, "
                           "got ", cfg.errorWindow);
    if (!std::isfinite(cfg.enterError) || cfg.enterError <= 0.0 ||
        cfg.enterError > 1.0)
        return configError("guard.enterError must be in (0, 1], got ",
                           cfg.enterError);
    if (!std::isfinite(cfg.exitError) || cfg.exitError < 0.0 ||
        cfg.exitError >= cfg.enterError)
        return configError("guard.exitError must be in [0, enterError) "
                           "for hysteresis, got ", cfg.exitError,
                           " with enterError=", cfg.enterError);
    if (cfg.enterStreak <= 0 || cfg.exitStreak <= 0)
        return configError("guard streaks must be > 0 windows, got "
                           "enter=", cfg.enterStreak, " exit=",
                           cfg.exitStreak);
    if (!std::isfinite(cfg.floorPackets) || cfg.floorPackets <= 0.0)
        return configError("guard.floorPackets must be > 0, got ",
                           cfg.floorPackets);
    if (!std::isfinite(cfg.maxPredictedPackets) ||
        cfg.maxPredictedPackets <= 0.0)
        return configError("guard.maxPredictedPackets must be > 0, "
                           "got ", cfg.maxPredictedPackets);
    return {};
}

/** MlPowerPolicy wrapped in clamping + error-tracked reactive fallback. */
class GuardedPolicy : public core::PowerPolicy
{
  public:
    /**
     * @param model      trained ridge model (not owned; must outlive).
     * @param ml_cfg     Equation 7 selection-rule configuration.
     * @param guard      guardrail thresholds (validated here).
     * @param reactive   fallback thresholds (Algorithm 1 step 8).
     */
    explicit GuardedPolicy(const RidgeRegression *model,
                           MlPolicyConfig ml_cfg = MlPolicyConfig{},
                           GuardrailConfig guard = GuardrailConfig{},
                           core::ReactiveThresholds reactive = {})
        : ml_(model, ml_cfg), reactive_(reactive), cfg_(guard)
    {
        throwIfInvalid(ml::validate(cfg_));
    }

    photonic::WlState
    nextState(const core::WindowObservation &obs) override
    {
        RouterGuard &g = guardFor(obs.router);

        // Always evaluate (shadow-run) the ML policy: when healthy its
        // decision is used verbatim, and during fallback its error keeps
        // being scored so recovery is possible.  The decision trace is
        // forwarded so traced runs still show the prediction.
        core::WindowObservation ml_obs = obs;
        core::DecisionTrace decision;
        ml_obs.decision = &decision;
        ml_obs.feedback = nullptr;
        photonic::WlState ml_state = ml_.nextState(ml_obs);
        if (obs.decision)
            *obs.decision = decision;

        // Defense 1: clamp an insane prediction and recompute Eq. 7.
        double pred = decision.predictedPackets;
        bool clamped = false;
        if (!std::isfinite(pred) || pred < 0.0) {
            pred = 0.0;
            clamped = true;
        } else if (pred > cfg_.maxPredictedPackets) {
            pred = cfg_.maxPredictedPackets;
            clamped = true;
        }
        if (clamped)
            ml_state = MlPowerPolicy::stateForDemand(
                pred, obs.windowCycles, ml_.config());

        // Defense 2: score the *previous* window's prediction against
        // the injections that actually happened (obs.telemetry covers
        // the window that just closed).
        if (g.hasPrediction && obs.telemetry) {
            const double actual = static_cast<double>(
                obs.telemetry->packetsInjected);
            const double denom = std::max(
                {g.lastPrediction, actual, cfg_.floorPackets});
            g.pushError(
                std::min(1.0, std::abs(g.lastPrediction - actual) /
                                  denom),
                cfg_.errorWindow);
        }
        g.lastPrediction = pred;
        g.hasPrediction = true;

        // Defense 3: hysteresis between ML and the reactive fallback.
        bool entered = false;
        bool exited = false;
        if (g.sampleCount() >= cfg_.errorWindow) {
            const double err = g.meanError();
            if (err > cfg_.enterError) {
                ++g.badStreak;
                g.goodStreak = 0;
            } else if (err < cfg_.exitError) {
                ++g.goodStreak;
                g.badStreak = 0;
            } else {
                g.badStreak = 0;
                g.goodStreak = 0;
            }
            if (!g.fallback && g.badStreak >= cfg_.enterStreak) {
                g.fallback = true;
                g.goodStreak = 0;
                entered = true;
            } else if (g.fallback && g.goodStreak >= cfg_.exitStreak) {
                g.fallback = false;
                g.badStreak = 0;
                exited = true;
            }
        }

        if (obs.feedback) {
            obs.feedback->guarded = true;
            obs.feedback->fallbackActive = g.fallback;
            obs.feedback->enteredFallback = entered;
            obs.feedback->exitedFallback = exited;
            obs.feedback->clampedPrediction = clamped;
            obs.feedback->windowError = g.meanError();
        }

        return g.fallback ? reactive_.nextState(obs) : ml_state;
    }

    const char *name() const override { return "guarded-ml"; }

    const GuardrailConfig &guardrails() const { return cfg_; }

    /** Whether router `r`'s guard is currently in fallback. */
    bool
    inFallback(int router) const
    {
        return router < static_cast<int>(guards_.size()) &&
               guards_[static_cast<std::size_t>(router)].fallback;
    }

  private:
    /** Per-router guard state (routers are observed independently). */
    struct RouterGuard
    {
        double lastPrediction = 0.0;
        bool hasPrediction = false;
        std::vector<double> errors; //!< ring buffer of error samples
        int errorNext = 0;          //!< ring write cursor
        double errorSum = 0.0;
        int badStreak = 0;
        int goodStreak = 0;
        bool fallback = false;

        void
        pushError(double e, int window)
        {
            if (static_cast<int>(errors.size()) < window) {
                errors.push_back(e);
                errorSum += e;
                return;
            }
            errorSum += e - errors[static_cast<std::size_t>(errorNext)];
            errors[static_cast<std::size_t>(errorNext)] = e;
            errorNext = (errorNext + 1) % window;
        }

        int sampleCount() const
        {
            return static_cast<int>(errors.size());
        }

        double
        meanError() const
        {
            return errors.empty()
                       ? 0.0
                       : errorSum /
                             static_cast<double>(errors.size());
        }
    };

    RouterGuard &
    guardFor(int router)
    {
        if (router >= static_cast<int>(guards_.size()))
            guards_.resize(static_cast<std::size_t>(router) + 1);
        return guards_[static_cast<std::size_t>(router)];
    }

    MlPowerPolicy ml_;
    core::ReactivePolicy reactive_;
    GuardrailConfig cfg_;
    std::vector<RouterGuard> guards_;
};

} // namespace ml
} // namespace pearl

#endif // PEARL_ML_GUARDED_POLICY_HPP
