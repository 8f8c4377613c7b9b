/**
 * @file
 * Online ridge regression via recursive least squares (RLS).
 *
 * The paper's conclusion names better prediction accuracy as the main
 * avenue for future work.  This extension keeps learning *after*
 * deployment: each closed reservation window contributes its
 * (features, realised packets) pair through the Sherman-Morrison rank-1
 * update, so the model tracks workload drift the offline model never
 * saw.  A forgetting factor < 1 exponentially discounts stale windows.
 *
 * The update is O(d^2) per window for d = 30 features — trivially
 * cheap next to a 500-cycle window — and the policy wrapper
 * (`OnlineMlPolicy`) predicts with the current weights, then feeds the
 * realised label back when the next window closes.
 */

#ifndef PEARL_ML_ONLINE_RIDGE_HPP
#define PEARL_ML_ONLINE_RIDGE_HPP

#include <optional>
#include <vector>

#include "common/log.hpp"
#include "core/power_policy.hpp"
#include "ml/features.hpp"
#include "ml/policy.hpp"
#include "ml/ridge.hpp"

namespace pearl {
namespace ml {

/** Recursive-least-squares ridge regression. */
class OnlineRidge
{
  public:
    /**
     * @param dims       feature dimensionality.
     * @param lambda     initial ridge strength (P = I/lambda).
     * @param forgetting exponential forgetting factor in (0, 1]; 1 means
     *                   remember everything.
     */
    explicit OnlineRidge(std::size_t dims, double lambda = 10.0,
                         double forgetting = 0.999);

    /**
     * Seed the weights (and bias) from an offline ridge model so the
     * online phase refines instead of restarting.  The offline model's
     * standardisation is folded into the weights.
     */
    void warmStart(const RidgeRegression &offline);

    /** Incorporate one observation. */
    void update(const std::vector<double> &x, double y);

    /** Predict the label for `x`. */
    double predict(const std::vector<double> &x) const;

    std::size_t dims() const { return dims_; }
    std::uint64_t updates() const { return updates_; }
    const std::vector<double> &weights() const { return w_; }
    double bias() const { return bias_; }

  private:
    std::size_t dims_;
    double forgetting_;
    std::vector<double> w_;      //!< weights over raw features
    double bias_ = 0.0;
    std::vector<double> p_;      //!< inverse covariance, row-major d x d
    std::uint64_t updates_ = 0;

    // Scratch buffers reused across updates.
    mutable std::vector<double> px_;
};

/**
 * Power policy that predicts with an OnlineRidge and feeds every closed
 * window back into it (predict-then-train, per router).
 *
 * It trains only on windows that could not have been throttled by the
 * chosen state: either the window ran at the full 64-wavelength state
 * or its mean input-buffer occupancy stayed under
 * kUnthrottledOccupancyBound.  Without this guard the model learns the
 * *throttled* injection counts as demand and drifts toward ever-lower
 * states (the online version of the label-contamination problem the
 * paper discusses for buffer utilization).
 */
class OnlineMlPolicy : public core::PowerPolicy
{
  public:
    /** Mean input-buffer occupancy below which a window trains the
     *  model whatever its wavelength state. */
    static constexpr double kUnthrottledOccupancyBound = 0.25;

    /**
     * @param model  shared online model (not owned; must outlive).
     * @param cfg    Equation 7 selection-rule configuration.
     */
    OnlineMlPolicy(OnlineRidge *model, int num_routers,
                   MlPolicyConfig cfg = MlPolicyConfig{})
        : model_(model), cfg_(cfg),
          lastFeatures_(static_cast<std::size_t>(num_routers))
    {
        PEARL_ASSERT(model_);
    }

    photonic::WlState
    nextState(const core::WindowObservation &obs) override
    {
        PEARL_ASSERT(obs.telemetry, "observation lacks telemetry");
        std::vector<double> x = FeatureExtractor::extract(
            *obs.telemetry, obs.windowCycles, obs.isL3Router);

        // Train on the previous window's features, labelled by this
        // window's realised injections — but only when the label is a
        // trustworthy demand signal (see the class comment).
        const double w = obs.windowCycles
                             ? static_cast<double>(obs.windowCycles)
                             : 1.0;
        const double mean_occupancy =
            (obs.telemetry->cpuCoreBufOccupancy +
             obs.telemetry->gpuCoreBufOccupancy) / w;
        const bool unthrottled =
            obs.telemetry->wavelengths >= 64 ||
            mean_occupancy < kUnthrottledOccupancyBound;
        auto &slot = lastFeatures_[static_cast<std::size_t>(obs.router)];
        if (slot && unthrottled) {
            model_->update(*slot, static_cast<double>(
                                      obs.telemetry->packetsInjected));
        }

        const double predicted = std::max(0.0, model_->predict(x));
        if (obs.decision) {
            obs.decision->hasPrediction = true;
            obs.decision->predictedPackets = predicted;
            obs.decision->features = x;
        }
        slot = std::move(x);
        return MlPowerPolicy::stateForDemand(predicted, obs.windowCycles,
                                             cfg_);
    }

    const char *name() const override { return "online-ml"; }

  private:
    OnlineRidge *model_;
    MlPolicyConfig cfg_;
    std::vector<std::optional<std::vector<double>>> lastFeatures_;
};

} // namespace ml
} // namespace pearl

#endif // PEARL_ML_ONLINE_RIDGE_HPP
