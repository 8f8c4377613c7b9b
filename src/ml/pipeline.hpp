/**
 * @file
 * The offline ML training pipeline (Section IV-A).
 *
 * Reproduces the paper's procedure:
 *  1. collect features over the 36 training pairs with *random*
 *     wavelength states (so no policy biases the data);
 *  2. fit ridge models over a lambda grid, tune lambda on the 4
 *     validation pairs (NRMSE);
 *  3. second pass: re-collect training data with the first model driving
 *     the wavelength states ("designed to best mimic the testing
 *     environment"), refit;
 *  4. evaluate NRMSE and state-selection accuracy on the 16 test pairs.
 */

#ifndef PEARL_ML_PIPELINE_HPP
#define PEARL_ML_PIPELINE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/arch_config.hpp"
#include "core/dba.hpp"
#include "core/power_policy.hpp"
#include "core/system.hpp"
#include "ml/collector.hpp"
#include "ml/policy.hpp"
#include "ml/ridge.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace ml {

/** Pipeline configuration. */
struct PipelineConfig
{
    std::uint64_t reservationWindow = 500;
    std::uint64_t simCycles = 40000;     //!< cycles per benchmark pair
    std::vector<double> lambdaGrid = {1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3};
    bool secondPass = true;
    std::uint64_t seed = 7;
    int maxTrainPairs = 0;               //!< 0 = use all 36
    int maxValPairs = 0;                 //!< 0 = use all 4

    core::PearlConfig pearl;             //!< RW is overridden per run
    core::SystemConfig system;
    core::DbaConfig dba;
    MlPolicyConfig policy;               //!< 8WL excluded during training
};

/** Result of the training pipeline. */
struct PipelineResult
{
    RidgeRegression model;
    double bestLambda = 0.0;
    double validationNrmse = 0.0;
    std::size_t trainSamples = 0;
    std::size_t valSamples = 0;
};

/** Offline evaluation of a trained model on a dataset. */
struct EvalResult
{
    double nrmse = 0.0;
    /** Fraction of windows where the state chosen from the prediction
     *  matches the state the true label would have chosen (Eq. 7). */
    double stateAccuracy = 0.0;
    /** Same, counting only windows whose true demand needs 64 WL. */
    double topStateAccuracy = 0.0;
    std::size_t samples = 0;
};

/**
 * Orchestrates data collection, fitting and evaluation.  Every pass
 * collects its pairs concurrently on the job loop (`common/parallel.hpp`,
 * PEARL_THREADS wide) and appends the datasets in pair order, so the
 * trained model is byte-identical at any thread count.
 */
class TrainingPipeline
{
  public:
    TrainingPipeline(const traffic::BenchmarkSuite &suite,
                     PipelineConfig cfg);

    /** Run the full train/validate procedure. */
    PipelineResult run();

    /**
     * Simulate one benchmark pair under `policy` and return the window
     * dataset labelled with `label`.
     */
    Dataset collect(const traffic::BenchmarkPair &pair,
                    core::PowerPolicy &policy, std::uint64_t seed,
                    LabelKind label = LabelKind::InjectedPackets) const;

    /**
     * Collect every pair concurrently: pair i runs with seed
     * first_seed + 1 + i under its own policy from make_policy(), and
     * the datasets are appended in pair order.  make_policy is called
     * from job threads, so it may capture only immutable state.
     */
    Dataset collectAll(
        const std::vector<traffic::BenchmarkPair> &pairs,
        std::uint64_t first_seed,
        const std::function<std::unique_ptr<core::PowerPolicy>()>
            &make_policy,
        LabelKind label = LabelKind::InjectedPackets) const;

    /**
     * collectAll() under random wavelength states: the dataset equals
     * one copy of `stream` collecting the pairs one after another.
     * Pair i starts from `stream` advanced by i times
     * core::PearlNetwork::windowDecisions(pearl, simCycles) draws, and
     * must end where pair i + 1 starts (checked).
     */
    Dataset collectRandom(const std::vector<traffic::BenchmarkPair> &pairs,
                          std::uint64_t first_seed,
                          const core::RandomPolicy &stream,
                          LabelKind label = LabelKind::InjectedPackets) const;

    /** Evaluate a model on a dataset with Equation 7 state selection. */
    EvalResult evaluate(const RidgeRegression &model,
                        const Dataset &data) const;

    const PipelineConfig &config() const { return cfg_; }

  private:
    const traffic::BenchmarkSuite &suite_;
    PipelineConfig cfg_;
};

} // namespace ml
} // namespace pearl

#endif // PEARL_ML_PIPELINE_HPP
