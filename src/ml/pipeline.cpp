#include "ml/pipeline.hpp"

#include "common/log.hpp"
#include "core/network.hpp"
#include "photonic/power_model.hpp"

namespace pearl {
namespace ml {

using traffic::BenchmarkPair;

TrainingPipeline::TrainingPipeline(const traffic::BenchmarkSuite &suite,
                                   PipelineConfig cfg)
    : suite_(suite), cfg_(std::move(cfg))
{
    cfg_.pearl.reservationWindow = cfg_.reservationWindow;
}

Dataset
TrainingPipeline::collect(const BenchmarkPair &pair,
                          core::PowerPolicy &policy, std::uint64_t seed,
                          LabelKind label) const
{
    const photonic::PowerModel power;
    core::PearlNetwork net(cfg_.pearl, power, cfg_.dba, &policy);

    WindowDatasetCollector collector(net.numNodes(), cfg_.pearl.l3Node,
                                     label);
    net.setWindowCollector(collector.callback());

    core::SystemConfig sys = cfg_.system;
    sys.seed = seed;
    core::HeteroSystem system(
        net, pair, sys,
        [&net](int node) { return &net.telemetryOf(node); });

    system.run(cfg_.simCycles);
    return collector.takeDataset();
}

Dataset
TrainingPipeline::collectAll(const std::vector<BenchmarkPair> &pairs,
                             core::PowerPolicy &policy) const
{
    Dataset all;
    std::uint64_t seed = cfg_.seed;
    for (const auto &pair : pairs)
        all.append(collect(pair, policy, ++seed));
    return all;
}

EvalResult
TrainingPipeline::evaluate(const RidgeRegression &model,
                           const Dataset &data) const
{
    EvalResult result;
    result.samples = data.size();
    if (data.empty())
        return result;

    const std::vector<double> predicted = model.predictAll(data);
    result.nrmse = nrmseFit(data.labels, predicted);

    std::size_t agree = 0;
    std::size_t top_total = 0, top_agree = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const auto chosen = MlPowerPolicy::stateForDemand(
            std::max(0.0, predicted[i]), cfg_.reservationWindow,
            cfg_.policy);
        const auto truth = MlPowerPolicy::stateForDemand(
            std::max(0.0, data.labels[i]), cfg_.reservationWindow,
            cfg_.policy);
        if (chosen == truth)
            ++agree;
        if (truth == photonic::WlState::WL64) {
            ++top_total;
            if (chosen == photonic::WlState::WL64)
                ++top_agree;
        }
    }
    result.stateAccuracy =
        static_cast<double>(agree) / static_cast<double>(data.size());
    result.topStateAccuracy =
        top_total ? static_cast<double>(top_agree) /
                        static_cast<double>(top_total)
                  : 1.0;
    return result;
}

namespace {

/** Fit over the lambda grid, keep the model with the best val NRMSE. */
std::pair<RidgeRegression, double>
fitWithGrid(const Dataset &train, const Dataset &val,
            const std::vector<double> &grid)
{
    RidgeRegression best;
    double best_nrmse = -1e300;
    for (double lambda : grid) {
        RidgeRegression model;
        model.fit(train, lambda);
        const double score =
            nrmseFit(val.labels, model.predictAll(val));
        if (score > best_nrmse) {
            best_nrmse = score;
            best = std::move(model);
        }
    }
    return {std::move(best), best_nrmse};
}

template <typename Vec>
Vec
truncated(Vec v, int max_items)
{
    if (max_items > 0 && static_cast<int>(v.size()) > max_items)
        v.resize(static_cast<std::size_t>(max_items));
    return v;
}

} // namespace

PipelineResult
TrainingPipeline::run()
{
    const auto train_pairs =
        truncated(suite_.trainingPairs(), cfg_.maxTrainPairs);
    const auto val_pairs =
        truncated(suite_.validationPairs(), cfg_.maxValPairs);

    // Pass 1: random wavelength states (8WL excluded, Section IV-B).
    Rng rng(cfg_.seed);
    core::RandomPolicy random_policy(rng.fork(), /*include8_wl=*/false);
    Dataset train = collectAll(train_pairs, random_policy);
    Dataset val = collectAll(val_pairs, random_policy);
    PEARL_ASSERT(!train.empty() && !val.empty(),
                 "data collection produced no windows; "
                 "increase simCycles or shrink the reservation window");

    auto [model, val_nrmse] = fitWithGrid(train, val, cfg_.lambdaGrid);

    if (cfg_.secondPass) {
        // Pass 2: collect under the first model's policy so training
        // matches the deployment distribution, then refit.
        MlPolicyConfig pol = cfg_.policy;
        pol.enable8Wl = false;
        MlPowerPolicy ml_policy(&model, pol);
        Dataset train2 = collectAll(train_pairs, ml_policy);
        Dataset val2 = collectAll(val_pairs, ml_policy);
        auto [model2, val2_nrmse] =
            fitWithGrid(train2, val2, cfg_.lambdaGrid);
        model = std::move(model2);
        val_nrmse = val2_nrmse;
        train = std::move(train2);
        val = std::move(val2);
    }

    PipelineResult result;
    result.bestLambda = model.lambda();
    result.validationNrmse = val_nrmse;
    result.trainSamples = train.size();
    result.valSamples = val.size();
    result.model = std::move(model);
    return result;
}

} // namespace ml
} // namespace pearl
