#include "ml/pipeline.hpp"

#include <variant>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "core/network.hpp"
#include "photonic/power_model.hpp"

namespace pearl {
namespace ml {

using traffic::BenchmarkPair;

namespace {

/** One collection of a batch: a pair and the system seed it runs with. */
struct Collection
{
    const BenchmarkPair *pair;
    std::uint64_t seed;
};

/** pairs[i] with seed first_seed + 1 + i, added to the end of `batch`. */
void
addPairs(std::vector<Collection> &batch,
         const std::vector<BenchmarkPair> &pairs, std::uint64_t first_seed)
{
    for (std::size_t i = 0; i < pairs.size(); ++i)
        batch.push_back({&pairs[i], first_seed + 1 + i});
}

/**
 * Where a batch's policies come from: one random stream that the
 * collections draw from in batch order, or a fresh policy per
 * collection.
 */
using PolicySource =
    std::variant<core::RandomPolicy,
                 std::function<std::unique_ptr<core::PowerPolicy>()>>;

/**
 * Every collection of `batch` on the job loop, one job each; the
 * datasets come back in batch order.  Under a random stream, collection
 * k runs on a copy of the stream advanced past the k collections before
 * it.  Every collection makes the same windowDecisions() draws, so that
 * is where one shared copy would stand after collecting them one after
 * another; the assert catches a window schedule that no longer matches
 * the count.
 */
std::vector<Dataset>
collectBatch(const TrainingPipeline &pipe,
             const std::vector<Collection> &batch,
             const PolicySource &source, LabelKind label)
{
    std::vector<Dataset> slots(batch.size());
    forEachIndex(batch.size(), resolveThreads(0), [&](std::size_t k) {
        const Collection &c = batch[k];
        const auto *stream = std::get_if<core::RandomPolicy>(&source);
        if (stream) {
            const PipelineConfig &cfg = pipe.config();
            const std::uint64_t per_pair =
                core::PearlNetwork::windowDecisions(cfg.pearl,
                                                    cfg.simCycles);
            core::RandomPolicy policy = *stream;
            policy.skip(k * per_pair);
            slots[k] = pipe.collect(*c.pair, policy, c.seed, label);
            const std::uint64_t end = stream->draws() + (k + 1) * per_pair;
            PEARL_ASSERT(policy.draws() == end, "random-state collection ",
                         k, " ended at draw ", policy.draws(), ", not ",
                         end, ": windowDecisions() no longer matches "
                              "stage 5");
        } else {
            const std::unique_ptr<core::PowerPolicy> policy =
                std::get<1>(source)();
            PEARL_ASSERT(policy, "the policy maker returned no policy "
                                 "for collection ", k);
            slots[k] = pipe.collect(*c.pair, *policy, c.seed, label);
        }
    });
    return slots;
}

/** slots[begin, end) appended in order. */
Dataset
appended(const std::vector<Dataset> &slots, std::size_t begin,
         std::size_t end)
{
    Dataset all;
    for (std::size_t k = begin; k < end; ++k)
        all.append(slots[k]);
    return all;
}

} // namespace

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
TrainingPipeline::collectAll(
    const std::vector<BenchmarkPair> &pairs, std::uint64_t first_seed,
    const std::function<std::unique_ptr<core::PowerPolicy>()> &make_policy,
    LabelKind label) const
{
    std::vector<Collection> batch;
    addPairs(batch, pairs, first_seed);
    return appended(collectBatch(*this, batch, make_policy, label), 0,
                    batch.size());
}

Dataset
TrainingPipeline::collectRandom(const std::vector<BenchmarkPair> &pairs,
                                std::uint64_t first_seed,
                                const core::RandomPolicy &stream,
                                LabelKind label) const
{
    std::vector<Collection> batch;
    addPairs(batch, pairs, first_seed);
    return appended(collectBatch(*this, batch, stream, label), 0,
                    batch.size());
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

    // Each pass collects the training pairs, then the validation pairs,
    // as one batch; pair i of either list runs with seed seed + 1 + i.
    std::vector<Collection> batch;
    addPairs(batch, train_pairs, cfg_.seed);
    addPairs(batch, val_pairs, cfg_.seed);
    const std::size_t n_train = train_pairs.size();

    // Pass 1: random wavelength states (8WL excluded, Section IV-B),
    // drawn from one stream across the whole batch.
    Rng rng(cfg_.seed);
    std::vector<Dataset> slots = collectBatch(
        *this, batch, core::RandomPolicy(rng.fork(), /*include8_wl=*/false),
        LabelKind::InjectedPackets);
    Dataset train = appended(slots, 0, n_train);
    Dataset val = appended(slots, n_train, slots.size());
    PEARL_ASSERT(!train.empty() && !val.empty(),
                 "data collection produced no windows; "
                 "increase simCycles or shrink the reservation window");

    auto [model, val_nrmse] = fitWithGrid(train, val, cfg_.lambdaGrid);

    if (cfg_.secondPass) {
        // Pass 2: collect under the first model's policy so training
        // matches the deployment distribution, then refit.  Each job
        // has its own policy over the shared, read-only model.
        MlPolicyConfig pol = cfg_.policy;
        pol.enable8Wl = false;
        const RidgeRegression *first = &model;
        slots = collectBatch(
            *this, batch,
            [first, pol] {
                return std::make_unique<MlPowerPolicy>(first, pol);
            },
            LabelKind::InjectedPackets);
        Dataset train2 = appended(slots, 0, n_train);
        Dataset val2 = appended(slots, n_train, slots.size());
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
