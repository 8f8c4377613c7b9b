/**
 * @file
 * Tests of the ML training pipeline (data collection, lambda selection,
 * evaluation).  Uses reduced pair counts and short runs to stay fast.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "ml/pipeline.hpp"

namespace pearl {
namespace ml {
namespace {

PipelineConfig
smallConfig()
{
    PipelineConfig cfg;
    cfg.reservationWindow = 250;
    cfg.simCycles = 4000;
    cfg.maxTrainPairs = 2;
    cfg.maxValPairs = 1;
    cfg.secondPass = false;
    cfg.lambdaGrid = {0.1, 10.0};
    return cfg;
}

TEST(Pipeline, CollectsLabelledWindows)
{
    traffic::BenchmarkSuite suite;
    TrainingPipeline pipe(suite, smallConfig());
    core::StaticPolicy policy(photonic::WlState::WL64);
    const auto data = pipe.collect(
        traffic::BenchmarkPair{suite.find("FA"), suite.find("DCT")},
        policy, 3);
    // 4000 cycles / 250-cycle windows = ~16 windows per router, minus
    // the first unlabelled one, times 17 routers.
    EXPECT_GT(data.size(), 17u * 10u);
    EXPECT_EQ(data.features.front().size(),
              static_cast<std::size_t>(kNumFeatures));
}

TEST(Pipeline, RunTrainsAModel)
{
    traffic::BenchmarkSuite suite;
    TrainingPipeline pipe(suite, smallConfig());
    const auto result = pipe.run();
    EXPECT_TRUE(result.model.trained());
    EXPECT_GT(result.trainSamples, 100u);
    EXPECT_GT(result.valSamples, 10u);
    EXPECT_TRUE(result.bestLambda == 0.1 || result.bestLambda == 10.0);
    // The model should beat the mean predictor on validation data.
    EXPECT_GT(result.validationNrmse, -1.0);
}

TEST(Pipeline, EvaluateComputesAccuracy)
{
    traffic::BenchmarkSuite suite;
    TrainingPipeline pipe(suite, smallConfig());
    const auto result = pipe.run();
    core::StaticPolicy policy(photonic::WlState::WL64);
    const auto test_data = pipe.collect(
        traffic::BenchmarkPair{suite.find("Rad"), suite.find("QRS")},
        policy, 11);
    const auto eval = pipe.evaluate(result.model, test_data);
    EXPECT_EQ(eval.samples, test_data.size());
    EXPECT_GE(eval.stateAccuracy, 0.0);
    EXPECT_LE(eval.stateAccuracy, 1.0);
    EXPECT_GE(eval.topStateAccuracy, 0.0);
    EXPECT_LE(eval.topStateAccuracy, 1.0);
}

TEST(Pipeline, SecondPassRefits)
{
    traffic::BenchmarkSuite suite;
    PipelineConfig cfg = smallConfig();
    cfg.secondPass = true;
    TrainingPipeline pipe(suite, cfg);
    const auto result = pipe.run();
    EXPECT_TRUE(result.model.trained());
}

/** Fit over the lambda grid and keep the best validation NRMSE, as
 *  run() does. */
std::pair<RidgeRegression, double>
fitBest(const Dataset &train, const Dataset &val,
        const std::vector<double> &grid)
{
    RidgeRegression best;
    double best_nrmse = -1e300;
    for (double lambda : grid) {
        RidgeRegression model;
        model.fit(train, lambda);
        const double score = nrmseFit(val.labels, model.predictAll(val));
        if (score > best_nrmse) {
            best_nrmse = score;
            best = std::move(model);
        }
    }
    return {std::move(best), best_nrmse};
}

/**
 * run()'s procedure, one pair after another through the public
 * collect(), with one RandomPolicy drawing every pass-1 state and one
 * MlPowerPolicy deciding every pass-2 window.
 */
PipelineResult
serialReference(const traffic::BenchmarkSuite &suite,
                const PipelineConfig &cfg)
{
    const TrainingPipeline pipe(suite, cfg);
    auto train_pairs = suite.trainingPairs();
    train_pairs.resize(static_cast<std::size_t>(cfg.maxTrainPairs));
    auto val_pairs = suite.validationPairs();
    val_pairs.resize(static_cast<std::size_t>(cfg.maxValPairs));
    const auto collect_all = [&](const auto &pairs,
                                 core::PowerPolicy &policy) {
        Dataset all;
        std::uint64_t seed = cfg.seed;
        for (const auto &pair : pairs)
            all.append(pipe.collect(pair, policy, ++seed));
        return all;
    };

    Rng rng(cfg.seed);
    core::RandomPolicy random(rng.fork(), /*include8_wl=*/false);
    Dataset train = collect_all(train_pairs, random);
    Dataset val = collect_all(val_pairs, random);
    auto [model, nrmse] = fitBest(train, val, cfg.lambdaGrid);

    MlPolicyConfig pol = cfg.policy;
    pol.enable8Wl = false;
    MlPowerPolicy ml_policy(&model, pol);
    train = collect_all(train_pairs, ml_policy);
    val = collect_all(val_pairs, ml_policy);
    auto [model2, nrmse2] = fitBest(train, val, cfg.lambdaGrid);

    PipelineResult result;
    result.model = std::move(model2);
    result.bestLambda = result.model.lambda();
    result.validationNrmse = nrmse2;
    result.trainSamples = train.size();
    result.valSamples = val.size();
    return result;
}

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectBitIdentical(const PipelineResult &got, const PipelineResult &want)
{
    EXPECT_EQ(got.trainSamples, want.trainSamples);
    EXPECT_EQ(got.valSamples, want.valSamples);
    EXPECT_EQ(bitsOf(got.bestLambda), bitsOf(want.bestLambda));
    EXPECT_EQ(bitsOf(got.validationNrmse), bitsOf(want.validationNrmse));
    EXPECT_EQ(bitsOf(got.model.intercept()),
              bitsOf(want.model.intercept()));
    ASSERT_EQ(got.model.weights().size(), want.model.weights().size());
    for (std::size_t j = 0; j < want.model.weights().size(); ++j)
        EXPECT_EQ(bitsOf(got.model.weights()[j]),
                  bitsOf(want.model.weights()[j]))
            << "weight " << j;
}

/** Sets PEARL_THREADS for one scope and restores it after. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(unsigned threads)
    {
        if (const char *v = std::getenv("PEARL_THREADS"))
            saved_ = v;
        setenv("PEARL_THREADS", std::to_string(threads).c_str(), 1);
    }
    ~ScopedThreads()
    {
        if (saved_)
            setenv("PEARL_THREADS", saved_->c_str(), 1);
        else
            unsetenv("PEARL_THREADS");
    }
    ScopedThreads(const ScopedThreads &) = delete;
    ScopedThreads &operator=(const ScopedThreads &) = delete;

  private:
    std::optional<std::string> saved_;
};

// Both passes collect their pairs concurrently, pass 1 from one random
// stream that each job skips ahead in.  The trained model must equal
// the serial shared-stream procedure's bit for bit at any thread count,
// whatever the window schedule: RW dividing the run or not, RW above
// half the run, and window staggers of 0, 10 and 37 cycles (37 r wraps
// past RW 250 from router 7 on).
TEST(Pipeline, ConcurrentRunMatchesSharedStreamReference)
{
    struct Case
    {
        std::uint64_t rw;
        std::uint64_t cycles;
        int offset;
    };
    const traffic::BenchmarkSuite suite;
    for (const Case c : {Case{250, 4000, 10}, Case{700, 3000, 10},
                         Case{1600, 3000, 10}, Case{250, 2500, 0},
                         Case{700, 3000, 37}, Case{250, 3000, 37}}) {
        PipelineConfig cfg = smallConfig();
        cfg.reservationWindow = c.rw;
        cfg.simCycles = c.cycles;
        cfg.pearl.windowOffsetPerRouter = c.offset;
        cfg.maxTrainPairs = 2;
        cfg.maxValPairs = 1;
        cfg.secondPass = true;
        SCOPED_TRACE("RW " + std::to_string(c.rw) + ", " +
                     std::to_string(c.cycles) + " cycles, offset " +
                     std::to_string(c.offset));

        const PipelineResult want = serialReference(suite, cfg);
        ASSERT_TRUE(want.model.trained());
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(std::to_string(threads) + " threads");
            const ScopedThreads scoped(threads);
            expectBitIdentical(TrainingPipeline(suite, cfg).run(), want);
        }
    }
}

void
expectSameData(const Dataset &got, const Dataset &want)
{
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(got.features.size(), want.features.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(bitsOf(got.labels[i]), bitsOf(want.labels[i]))
            << "sample " << i;
        ASSERT_EQ(got.features[i].size(), want.features[i].size());
        for (std::size_t j = 0; j < want.features[i].size(); ++j)
            EXPECT_EQ(bitsOf(got.features[i][j]),
                      bitsOf(want.features[i][j]))
                << "sample " << i << ", feature " << j;
    }
}

// The public batch entry points: collectRandom() must give the dataset
// of one stream collecting the pairs one after another, from a stream
// that has already drawn, and collectAll() that of a serial loop with
// the same seeds, at any thread count.
TEST(Pipeline, ConcurrentCollectionsMatchSerialCollect)
{
    const traffic::BenchmarkSuite suite;
    PipelineConfig cfg = smallConfig();
    cfg.reservationWindow = 700;
    cfg.simCycles = 2500;
    const TrainingPipeline pipe(suite, cfg);
    auto pairs = suite.trainingPairs();
    pairs.resize(3);
    const std::uint64_t first_seed = 10;

    core::RandomPolicy stream(Rng(42), /*include8_wl=*/false);
    stream.skip(5);
    Dataset want_random, want_static;
    {
        core::RandomPolicy shared = stream;
        core::StaticPolicy wl32(photonic::WlState::WL32);
        std::uint64_t seed = first_seed;
        for (const auto &pair : pairs) {
            ++seed;
            want_random.append(pipe.collect(
                pair, shared, seed, LabelKind::BufferUtilization));
            want_static.append(pipe.collect(pair, wl32, seed));
        }
    }
    ASSERT_FALSE(want_random.empty());

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        const ScopedThreads scoped(threads);
        expectSameData(pipe.collectRandom(pairs, first_seed, stream,
                                          LabelKind::BufferUtilization),
                       want_random);
        expectSameData(pipe.collectAll(pairs, first_seed,
                                       [] {
                                           return std::make_unique<
                                               core::StaticPolicy>(
                                               photonic::WlState::WL32);
                                       }),
                       want_static);
    }
}

} // namespace
} // namespace ml
} // namespace pearl
