/**
 * @file
 * Tests of the guarded ML policy (ml::GuardedPolicy): clamping of insane
 * predictions, fallback on sustained online error, hysteresis recovery,
 * zero-degradation byte-identity against the bare ML policy, and the
 * fallback counters / trace events of a full guarded run.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/sweep.hpp"
#include "ml/features.hpp"
#include "ml/guarded_policy.hpp"
#include "ml/pipeline.hpp"
#include "ml/policy.hpp"
#include "obs/trace.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace ml {
namespace {

/**
 * Fit a model that predicts (approximately) `value` for any input:
 * heavy regularisation drives the weights to zero and the unregularised
 * intercept absorbs the label mean.
 */
RidgeRegression
constantModel(double value)
{
    Dataset data;
    for (int i = 0; i < 8; ++i) {
        std::vector<double> x(kNumFeatures, 0.0);
        x[0] = static_cast<double>(i % 2); // non-degenerate feature
        data.add(std::move(x), value);
    }
    RidgeRegression model;
    model.fit(data, 1e9);
    return model;
}

/** One synthetic boundary observation: `injected` packets closed the
 *  window, `beta` is the mean buffer occupancy the fallback sees. */
core::WindowObservation
makeObs(const sim::RouterTelemetry &t, double beta,
        core::PolicyFeedback *fb)
{
    core::WindowObservation obs;
    obs.router = 0;
    obs.telemetry = &t;
    obs.windowCycles = 500;
    obs.betaTotalMean = beta;
    obs.feedback = fb;
    return obs;
}

/** Drive `windows` boundaries with a fixed actual-injection count. */
core::PolicyFeedback
driveWindows(GuardedPolicy &policy, sim::RouterTelemetry &t,
             std::uint64_t injected, double beta, int windows)
{
    core::PolicyFeedback fb;
    for (int i = 0; i < windows; ++i) {
        t.reset();
        t.packetsInjected = injected;
        fb = {};
        policy.nextState(makeObs(t, beta, &fb));
    }
    return fb;
}

TEST(Guardrails, MatchesBareMlWhileAccurate)
{
    // Prediction == actual: the guard observes zero error and the chosen
    // states must equal the bare ML policy's, window for window.
    const RidgeRegression model = constantModel(200.0);
    MlPowerPolicy bare(&model);
    GuardedPolicy guarded(&model);

    sim::RouterTelemetry t;
    for (int i = 0; i < 40; ++i) {
        t.reset();
        t.packetsInjected = 200;
        core::PolicyFeedback fb;
        const core::WindowObservation obs = makeObs(t, 0.5, &fb);
        const photonic::WlState g = guarded.nextState(obs);
        core::WindowObservation bare_obs = obs;
        bare_obs.feedback = nullptr;
        EXPECT_EQ(g, bare.nextState(bare_obs)) << "window " << i;
        EXPECT_TRUE(fb.guarded);
        EXPECT_FALSE(fb.fallbackActive);
        EXPECT_FALSE(fb.clampedPrediction);
    }
    EXPECT_FALSE(guarded.inFallback(0));
}

TEST(Guardrails, SustainedErrorTriggersFallback)
{
    // The model predicts ~0 packets while 2000 arrive every window:
    // normalised error pins at 1.0, and after errorWindow samples +
    // enterStreak bad windows the router must fall back to the reactive
    // policy (which picks WL64 at beta 1.8, where starved ML sat at
    // WL8).
    const RidgeRegression model = constantModel(0.0);
    GuardrailConfig cfg;
    GuardedPolicy guarded(&model, MlPolicyConfig{}, cfg);

    sim::RouterTelemetry t;
    bool entered = false;
    int entry_window = -1;
    photonic::WlState state_after = photonic::WlState::WL64;
    for (int i = 0; i < 40; ++i) {
        t.reset();
        t.packetsInjected = 2000;
        core::PolicyFeedback fb;
        state_after = guarded.nextState(makeObs(t, 1.8, &fb));
        if (fb.enteredFallback) {
            EXPECT_FALSE(entered) << "entered fallback twice";
            entered = true;
            entry_window = i;
        }
    }
    EXPECT_TRUE(entered);
    EXPECT_TRUE(guarded.inFallback(0));
    // Sample warm-up (errorWindow) + the bad streak, give or take the
    // window where the first prediction has no truth yet.
    EXPECT_GE(entry_window, cfg.enterStreak);
    // Under fallback the reactive policy drives: beta 1.8 > upper.
    EXPECT_EQ(state_after, photonic::WlState::WL64);
    EXPECT_NE(guarded.name(), std::string("ml"));
}

TEST(Guardrails, HysteresisRecoversAfterGoodWindows)
{
    const RidgeRegression model = constantModel(300.0);
    GuardrailConfig cfg;
    GuardedPolicy guarded(&model, MlPolicyConfig{}, cfg);
    sim::RouterTelemetry t;

    // Phase 1: the model is totally wrong (predicts 300, sees 9000).
    driveWindows(guarded, t, 9000, 1.5, 40);
    ASSERT_TRUE(guarded.inFallback(0));

    // Phase 2: traffic returns to what the model knows.  The shadow
    // evaluation keeps scoring it, the windowed error drains below
    // exitError and after exitStreak good windows the guard must hand
    // control back to ML.
    bool exited = false;
    for (int i = 0; i < 60 && !exited; ++i) {
        const core::PolicyFeedback fb =
            driveWindows(guarded, t, 300, 0.4, 1);
        exited = fb.exitedFallback;
    }
    EXPECT_TRUE(exited);
    EXPECT_FALSE(guarded.inFallback(0));

    // Back on ML: identical decisions to the bare policy again.
    MlPowerPolicy bare(&model);
    t.reset();
    t.packetsInjected = 300;
    core::PolicyFeedback fb;
    const core::WindowObservation obs = makeObs(t, 0.4, &fb);
    core::WindowObservation bare_obs = obs;
    bare_obs.feedback = nullptr;
    EXPECT_EQ(guarded.nextState(obs), bare.nextState(bare_obs));
    EXPECT_FALSE(fb.fallbackActive);
}

TEST(Guardrails, InsanePredictionIsClamped)
{
    // A model predicting ~1e9 packets per window is insane for any
    // supported fabric; the guard clamps it and recomputes Equation 7
    // from the clamped demand instead of trusting the raw value.
    const RidgeRegression model = constantModel(1e9);
    GuardrailConfig cfg;
    cfg.maxPredictedPackets = 1000.0;
    GuardedPolicy guarded(&model, MlPolicyConfig{}, cfg);

    sim::RouterTelemetry t;
    t.packetsInjected = 100;
    core::PolicyFeedback fb;
    const photonic::WlState s = guarded.nextState(makeObs(t, 0.3, &fb));
    EXPECT_TRUE(fb.clampedPrediction);
    EXPECT_EQ(s, MlPowerPolicy::stateForDemand(1000.0, 500,
                                               MlPolicyConfig{}));
}

TEST(Guardrails, ThresholdValidationRejectsBrokenHysteresis)
{
    const RidgeRegression model = constantModel(10.0);
    GuardrailConfig cfg;
    cfg.exitError = cfg.enterError; // no hysteresis band
    EXPECT_THROW(GuardedPolicy(&model, MlPolicyConfig{}, cfg),
                 ConfigError);

    GuardrailConfig zero_window;
    zero_window.errorWindow = 0;
    EXPECT_FALSE(validate(zero_window));
    EXPECT_FALSE(validate(zero_window).hasValue());
    EXPECT_NE(validate(zero_window).error().message.find("errorWindow"),
              std::string::npos);
}

// Hysteresis boundaries ----------------------------------------------------

TEST(Guardrails, UnitWindowAndStreaksTripAndRecoverImmediately)
{
    // The degenerate-but-legal hysteresis: error window of one sample,
    // enter/exit streaks of one window.  The guard must trip on the
    // very first scored bad window and hand control back on the very
    // first scored good one — off-by-one bugs in the streak counters or
    // the sample warm-up show up as a one-window delay here.
    const RidgeRegression model = constantModel(0.0);
    GuardrailConfig cfg;
    cfg.errorWindow = 1;
    cfg.enterStreak = 1;
    cfg.exitStreak = 1;
    ASSERT_TRUE(validate(cfg));
    GuardedPolicy guarded(&model, MlPolicyConfig{}, cfg);
    sim::RouterTelemetry t;

    // Window 0: first ever decision — there is no previous prediction
    // to score, so even a wildly wrong window cannot trip the guard.
    core::PolicyFeedback fb = driveWindows(guarded, t, 2000, 1.0, 1);
    EXPECT_FALSE(fb.enteredFallback);
    EXPECT_FALSE(fb.fallbackActive);

    // Window 1: the window-0 prediction (~0) is scored against 2000
    // actual injections — normalised error 1.0, one sample fills the
    // unit error window, one bad window fills the unit streak.
    fb = driveWindows(guarded, t, 2000, 1.0, 1);
    EXPECT_TRUE(fb.enteredFallback);
    EXPECT_TRUE(fb.fallbackActive);
    EXPECT_TRUE(guarded.inFallback(0));

    // Window 2: traffic matches the model again (0 injections); the
    // unit window forgets the bad sample at once and the unit exit
    // streak recovers in the same window.
    fb = driveWindows(guarded, t, 0, 0.1, 1);
    EXPECT_TRUE(fb.exitedFallback);
    EXPECT_FALSE(fb.fallbackActive);
    EXPECT_FALSE(guarded.inFallback(0));

    // And it re-trips just as promptly: no stale streak survives the
    // round trip.
    fb = driveWindows(guarded, t, 2000, 1.0, 1);
    EXPECT_TRUE(fb.enteredFallback);
}

TEST(Guardrails, ClampBoundaryIsExclusive)
{
    // Pin the clamp comparison to "strictly greater": a prediction
    // exactly at maxPredictedPackets passes through untouched, one ULP
    // of headroom less and it clamps.  Extract the model's exact
    // prediction through the decision trace first so the boundary is
    // placed bit-precisely.
    const RidgeRegression model = constantModel(150.0);
    sim::RouterTelemetry t;
    t.packetsInjected = 100;

    MlPowerPolicy bare(&model);
    core::DecisionTrace trace;
    core::WindowObservation probe = makeObs(t, 0.3, nullptr);
    probe.decision = &trace;
    const photonic::WlState bare_state = bare.nextState(probe);
    ASSERT_TRUE(trace.hasPrediction);
    const double pred = trace.predictedPackets;
    ASSERT_GT(pred, 0.0);

    {
        GuardrailConfig cfg;
        cfg.maxPredictedPackets = pred; // boundary: equal, not above
        GuardedPolicy at_edge(&model, MlPolicyConfig{}, cfg);
        core::PolicyFeedback fb;
        const photonic::WlState s =
            at_edge.nextState(makeObs(t, 0.3, &fb));
        EXPECT_FALSE(fb.clampedPrediction);
        EXPECT_EQ(s, bare_state);
    }
    {
        GuardrailConfig cfg;
        cfg.maxPredictedPackets = std::nextafter(pred, 0.0);
        GuardedPolicy below_edge(&model, MlPolicyConfig{}, cfg);
        core::PolicyFeedback fb;
        const photonic::WlState s =
            below_edge.nextState(makeObs(t, 0.3, &fb));
        EXPECT_TRUE(fb.clampedPrediction);
        EXPECT_EQ(s, MlPowerPolicy::stateForDemand(
                         cfg.maxPredictedPackets, 500, MlPolicyConfig{}));
    }
}

TEST(Guardrails, NegativeRawPredictionIsFlooredByMlNotTheGuard)
{
    // The other clamp edge: a model whose raw output is negative.  The
    // ML policy itself floors the prediction at zero demand before the
    // guard ever sees it, so the guard must observe an in-range value
    // (no clampedPrediction) and the state resolves to zero demand.
    const RidgeRegression model = constantModel(-50.0);
    sim::RouterTelemetry t;
    t.packetsInjected = 10;

    MlPowerPolicy bare(&model);
    core::DecisionTrace trace;
    core::WindowObservation probe = makeObs(t, 0.1, nullptr);
    probe.decision = &trace;
    bare.nextState(probe);
    ASSERT_TRUE(trace.hasPrediction);
    EXPECT_EQ(trace.predictedPackets, 0.0);

    GuardedPolicy guarded(&model);
    core::PolicyFeedback fb;
    const photonic::WlState s = guarded.nextState(makeObs(t, 0.1, &fb));
    EXPECT_FALSE(fb.clampedPrediction);
    EXPECT_EQ(s, MlPowerPolicy::stateForDemand(0.0, 500,
                                               MlPolicyConfig{}));
}

// Full-run integration ---------------------------------------------------

/** Tiny deterministic training run shared by the integration tests. */
const PipelineResult &
trainedModel()
{
    static const PipelineResult trained = [] {
        traffic::BenchmarkSuite suite;
        PipelineConfig cfg;
        cfg.reservationWindow = 500;
        cfg.simCycles = 4000;
        cfg.maxTrainPairs = 2;
        cfg.maxValPairs = 1;
        cfg.secondPass = false;
        cfg.lambdaGrid = {0.1, 10.0};
        return TrainingPipeline(suite, cfg).run();
    }();
    return trained;
}

metrics::RunSpec
pearlSpec(const char *config_name,
          std::function<std::unique_ptr<core::PowerPolicy>()> make)
{
    traffic::BenchmarkSuite suite;
    metrics::RunSpec spec;
    spec.configName = config_name;
    spec.pair = {suite.find("Rad"), suite.find("QRS")};
    spec.options.warmupCycles = 400;
    spec.options.measureCycles = 2500;
    spec.pearl.reservationWindow = 500;
    spec.makePolicy = std::move(make);
    return spec;
}

#define EXPECT_SAME_BITS(a, b, what)                                    \
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),                          \
              std::bit_cast<std::uint64_t>(b))                          \
        << what << " differs: " << (a) << " vs " << (b)

TEST(Guardrails, ZeroDegradationAgainstBareMlRun)
{
    // With the real (weak but sane) trained model and a healthy fabric,
    // the guard must never trip — and then every metric of a guarded
    // run is bit-identical to the bare ML run on the same seed.  This
    // is the "guardrails are free until needed" contract: the guarded
    // rows also match the checked-in `ml` golden, which test_golden
    // already pins to the bare policy.
    const RidgeRegression &model = trainedModel().model;
    const metrics::RunSpec ml_spec = pearlSpec("ml", [&model] {
        return std::make_unique<MlPowerPolicy>(&model);
    });
    const metrics::RunSpec guarded_spec =
        pearlSpec("guarded", [&model] {
            return std::make_unique<GuardedPolicy>(&model);
        });

    const metrics::RunMetrics a = metrics::executeSpec(ml_spec, 100);
    const metrics::RunMetrics b =
        metrics::executeSpec(guarded_spec, 100);

    EXPECT_EQ(b.policyFallbackEntries, 0u);
    EXPECT_EQ(b.policyFallbackExits, 0u);
    EXPECT_EQ(b.policyFallbackWindows, 0u);

    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.deliveredPackets, b.deliveredPackets);
    EXPECT_EQ(a.deliveredFlits, b.deliveredFlits);
    EXPECT_EQ(a.deliveredBits, b.deliveredBits);
    EXPECT_EQ(a.cpuPackets, b.cpuPackets);
    EXPECT_EQ(a.gpuPackets, b.gpuPackets);
    EXPECT_SAME_BITS(a.throughputFlitsPerCycle,
                     b.throughputFlitsPerCycle, "throughput");
    EXPECT_SAME_BITS(a.avgLatencyCycles, b.avgLatencyCycles, "latency");
    EXPECT_SAME_BITS(a.totalEnergyJ, b.totalEnergyJ, "energy");
    EXPECT_SAME_BITS(a.energyPerBitPj, b.energyPerBitPj, "energy/bit");
    EXPECT_SAME_BITS(a.laserPowerW, b.laserPowerW, "laser power");
    for (std::size_t s = 0; s < a.residency.size(); ++s) {
        EXPECT_SAME_BITS(a.residency[s], b.residency[s],
                         "residency[" + std::to_string(s) + "]");
    }
}

/**
 * Fault injection for the guard itself: a model that predicts zero
 * demand under real traffic, on a faulty fabric.  The run is long
 * enough (12 window boundaries) for the tightened guard (4-sample
 * window, 2-window streak) to fill its error window and trip.
 */
metrics::RunSpec
brokenModelSpec()
{
    static const RidgeRegression broken = constantModel(0.0);
    GuardrailConfig tight;
    tight.errorWindow = 4;
    tight.enterStreak = 2;
    tight.exitStreak = 4;
    metrics::RunSpec spec = pearlSpec("broken-ml", [tight] {
        return std::make_unique<GuardedPolicy>(
            &broken, MlPolicyConfig{}, tight);
    });
    spec.options.measureCycles = 6000;
    spec.pearl.faults.enabled = true;
    spec.pearl.faults.seed = 0xFA017;
    spec.pearl.faults.baseBer = 5e-5;
    spec.pearl.faults.reservationDropRate = 1e-3;
    return spec;
}

TEST(Guardrails, BrokenModelEngagesFallbackAndTraces)
{
    // The guarded run must engage the fallback (counters land in
    // RunMetrics through NetworkStats) and emit policy_fallback
    // transition events into the trace.
    metrics::RunSpec spec = brokenModelSpec();

    const std::string trace_path =
        ::testing::TempDir() + "/guardrail_trace.jsonl";
    std::remove(trace_path.c_str());
    {
        auto tracer = obs::makeTracer(trace_path);
        spec.options.tracer = tracer.get();
        const metrics::RunMetrics m = metrics::executeSpec(spec, 100);
        EXPECT_GT(m.policyFallbackEntries, 0u);
        EXPECT_GT(m.policyFallbackWindows, 0u);
        tracer->finish();
    }

    std::ifstream in(trace_path);
    ASSERT_TRUE(in.is_open());
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_NE(buf.str().find("policy_fallback"), std::string::npos)
        << "no policy_fallback events in the trace";
    std::remove(trace_path.c_str());
}

} // namespace
} // namespace ml
} // namespace pearl
