/**
 * @file
 * Regenerates the Section IV-C predictive-performance numbers: NRMSE of
 * the ridge model on validation vs test data for RW500 and RW2000, and
 * the wavelength-state selection accuracy (the paper reports 99.9%
 * accuracy for selecting the top 64WL state at RW2000).
 */

#include "bench_common.hpp"
#include "ml/collector.hpp"

using namespace pearl;

int
main()
{
    bench::banner("ML predictive performance (NRMSE + state accuracy)",
                  "Section IV-C text: NRMSE 0.79->0.68 (RW500), "
                  "0.79->0.05 (RW2000), 99.9% top-state accuracy");

    traffic::BenchmarkSuite suite;

    TextTable t({"window", "val NRMSE", "test NRMSE", "state acc",
                 "top-state acc", "test samples"});
    for (std::uint64_t rw : {500ULL, 2000ULL}) {
        // Train (or load) and then collect test data under the model's
        // own policy — mirroring the paper's deployment measurement.
        const auto trained = bench::trainedModel(suite, rw);

        ml::PipelineConfig cfg;
        cfg.reservationWindow = rw;
        cfg.simCycles = bench::envU64("PEARL_BENCH_TRAIN", 30000);
        ml::TrainingPipeline pipeline(suite, cfg);

        ml::MlPolicyConfig pol;
        pol.enable8Wl = false;
        ml::MlPowerPolicy policy(&trained.model, pol);
        ml::Dataset test;
        std::uint64_t seed = 900;
        for (const auto &pair : bench::testPairs(suite))
            test.append(pipeline.collect(pair, policy, ++seed));

        const auto eval = pipeline.evaluate(trained.model, test);
        // Validation NRMSE of the deployed model: the validation pairs
        // re-collected under the model's own policy, so a freshly
        // trained model and one loaded from its file report the same.
        ml::Dataset val;
        std::uint64_t vseed = 500;
        for (const auto &pair : suite.validationPairs())
            val.append(pipeline.collect(pair, policy, ++vseed));
        const double val_nrmse =
            ml::nrmseFit(val.labels, trained.model.predictAll(val));

        t.addRow({"RW" + std::to_string(rw),
                  TextTable::num(val_nrmse, 3),
                  TextTable::num(eval.nrmse, 3),
                  TextTable::pct(eval.stateAccuracy),
                  TextTable::pct(eval.topStateAccuracy),
                  std::to_string(eval.samples)});
    }
    bench::emit(t);
    return 0;
}
