/**
 * @file
 * End-to-end walkthrough of the ML power-scaling workflow
 * (Section III-D / IV-A):
 *
 *   1. collect training data over benchmark pairs under random
 *      wavelength states;
 *   2. fit ridge models over a lambda grid, tune on validation pairs;
 *   3. second collection pass under the first model's policy; refit;
 *   4. inspect the learned feature weights;
 *   5. evaluate NRMSE + state-selection accuracy on held-out pairs;
 *   6. deploy the model as the network's power policy and measure the
 *      power/throughput outcome.
 *
 * Usage: ml_workflow [train_cycles] (default 20000; larger = better
 * model, slower run)
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>

#include "common/env.hpp"
#include "common/table.hpp"
#include "metrics/runner.hpp"
#include "ml/features.hpp"
#include "ml/pipeline.hpp"
#include "traffic/suite.hpp"

using namespace pearl;

int
main(int argc, char **argv)
{
    traffic::BenchmarkSuite suite;

    ml::PipelineConfig cfg;
    cfg.reservationWindow = 500;
    cfg.simCycles = 20000;
    if (argc > 1 && (!parseU64(argv[1], cfg.simCycles) ||
                     cfg.simCycles == 0)) {
        std::cerr << "usage: ml_workflow [train_cycles > 0]\n";
        return 2;
    }
    cfg.maxTrainPairs = 12; // keep the demo quick; 0 = all 36
    ml::TrainingPipeline pipeline(suite, cfg);

    std::cout << "1-3. Training ridge model (RW500, two passes, "
              << cfg.simCycles << " cycles/pair, "
              << (cfg.maxTrainPairs ? cfg.maxTrainPairs : 36)
              << " training pairs)...\n";
    const auto result = pipeline.run();
    std::cout << "   lambda = " << result.bestLambda
              << ", validation NRMSE = "
              << TextTable::num(result.validationNrmse, 3) << ", "
              << result.trainSamples << " training samples\n\n";

    std::cout << "4. Largest-magnitude feature weights:\n";
    const auto &names = ml::FeatureExtractor::names();
    std::vector<std::pair<double, int>> ranked;
    for (std::size_t j = 0; j < result.model.weights().size(); ++j) {
        ranked.push_back(
            {std::abs(result.model.weights()[j]), static_cast<int>(j)});
    }
    std::sort(ranked.rbegin(), ranked.rend());
    TextTable w({"rank", "feature", "weight (standardised)"});
    for (int i = 0; i < 8; ++i) {
        const int j = ranked[static_cast<std::size_t>(i)].second;
        w.addRow({std::to_string(i + 1),
                  names[static_cast<std::size_t>(j)],
                  TextTable::num(
                      result.model.weights()[static_cast<std::size_t>(j)],
                      3)});
    }
    w.print(std::cout);

    std::cout << "\n5. Held-out evaluation on 4 test pairs:\n";
    auto test_pairs = suite.testPairs();
    test_pairs.resize(4);
    // Seeds 41..44, the pairs collected concurrently.
    const ml::Dataset test =
        pipeline.collectAll(test_pairs, 40, [] {
            return std::make_unique<core::StaticPolicy>(
                photonic::WlState::WL64);
        });
    const auto eval = pipeline.evaluate(result.model, test);
    std::cout << "   test NRMSE = " << TextTable::num(eval.nrmse, 3)
              << ", state accuracy = " << TextTable::pct(eval.stateAccuracy)
              << ", top-state accuracy = "
              << TextTable::pct(eval.topStateAccuracy) << "\n\n";

    std::cout << "6. Deploying the model as the power policy:\n";
    metrics::RunOptions opts;
    opts.warmupCycles = 5000;
    opts.measureCycles = 30000;
    core::PearlConfig net_cfg;
    net_cfg.reservationWindow = 500;
    core::DbaConfig dba;

    metrics::Runner runner;
    auto deploy =
        [&](const std::string &name,
            std::function<std::unique_ptr<core::PowerPolicy>()> make) {
            metrics::RunSpec spec;
            spec.configName = name;
            spec.pair = test_pairs[0];
            spec.options = opts;
            spec.fabric = metrics::RunSpec::Fabric::Pearl;
            spec.pearl = net_cfg;
            spec.dba = dba;
            spec.makePolicy = std::move(make);
            return runner.run(spec);
        };
    const auto base = deploy("64WL", [] {
        return std::make_unique<core::StaticPolicy>(
            photonic::WlState::WL64);
    });
    // `result` outlives the synchronous run below.
    const auto deployed = deploy("ML", [&result] {
        return std::make_unique<ml::MlPowerPolicy>(&result.model);
    });
    TextTable d({"config", "laser (W)", "thru (flits/cyc)"});
    for (const auto &m : {base, deployed}) {
        d.addRow({m.configName, TextTable::num(m.laserPowerW, 3),
                  TextTable::num(m.throughputFlitsPerCycle, 3)});
    }
    d.print(std::cout);
    std::cout << "   laser savings: "
              << TextTable::pct(1.0 - deployed.laserPowerW /
                                          base.laserPowerW)
              << ", throughput change: "
              << TextTable::pct(deployed.throughputFlitsPerCycle /
                                    base.throughputFlitsPerCycle -
                                1.0)
              << "\n";

    std::ofstream out("pearl_ml_rw500.model");
    result.model.save(out);
    std::cout << "\nModel saved to pearl_ml_rw500.model (reusable by "
                 "power_scaling_explorer).\n";
    return 0;
}
