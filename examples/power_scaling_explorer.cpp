/**
 * @file
 * Power-performance trade-off explorer.
 *
 * Runs one benchmark pair under every wavelength-scaling policy the
 * library provides — static states, the reactive scaler at several
 * window sizes, and (optionally, given a cached model file) the ML
 * scaler — and prints the laser-power / throughput frontier.  Every
 * run goes through the `metrics::Runner` facade, so the PEARL_TRACE /
 * PEARL_METRICS_DUMP knobs work here too.
 *
 * Usage: power_scaling_explorer [cpu_abbrev gpu_abbrev [cycles]]
 */

#include <fstream>
#include <iostream>
#include <memory>

#include "common/env.hpp"
#include "common/table.hpp"
#include "metrics/runner.hpp"
#include "ml/policy.hpp"
#include "ml/ridge.hpp"
#include "traffic/suite.hpp"

using namespace pearl;

int
main(int argc, char **argv)
{
    traffic::BenchmarkSuite suite;
    const std::string cpu = argc > 2 ? argv[1] : "FA";
    const std::string gpu = argc > 2 ? argv[2] : "Reduc";
    traffic::BenchmarkPair pair{suite.find(cpu), suite.find(gpu)};

    metrics::RunOptions opts;
    opts.warmupCycles = 10000;
    opts.measureCycles = 60000;
    if (argc > 3 && (!parseU64(argv[3], opts.measureCycles) ||
                     opts.measureCycles == 0)) {
        std::cerr << "usage: power_scaling_explorer [cpu_abbrev "
                     "gpu_abbrev [cycles > 0]]\n";
        return 2;
    }
    core::DbaConfig dba;

    std::cout << "Power-performance frontier for " << pair.label()
              << " (" << opts.measureCycles << " cycles)\n\n";

    TextTable t({"policy", "laser (W)", "thru (flits/cyc)",
                 "avg lat (cyc)", "time in 8/16/32/48/64 WL"});
    auto addRow = [&t](const metrics::RunMetrics &m) {
        std::string residency;
        for (int s = 0; s < photonic::kNumWlStates; ++s) {
            if (s)
                residency += "/";
            residency += TextTable::num(
                m.residency[static_cast<std::size_t>(s)] * 100, 0);
        }
        t.addRow({m.configName, TextTable::num(m.laserPowerW, 3),
                  TextTable::num(m.throughputFlitsPerCycle, 3),
                  TextTable::num(m.avgLatencyCycles, 0), residency});
    };

    metrics::Runner runner;
    auto runPolicy =
        [&](const std::string &name, const core::PearlConfig &cfg,
            std::function<std::unique_ptr<core::PowerPolicy>()> make) {
            metrics::RunSpec spec;
            spec.configName = name;
            spec.pair = pair;
            spec.options = opts;
            spec.fabric = metrics::RunSpec::Fabric::Pearl;
            spec.pearl = cfg;
            spec.dba = dba;
            spec.makePolicy = std::move(make);
            addRow(runner.run(spec));
        };

    // Static states.
    for (auto s : {photonic::WlState::WL64, photonic::WlState::WL32,
                   photonic::WlState::WL16}) {
        core::PearlConfig cfg;
        cfg.initialState = s;
        runPolicy(std::string("static ") + photonic::toString(s), cfg,
                  [s] { return std::make_unique<core::StaticPolicy>(s); });
    }

    // Reactive scaling across window sizes.
    for (std::uint64_t rw : {250ULL, 500ULL, 1000ULL, 2000ULL}) {
        core::PearlConfig cfg;
        cfg.reservationWindow = rw;
        runPolicy("reactive RW" + std::to_string(rw), cfg, [] {
            return std::make_unique<core::ReactivePolicy>();
        });
    }

    // ML scaling, if a trained model is available on disk.
    ml::RidgeRegression model;
    std::ifstream in("pearl_ml_rw500.model");
    if (in && model.load(in)) {
        core::PearlConfig cfg;
        cfg.reservationWindow = 500;
        // The model outlives the (synchronous) run, so capturing a
        // pointer into the factory is safe here.
        runPolicy("ML RW500 (cached model)", cfg, [&model] {
            return std::make_unique<ml::MlPowerPolicy>(&model);
        });
    } else {
        std::cout << "(no pearl_ml_rw500.model in the working directory;"
                     " run the ml_workflow example to train one)\n\n";
    }

    t.print(std::cout);
    return 0;
}
