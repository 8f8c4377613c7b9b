/**
 * @file
 * Fault-rate sweep: PEARL under a degrading optical fabric.
 *
 * Sweeps the fault-injection severity (BER floor, reservation-drop
 * rate and laser-bank MTBF scale together) and reports, for the FCFS
 * baseline, the reactive scaler, the ML scaler and the guarded ML
 * scaler (ml::GuardedPolicy — reactive fallback when the model's
 * online error spikes), how achieved throughput, latency, energy per
 * bit and the recovery counters respond.  The healthy column
 * (severity 0) reproduces the ideal fabric the paper evaluates; the
 * rest is the new robustness axis, and the fallback columns show when
 * the guardrails decided the model could no longer be trusted.
 *
 * The 5 severities x 4 policies grid runs through the parallel sweep
 * engine, one simulation per job thread (PEARL_THREADS=1 runs the
 * jobs one after another); every cell keeps the same traffic seed so
 * the policies stay comparable under an identical fault realisation.
 *
 * Usage: fault_sweep [cpu_abbrev gpu_abbrev [cycles]]
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "metrics/runner.hpp"
#include "ml/guarded_policy.hpp"
#include "ml/pipeline.hpp"
#include "ml/policy.hpp"
#include "traffic/suite.hpp"

using namespace pearl;

namespace {

/** One severity step of the sweep. */
struct Severity
{
    const char *label;
    double baseBer;
    double reservationDropRate;
    double bankMtbfCycles; //!< 0 = banks never fail
};

core::PearlConfig
faultyConfig(const Severity &sev)
{
    core::PearlConfig cfg;
    if (sev.baseBer > 0.0 || sev.reservationDropRate > 0.0 ||
        sev.bankMtbfCycles > 0.0) {
        cfg.faults.enabled = true;
        cfg.faults.seed = 0xFA017;
        cfg.faults.baseBer = sev.baseBer;
        cfg.faults.reservationDropRate = sev.reservationDropRate;
        cfg.faults.bankMtbfCycles = sev.bankMtbfCycles;
        cfg.faults.bankMttrCycles = 20000.0;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    traffic::BenchmarkSuite suite;
    const std::string cpu = argc > 2 ? argv[1] : "FA";
    const std::string gpu = argc > 2 ? argv[2] : "Reduc";
    traffic::BenchmarkPair pair{suite.find(cpu), suite.find(gpu)};

    metrics::RunOptions opts;
    opts.warmupCycles = 5000;
    opts.measureCycles = 40000;
    if (argc > 3 && (!parseU64(argv[3], opts.measureCycles) ||
                     opts.measureCycles == 0)) {
        std::cerr << "usage: fault_sweep [cpu_abbrev gpu_abbrev "
                     "[cycles > 0]]\n";
        return 2;
    }

    const std::vector<Severity> sweep = {
        {"healthy", 0.0, 0.0, 0.0},
        {"mild", 5e-6, 1e-4, 0.0},
        {"moderate", 5e-5, 1e-3, 500000.0},
        {"severe", 2e-4, 5e-3, 100000.0},
        {"extreme", 5e-4, 2e-2, 20000.0},
    };

    std::cout << "Fault sweep for " << pair.label() << " ("
              << opts.measureCycles << " measured cycles)\n"
              << "severity scales BER floor, reservation-drop rate and "
                 "bank failure rate together\n\n"
              << "Training the ML scaler once on the healthy fabric "
                 "(small budget, demo quality)...\n\n";

    // One trained model drives every faulty run: the point of the sweep
    // is how a policy trained on the ideal fabric degrades.
    ml::PipelineConfig train_cfg;
    train_cfg.simCycles = 15000;
    train_cfg.maxTrainPairs = 6;
    train_cfg.secondPass = false;
    ml::TrainingPipeline pipeline(suite, train_cfg);
    const ml::PipelineResult trained = pipeline.run();

    // Build the severity x policy grid.  Every cell pins the same
    // traffic seed so the three policies face identical workloads and
    // fault realisations at each severity.
    const std::vector<const char *> policies = {"fcfs", "reactive",
                                                "ml", "guarded"};
    std::vector<metrics::RunSpec> jobs;
    for (const Severity &sev : sweep) {
        for (const char *policy_name : policies) {
            const std::string pname = policy_name;
            metrics::RunSpec job;
            job.configName = std::string(sev.label) + "/" + pname;
            job.label = job.configName;
            job.pair = pair;
            job.options = opts;
            job.explicitSeed = opts.seed;
            job.pearl = faultyConfig(sev);
            if (pname == "fcfs") {
                // PEARL-FCFS baseline: full power, no per-class DBA.
                job.dba.mode = core::DbaConfig::Mode::Fcfs;
                job.makePolicy = [] {
                    return std::make_unique<core::StaticPolicy>(
                        photonic::WlState::WL64);
                };
            } else if (pname == "reactive") {
                job.makePolicy = [] {
                    return std::make_unique<core::ReactivePolicy>();
                };
            } else if (pname == "ml") {
                job.makePolicy = [&trained] {
                    return std::make_unique<ml::MlPowerPolicy>(
                        &trained.model);
                };
            } else {
                job.makePolicy = [&trained] {
                    return std::make_unique<ml::GuardedPolicy>(
                        &trained.model, ml::MlPolicyConfig{},
                        ml::GuardrailConfig{});
                };
            }
            jobs.push_back(std::move(job));
        }
    }

    const metrics::SweepResult result =
        metrics::Runner().sweep(jobs);
    if (const metrics::SweepJobResult *bad = result.firstError())
        fatal("sweep job '", bad->metrics.configName,
              "' failed: ", bad->error);

    TextTable t({"severity", "policy", "thru (flits/cyc)",
                 "avg lat (cyc)", "energy/bit (pJ)", "retx", "drops",
                 "timeouts", "fb entries", "fb windows"});
    std::uint64_t fallback_entries = 0;
    std::size_t idx = 0;
    for (const Severity &sev : sweep) {
        for (const char *policy_name : policies) {
            const metrics::RunMetrics &m = result.jobs[idx++].metrics;
            fallback_entries += m.policyFallbackEntries;
            t.addRow({sev.label, policy_name,
                      TextTable::num(m.throughputFlitsPerCycle, 3),
                      TextTable::num(m.avgLatencyCycles, 0),
                      TextTable::num(m.energyPerBitPj, 2),
                      std::to_string(m.retransmittedPackets),
                      std::to_string(m.droppedPackets),
                      std::to_string(m.ackTimeouts),
                      std::to_string(m.policyFallbackEntries),
                      std::to_string(m.policyFallbackWindows)});
        }
    }
    t.print(std::cout);

    std::cout
        << "\nReading the table: retransmissions recover corrupted and "
           "reservation-dropped packets at a latency cost; drops only "
           "appear when the retry budget is exhausted.  Power-scaling "
           "policies (reactive/ML) ride the fault-capped wavelength "
           "ceiling instead of commanding dead laser banks.  The "
           "fallback columns count guarded-ML routers abandoning the "
           "model (entries) and the windows they spent on the reactive "
           "fallback; they stay 0 for every other policy and for a "
           "healthy, well-predicted fabric.\n";
    std::cout << "\n[guardrails] total fallback engagements across the "
                 "sweep: "
              << fallback_entries << "\n";

    const metrics::SweepSummary &s = result.summary;
    std::cout << "\n[sweep] " << s.jobs << " jobs on " << s.threads
              << " threads: wall " << TextTable::num(s.wallSeconds, 2)
              << " s, aggregate "
              << TextTable::num(s.aggregateJobSeconds, 2)
              << " s, speedup " << TextTable::num(s.speedup(), 2)
              << "x\n";
    return 0;
}
