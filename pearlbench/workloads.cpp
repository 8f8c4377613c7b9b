#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <functional>

#include "core/topology.hpp"
#include "metrics/runner.hpp"
#include "ml/policy.hpp"
#include "sim/worker_pool.hpp"

namespace pearlbench {

using namespace pearl;

namespace {

/** Warmup and measured cycles of one simulation at full length. */
struct Length
{
    sim::Cycle warmup;
    sim::Cycle measure;
};

metrics::RunOptions
runOptions(std::uint64_t sim_seed, Length full, bool tiny)
{
    metrics::RunOptions opts;
    opts.warmupCycles = tiny ? 200 : full.warmup;
    opts.measureCycles = tiny ? 800 : full.measure;
    opts.seed = sim_seed;
    return opts;
}

std::uint64_t
cyclesOf(const metrics::RunOptions &opts)
{
    return opts.warmupCycles + opts.measureCycles;
}

/** Run one operation, turning an exception into a failed Op. */
Op
attempt(const std::function<metrics::RunMetrics()> &body)
{
    Op op;
    try {
        op.metrics = body();
        op.ok = true;
    } catch (const std::exception &e) {
        op.error = e.what();
    }
    return op;
}

// paper16_ml ------------------------------------------------------------

/** The paper-sized chip, DBA + ML policy at RW500, three test pairs
 *  serially on one thread (seed 100, as bench_hotpath). */
class Paper16Ml final : public Workload
{
  public:
    Paper16Ml(std::uint64_t order_seed, bool tiny)
        : Workload(order_seed), opts_(runOptions(100, {2000, 18000}, tiny))
    {
        // Rad/QRS is the hot-path reference pair, FA/DCT the most
        // CPU-heavy test pair and fmm/Reduc the most GPU-heavy one.
        for (const auto &[cpu, gpu] :
             {std::pair{"Rad", "QRS"}, {"FA", "DCT"}, {"fmm", "Reduc"}})
            pairs_.push_back({suite_.find(cpu), suite_.find(gpu)});
        net_.reservationWindow = 500;
    }

    RepResult
    run() override
    {
        return pass([this](const traffic::BenchmarkPair &pair) {
            ml::MlPowerPolicy policy(&model()->model);
            return metrics::runPearl(pair, net_, dba_, policy, opts_,
                                     kName);
        });
    }

    RepResult
    traced(LayerTotals &totals, PolicyCounters &counters) override
    {
        return pass([&](const traffic::BenchmarkPair &pair) {
            TimedPolicy policy(
                std::make_unique<ml::MlPowerPolicy>(&model()->model),
                counters);
            return tracedPearlRun(pair, net_, dba_, policy, opts_, kName,
                                  totals);
        });
    }

  protected:
    bool usesModel() const override { return true; }

    double
    construct() override
    {
        double seconds = 0.0;
        for (const auto &pair : pairs_) {
            ml::MlPowerPolicy policy(&model()->model);
            seconds += constructPearl(pair, net_, dba_, policy, opts_);
        }
        return seconds;
    }

  private:
    static constexpr const char *kName = "ML RW500";

    RepResult
    pass(const std::function<metrics::RunMetrics(
             const traffic::BenchmarkPair &)> &body)
    {
        RepResult r;
        for (std::size_t i : order(pairs_.size())) {
            r.ops.push_back(attempt([&] { return body(pairs_[i]); }));
            r.simCycles += cyclesOf(opts_);
        }
        return r;
    }

    traffic::BenchmarkSuite suite_;
    std::vector<traffic::BenchmarkPair> pairs_;
    core::PearlConfig net_;
    core::DbaConfig dba_;
    metrics::RunOptions opts_;
};

// scale128_hub ----------------------------------------------------------

/** 128 clusters, FA/DCT, static WL64, on the PEARL_THREADS step lanes
 *  (seed 1, as bench_ext_scaling). */
class Scale128Hub final : public Workload
{
  public:
    Scale128Hub(std::uint64_t order_seed, bool tiny)
        : Workload(order_seed), opts_(runOptions(1, {2000, 6000}, tiny))
    {
        core::TopologySpec topo;
        topo.clusters = 128;
        opts_.system = core::makeSystemConfig(topo);
        net_ = topo.pearlConfig();
        pair_ = {suite_.find("FA"), suite_.find("DCT")};
    }

    RepResult run() override { return runWith(opts_); }

    RepResult
    traced(LayerTotals &totals, PolicyCounters &counters) override
    {
        RepResult r;
        r.ops.push_back(attempt([&] {
            TimedPolicy policy(std::make_unique<core::StaticPolicy>(
                                   photonic::WlState::WL64),
                               counters);
            return tracedPearlRun(pair_, net_, dba_, policy, opts_, kName,
                                  totals);
        }));
        r.simCycles = cyclesOf(opts_);
        return r;
    }

    std::optional<RepResult>
    reference() override
    {
        metrics::RunOptions serial = opts_;
        serial.stepThreads = 1;
        return runWith(serial);
    }

    unsigned
    lanes() const override
    {
        return sim::resolveStepThreads(opts_.stepThreads);
    }

  protected:
    double
    construct() override
    {
        core::StaticPolicy policy(photonic::WlState::WL64);
        return constructPearl(pair_, net_, dba_, policy, opts_);
    }

  private:
    static constexpr const char *kName = "PEARL-128";

    RepResult
    runWith(const metrics::RunOptions &opts)
    {
        RepResult r;
        r.ops.push_back(attempt([&] {
            core::StaticPolicy policy(photonic::WlState::WL64);
            return metrics::runPearl(pair_, net_, dba_, policy, opts,
                                     kName);
        }));
        r.simCycles = cyclesOf(opts);
        return r;
    }

    traffic::BenchmarkSuite suite_;
    traffic::BenchmarkPair pair_;
    core::PearlConfig net_;
    core::DbaConfig dba_;
    metrics::RunOptions opts_;
};

// sweep_fig9 ------------------------------------------------------------

/** The Fig. 9 grid: five configs x the 16 test pairs, one SweepRunner
 *  sweep per config, each job on the seed bench_fig9 gives it. */
class SweepFig9 final : public Workload
{
  public:
    SweepFig9(std::uint64_t order_seed, bool tiny)
        : Workload(order_seed), opts_(runOptions(100, {1000, 5000}, tiny))
    {
        pairs_ = suite_.testPairs();
        if (tiny)
            pairs_.resize(4);
    }

    RepResult
    run() override
    {
        RepResult r;
        for (std::size_t g : order(grids_.size()))
            sweep(shuffled(grids_[g]), r);
        return r;
    }

    RepResult
    traced(LayerTotals &totals, PolicyCounters &counters) override
    {
        RepResult r;
        for (std::size_t g : order(grids_.size())) {
            // Custom jobs replay the descriptor path with the probes
            // installed; one lane each, as the sweep engine gives its
            // descriptor jobs when the grid has a job per thread.
            std::vector<metrics::RunSpec> specs = shuffled(grids_[g]);
            std::vector<LayerTotals> slots(specs.size());
            for (std::size_t i = 0; i < specs.size(); ++i) {
                metrics::RunSpec &spec = specs[i];
                spec.options.stepThreads = 1;
                spec.custom = [&slot = slots[i], &counters](
                                  const metrics::RunSpec &job,
                                  std::uint64_t seed) {
                    metrics::RunOptions opts = job.options;
                    opts.seed = seed;
                    if (job.fabric == metrics::RunSpec::Fabric::Cmesh) {
                        return tracedCmeshRun(job.pair, job.cmesh, opts,
                                              job.configName, slot);
                    }
                    TimedPolicy policy(job.makePolicy(), counters);
                    return tracedPearlRun(job.pair, job.pearl, job.dba,
                                          policy, opts, job.configName,
                                          slot);
                };
            }
            sweep(specs, r);
            for (const LayerTotals &slot : slots)
                totals.merge(slot);
        }
        return r;
    }

  protected:
    bool usesModel() const override { return true; }

    double
    construct() override
    {
        grids_ = makeGrids();
        double seconds = 0.0;
        for (const auto &grid : grids_) {
            for (const metrics::RunSpec &spec : grid) {
                if (spec.fabric == metrics::RunSpec::Fabric::Cmesh) {
                    seconds += constructCmesh(spec.pair, spec.cmesh,
                                              spec.options);
                } else {
                    const auto policy = spec.makePolicy();
                    seconds += constructPearl(spec.pair, spec.pearl,
                                              spec.dba, *policy,
                                              spec.options);
                }
            }
        }
        return seconds;
    }

  private:
    std::vector<std::vector<metrics::RunSpec>>
    makeGrids() const
    {
        std::vector<std::vector<metrics::RunSpec>> grids;
        const auto wl64 = [] {
            return std::make_unique<core::StaticPolicy>(
                photonic::WlState::WL64);
        };
        core::PearlConfig base;
        core::DbaConfig dba;
        grids.push_back(
            metrics::pearlGrid("PEARL-Dyn", pairs_, base, dba, wl64, opts_));

        core::DbaConfig fcfs;
        fcfs.mode = core::DbaConfig::Mode::Fcfs;
        grids.push_back(metrics::pearlGrid("PEARL-FCFS", pairs_, base, fcfs,
                                           wl64, opts_));

        core::PearlConfig rw500;
        rw500.reservationWindow = 500;
        grids.push_back(metrics::pearlGrid(
            "Dyn RW500", pairs_, rw500, dba,
            [] { return std::make_unique<core::ReactivePolicy>(); }, opts_));

        const ml::RidgeRegression *model_ptr = &model()->model;
        ml::MlPolicyConfig no8wl;
        no8wl.enable8Wl = false;
        grids.push_back(metrics::pearlGrid(
            "ML RW500", pairs_, rw500, dba,
            [model_ptr, no8wl] {
                return std::make_unique<ml::MlPowerPolicy>(model_ptr,
                                                           no8wl);
            },
            opts_));

        grids.push_back(metrics::cmeshGrid("CMESH", pairs_,
                                           electrical::CmeshConfig{}, opts_));

        // Pin each job to the seed its grid position derives, so the
        // submission order can change without moving any result.
        for (auto &grid : grids) {
            for (std::size_t i = 0; i < grid.size(); ++i)
                grid[i].explicitSeed = deriveSeed(opts_.seed, i);
        }
        return grids;
    }

    std::vector<metrics::RunSpec>
    shuffled(const std::vector<metrics::RunSpec> &grid)
    {
        std::vector<metrics::RunSpec> specs;
        specs.reserve(grid.size());
        for (std::size_t i : order(grid.size()))
            specs.push_back(grid[i]);
        return specs;
    }

    static void
    sweep(const std::vector<metrics::RunSpec> &specs, RepResult &r)
    {
        metrics::SweepOptions so;
        so.cancelOnError = false;
        const metrics::SweepResult result =
            metrics::SweepRunner(so).run(specs);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const metrics::SweepJobResult &job = result.jobs[i];
            Op op;
            op.metrics = job.metrics;
            op.ok = job.ok;
            op.pearl = specs[i].fabric == metrics::RunSpec::Fabric::Pearl;
            op.error = job.error;
            r.ops.push_back(std::move(op));
            r.simCycles += cyclesOf(specs[i].options);
            r.jobMaxS = std::max(r.jobMaxS, job.wallSeconds);
        }
        const metrics::SweepSummary &s = result.summary;
        r.sweep.jobs += s.jobs;
        r.sweep.threads = std::max(r.sweep.threads, s.threads);
        r.sweep.wallSeconds += s.wallSeconds;
        r.sweep.aggregateJobSeconds += s.aggregateJobSeconds;
        r.sweep.phaseSeconds.buildSeconds += s.phaseSeconds.buildSeconds;
        r.sweep.phaseSeconds.warmupSeconds += s.phaseSeconds.warmupSeconds;
        r.sweep.phaseSeconds.runSeconds += s.phaseSeconds.runSeconds;
    }

    traffic::BenchmarkSuite suite_;
    std::vector<traffic::BenchmarkPair> pairs_;
    metrics::RunOptions opts_;
    std::vector<std::vector<metrics::RunSpec>> grids_;
};

} // namespace

double
Workload::setup()
{
    const Clock::time_point start = Clock::now();
    if (usesModel())
        trainModel();
    const double train = secondsSince(start);
    return train + construct();
}

void
Workload::trainModel()
{
    // The fixed small pipeline of bench_hotpath: the workloads measure
    // ML inference on the hot path, which does not depend on how well
    // the model fits, and a deterministic in-process fit keeps set-up
    // time free of any model-file cache state.
    ml::PipelineConfig cfg;
    cfg.reservationWindow = 500;
    cfg.simCycles = 4000;
    cfg.maxTrainPairs = 2;
    cfg.maxValPairs = 1;
    cfg.secondPass = false;
    cfg.lambdaGrid = {0.1, 10.0};

    const traffic::BenchmarkSuite suite;
    const Clock::time_point start = Clock::now();
    ml::PipelineResult result = ml::TrainingPipeline(suite, cfg).run();
    trainSeconds_ = secondsSince(start);
    if (trained_ &&
        (result.bestLambda != trained_->bestLambda ||
         result.validationNrmse != trained_->validationNrmse ||
         result.trainSamples != trained_->trainSamples))
        setupDeterministic_ = false;
    trained_ = std::move(result);
}

std::vector<std::size_t>
Workload::order(std::size_t n)
{
    // Fisher-Yates on the library's own generator, so a seed names the
    // same order with any standard library.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(idx[i - 1], idx[order_.below(i)]);
    return idx;
}

unsigned
workloadThreads(const std::string &name)
{
    if (name == "paper16_ml")
        return 1;
    if (name == "scale128_hub" || name == "sweep_fig9")
        return 4;
    return 0;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t order_seed, bool tiny)
{
    if (name == "paper16_ml")
        return std::make_unique<Paper16Ml>(order_seed, tiny);
    if (name == "scale128_hub")
        return std::make_unique<Scale128Hub>(order_seed, tiny);
    if (name == "sweep_fig9")
        return std::make_unique<SweepFig9>(order_seed, tiny);
    return nullptr;
}

} // namespace pearlbench
