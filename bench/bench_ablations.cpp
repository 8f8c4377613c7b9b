/**
 * @file
 * The ablations and extensions: the design choices the paper argues in
 * prose, measured, plus the online learning it names as future work.
 * Seven sections, in this order:
 *   - DBA strategy and step size (Section III-B: "we considered ...
 *     6.25%, 12.5% and 25% and determined that 25% performed the best");
 *   - DBA occupancy upper bounds, swept around the paper's 16%/6%
 *     (Section III-B);
 *   - reactive power-scaling thresholds, scaled jointly to map the
 *     throughput/power trade-off (Section III-C);
 *   - the ML label: injected packets vs buffer utilisation under a
 *     shifted state distribution (Section IV-A);
 *   - reservation-assisted SWMR vs token-ring MWSR (Section II-A);
 *   - flat Table V trimming power vs the thermal drift + heater model
 *     (Section III-A1);
 *   - online (RLS) ML power scaling, warm-started from the offline
 *     ridge model (Section V future work).
 *
 * The four swept studies (DBA strategy, DBA bounds, thresholds, online)
 * share one bench::Grid of their distinct configurations x the test
 * pairs, run as one sweep.  A configuration two studies show runs once:
 * PEARL-Dyn at static 64WL is the DBA ladder row, the 16%/6% bounds
 * cell and the thresholds' and online study's baseline; Dyn RW500 is
 * the thresholds' scale-1 row and the online study's reactive row.  The
 * other three studies run their own small simulations serially.
 */

#include <memory>

#include "bench_common.hpp"
#include "core/mwsr_network.hpp"
#include "core/network.hpp"
#include "core/system.hpp"
#include "ml/collector.hpp"
#include "ml/online_ridge.hpp"
#include "photonic/power_model.hpp"
#include "traffic/synthetic.hpp"

using namespace pearl;

namespace {

/** (grid configuration, display name) in a table's row order. */
using Rows = std::vector<std::pair<std::size_t, std::string>>;

/** A DBA occupancy-bound cell and its grid configuration. */
struct BoundsCell
{
    double cpuUb;
    double gpuUb;
    std::size_t config;
};

/** A reactive-threshold scale and its grid configuration. */
struct ThresholdRow
{
    double scale;
    std::size_t config;
};

/** One fresh RLS model per run, warm-started from the offline weights,
 *  and the online policy that predicts with it. */
struct OnlineRlsPolicy : core::PowerPolicy
{
    ml::OnlineRidge model;
    ml::OnlineMlPolicy policy;

    OnlineRlsPolicy(const ml::RidgeRegression &offline,
                    ml::MlPolicyConfig cfg)
        : model(static_cast<std::size_t>(ml::kNumFeatures), 10.0, 0.995),
          policy(&model, 17, cfg)
    {
        model.warmStart(offline);
    }

    photonic::WlState
    nextState(const core::WindowObservation &obs) override
    {
        return policy.nextState(obs);
    }

    const char *name() const override { return "online-ml"; }
};

/**
 * DBA design space: FCFS (no allocation), the paper's 25%-step ladder,
 * and proportional allocation quantised at 6.25%, 12.5% and 25% steps.
 */
void
dbaStrategy(const bench::Grid &grid, const Rows &variants)
{
    bench::banner("Ablation — DBA allocation strategy and step size",
                  "Section III-B design-space discussion");

    TextTable t({"variant", "thru (flits/cyc)", "avg lat (cyc)",
                 "CPU pkts", "GPU pkts"});
    for (const auto &[config, name] : variants) {
        const auto avg = grid.result(config, name).avg;
        t.addRow({name, TextTable::num(avg.throughputFlitsPerCycle, 3),
                  TextTable::num(avg.avgLatencyCycles, 0),
                  std::to_string(avg.cpuPackets),
                  std::to_string(avg.gpuPackets)});
    }
    t.print(std::cout);
}

/**
 * DBA occupancy upper bounds.  The paper determined beta_CPU-UpperBound
 * = 16% and beta_GPU-UpperBound = 6% by brute-force search on a held-out
 * benchmark set; this sweeps the neighbourhood.
 */
void
dbaBounds(const bench::Grid &grid, const std::vector<BoundsCell> &cells)
{
    bench::banner("Ablation — DBA occupancy upper bounds",
                  "Section III-B threshold search");

    TextTable t({"cpuUB", "gpuUB", "thru (flits/cyc)", "avg lat",
                 "CPU pkts", "GPU pkts"});
    for (const BoundsCell &c : cells) {
        const auto avg = grid.result(c.config, "sweep").avg;
        t.addRow({TextTable::pct(c.cpuUb, 0), TextTable::pct(c.gpuUb, 0),
                  TextTable::num(avg.throughputFlitsPerCycle, 3),
                  TextTable::num(avg.avgLatencyCycles, 0),
                  std::to_string(avg.cpuPackets),
                  std::to_string(avg.gpuPackets)});
    }
    t.print(std::cout);
    std::cout << "\n(The paper's operating point is cpuUB=16%, "
                 "gpuUB=6%.)\n";
}

/**
 * The reactive thresholds "were chosen to balance performance
 * (throughput) and power saving and can be changed to favor either":
 * the four thresholds scaled jointly, against the static 64WL baseline.
 */
void
reactiveThresholds(const bench::Grid &grid, std::size_t baseline,
                   const std::vector<ThresholdRow> &rows)
{
    bench::banner("Ablation — Reactive power-scaling thresholds",
                  "Section III-C threshold trade-off");

    const auto base = grid.result(baseline, "64WL").avg;
    TextTable t({"threshold scale", "thru (flits/cyc)", "thru loss",
                 "laser (W)", "savings"});
    t.addRow({"(64WL baseline)",
              TextTable::num(base.throughputFlitsPerCycle, 3), "-",
              TextTable::num(base.laserPowerW, 3), "-"});
    for (const ThresholdRow &r : rows) {
        const auto avg = grid.result(r.config, "Dyn").avg;
        t.addRow({TextTable::num(r.scale, 2),
                  TextTable::num(avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(1.0 - avg.throughputFlitsPerCycle /
                                           base.throughputFlitsPerCycle),
                  TextTable::num(avg.laserPowerW, 3),
                  TextTable::pct(1.0 -
                                 avg.laserPowerW / base.laserPowerW)});
    }
    t.print(std::cout);
    std::cout << "\nHigher thresholds favour power savings; lower "
                 "thresholds favour throughput.\n";
}

/**
 * The ML label choice.  The paper predicts *injected packets* rather
 * than buffer utilisation because utilisation depends on the wavelength
 * state itself.  One model per label is trained on data collected under
 * random wavelength states, then scored under a shifted (fixed-state)
 * distribution.
 */
void
mlLabel(const traffic::BenchmarkSuite &suite)
{
    bench::banner("Ablation — ML label: injected packets vs buffer "
                  "utilization",
                  "Section IV-A label-choice discussion");

    ml::PipelineConfig cfg;
    cfg.reservationWindow = 500;
    cfg.simCycles = envU64("PEARL_BENCH_TRAIN", 30000);
    const ml::TrainingPipeline pipeline(suite, cfg);

    auto train_pairs = suite.trainingPairs();
    train_pairs.resize(6); // one row per training CPU benchmark suffices
    auto test_pairs = bench::testPairs(suite);

    TextTable t({"label", "train NRMSE (random states)",
                 "test NRMSE (policy states)"});
    for (auto label : {ml::LabelKind::InjectedPackets,
                       ml::LabelKind::BufferUtilization}) {
        // Train under random states, seeds 11..16, the pairs run
        // concurrently through one random stream.
        const std::uint64_t first_seed = 10;
        const ml::Dataset train = pipeline.collectRandom(
            train_pairs, first_seed, core::RandomPolicy(Rng(42), false),
            label);
        ml::RidgeRegression model;
        model.fit(train, 1.0);
        const double train_nrmse =
            ml::nrmseFit(train.labels, model.predictAll(train));

        // Test under a *fixed-state* policy: a distribution shift the
        // wavelength-dependent label suffers from.  The test pairs take
        // the seeds after the training pairs'.
        const ml::Dataset test = pipeline.collectAll(
            test_pairs, first_seed + train_pairs.size(),
            [] {
                return std::make_unique<core::StaticPolicy>(
                    photonic::WlState::WL16);
            },
            label);
        const double test_nrmse =
            ml::nrmseFit(test.labels, model.predictAll(test));

        t.addRow({label == ml::LabelKind::InjectedPackets
                      ? "injected packets (paper)"
                      : "buffer utilization (rejected)",
                  TextTable::num(train_nrmse, 3),
                  TextTable::num(test_nrmse, 3)});
    }
    t.print(std::cout);
    std::cout
        << "\nReading the result: the paper argues the injected-packet\n"
           "label is robust because cores 'try to inject regardless of\n"
           "the laser power state'.  That holds for trace-driven\n"
           "injection; in this closed-loop system the packets a router\n"
           "*accepts* per window shrink when a low state backpressures\n"
           "the buffers, so the injected-packet label also shifts with\n"
           "the state distribution.  Whichever label scores worse under\n"
           "the shift here, the control-theoretic argument for the\n"
           "packet label stands: the occupancy label saturates at full\n"
           "buffers and cannot distinguish demand beyond capacity.\n";
}

/**
 * Reservation-assisted SWMR (PEARL's choice) vs token-ring MWSR
 * (Corona-style).  The paper picks R-SWMR "to reduce the hardware
 * complexity and control while minimizing the latency"; both crossbars
 * are driven with identical synthetic traffic across loads, and the
 * MWSR's token-arbitration wait is measured directly.
 */
void
swmrVsMwsr()
{
    bench::banner("Ablation — R-SWMR vs token-arbitrated MWSR",
                  "Section II-A / III-A3 design rationale");

    photonic::PowerModel power;
    const std::vector<double> loads = {0.02, 0.05, 0.1, 0.2, 0.4};

    TextTable t({"load (flits/src/cyc)", "SWMR lat", "MWSR lat",
                 "MWSR token wait", "SWMR thru", "MWSR thru"});
    for (double load : loads) {
        traffic::SyntheticConfig cfg;
        cfg.flitsPerSourcePerCycle = load;
        const sim::Cycle cycles = 20000;

        core::StaticPolicy policy(photonic::WlState::WL64);
        core::PearlNetwork swmr(core::PearlConfig{}, power,
                                core::DbaConfig{}, &policy);
        traffic::SyntheticInjector inj_a(cfg);
        for (sim::Cycle i = 0; i < cycles; ++i)
            inj_a.step(swmr);

        core::MwsrNetwork mwsr(core::MwsrConfig{}, power);
        traffic::SyntheticInjector inj_b(cfg);
        for (sim::Cycle i = 0; i < cycles; ++i)
            inj_b.step(mwsr);

        t.addRow({TextTable::num(load, 2),
                  TextTable::num(swmr.stats().avgLatency(), 1),
                  TextTable::num(mwsr.stats().avgLatency(), 1),
                  TextTable::num(mwsr.avgTokenWaitCycles(), 1),
                  TextTable::num(
                      swmr.stats().throughputFlitsPerCycle(cycles), 2),
                  TextTable::num(
                      mwsr.stats().throughputFlitsPerCycle(cycles), 2)});
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: R-SWMR wins latency at light-to-"
                 "moderate load because writers never wait for a token; "
                 "MWSR serialises writers per destination.\n";
}

/**
 * Flat trimming power (Table V's 26 uW/ring) vs the thermal drift +
 * heater feedback model: sweeps the ambient die temperature on FA+DCT
 * and reports trimming power and lock stability.
 */
void
thermal(const traffic::BenchmarkSuite &suite)
{
    bench::banner("Ablation — thermal trimming model vs flat Table V "
                  "figure",
                  "Section III-A1 thermal sensitivity");

    traffic::BenchmarkPair pair{suite.find("FA"), suite.find("DCT")};
    const auto opts = bench::runOptions();
    const sim::Cycle cycles = opts.measureCycles;

    TextTable t({"config", "trimming power (W)", "unlocked time",
                 "thru (flits/cyc)"});

    auto runOne = [&](const std::string &name, bool thermal,
                      double ambient) {
        core::PearlConfig cfg;
        cfg.useThermalModel = thermal;
        cfg.thermal.ambientC = ambient;
        photonic::PowerModel power;
        core::StaticPolicy policy(photonic::WlState::WL64);
        core::PearlNetwork net(cfg, power, core::DbaConfig{}, &policy);
        core::HeteroSystem system(
            net, pair, core::SystemConfig{},
            [&net](int n) { return &net.telemetryOf(n); });
        system.run(cycles);
        t.addRow({name,
                  TextTable::num(net.trimmingEnergyJ() /
                                     (cycles * cfg.cycleSeconds),
                                 4),
                  TextTable::pct(net.thermalUnlockedFraction()),
                  TextTable::num(net.stats().throughputFlitsPerCycle(
                                     cycles),
                                 3)});
    };

    runOne("flat 26 uW/ring (Table V)", false, 0.0);
    for (double ambient : {35.0, 45.0, 55.0, 62.0}) {
        runOne("thermal model, ambient " +
                   TextTable::num(ambient, 0) + " C",
               true, ambient);
    }
    t.print(std::cout);
    std::cout << "\nExpected shape: trimming power falls as the die "
                 "runs closer to the ring lock point, until the margin "
                 "vanishes and the rings start losing lock.\n";
}

/**
 * Extension: the paper's conclusion names "improving the prediction
 * accuracy" as the lever for further gains.  A recursive-least-squares
 * model warm-starts from the offline ridge model and keeps training on
 * every closed window at runtime; it is compared against the offline ML
 * policy and the reactive scaler on the test pairs, which the offline
 * model never saw.  `rows` starts with the 64WL baseline.
 */
void
onlineMl(const bench::Grid &grid, const Rows &rows)
{
    bench::banner("Extension — online (RLS) ML power scaling",
                  "Section V future work: better prediction accuracy");

    const auto base = grid.result(rows.front().first, "64WL").avg;
    TextTable t({"config", "thru (flits/cyc)", "thru vs 64WL",
                 "laser (W)", "savings"});
    for (const auto &[config, name] : rows) {
        const auto avg = grid.result(config, name).avg;
        t.addRow({name, TextTable::num(avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(avg.throughputFlitsPerCycle /
                                     base.throughputFlitsPerCycle -
                                 1.0),
                  TextTable::num(avg.laserPowerW, 3),
                  TextTable::pct(1.0 - avg.laserPowerW /
                                           base.laserPowerW)});
    }
    t.print(std::cout);
    std::cout
        << "\nReading the result: online refinement moves along the\n"
           "power/throughput frontier rather than dominating the offline\n"
           "point — it adapts toward the demand it observes, which in a\n"
           "closed loop is partially shaped by its own throttling.  The\n"
           "unthrottled-only training (see ml/online_ridge.hpp) bounds\n"
           "that feedback; the residual bias is the online analogue of\n"
           "the label-contamination issue the paper raises for the\n"
           "buffer-utilization label.\n";
}

} // namespace

int
main()
{
    traffic::BenchmarkSuite suite;

    // The online study's offline model, loaded or trained before any job
    // exists; it outlives the sweep, so the policy factories may point
    // into it.
    const ml::PipelineResult trained = bench::trainedModel(suite, 500);
    const ml::RidgeRegression *model = &trained.model;

    // The grid: every swept study's configurations, each added once, at
    // the default window (RW500).
    bench::Grid grid(suite);
    const core::PearlConfig cfg;
    const core::DbaConfig dyn;
    auto static64 = [] {
        return std::make_unique<core::StaticPolicy>(photonic::WlState::WL64);
    };

    // DBA strategy; the paper's ladder is PEARL-Dyn at static 64WL.
    const std::size_t dyn64 = grid.pearl("PEARL-Dyn 64WL", cfg, dyn, static64);
    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;
    Rows strategy = {
        {grid.pearl("PEARL-FCFS 64WL", cfg, fcfs, static64),
         "FCFS (no allocation)"},
        {dyn64, "Paper ladder (25% steps)"}};
    for (double step : {0.25, 0.125, 0.0625}) {
        core::DbaConfig prop;
        prop.mode = core::DbaConfig::Mode::Proportional;
        prop.stepFraction = step;
        const std::string name = "Proportional " + TextTable::pct(step, 2);
        strategy.emplace_back(grid.pearl(name, cfg, prop, static64), name);
    }

    // DBA bounds; the paper's 16%/6% cell is the ladder.
    std::vector<BoundsCell> bounds;
    for (double cpu_ub : {0.08, 0.16, 0.32}) {
        for (double gpu_ub : {0.03, 0.06, 0.12}) {
            core::DbaConfig dba;
            const bool paper = cpu_ub == dba.cpuUpperBound &&
                               gpu_ub == dba.gpuUpperBound;
            dba.cpuUpperBound = cpu_ub;
            dba.gpuUpperBound = gpu_ub;
            bounds.push_back(
                {cpu_ub, gpu_ub,
                 paper ? dyn64
                       : grid.pearl("DBA bounds " +
                                        TextTable::pct(cpu_ub, 0) + "/" +
                                        TextTable::pct(gpu_ub, 0),
                                    cfg, dba, static64)});
        }
    }

    // Reactive thresholds scaled jointly; scale 1 is Dyn RW500.
    const std::size_t dyn500 = grid.pearl("Dyn RW500", cfg, dyn, [] {
        return std::make_unique<core::ReactivePolicy>();
    });
    std::vector<ThresholdRow> thresholds;
    for (double scale : {0.5, 1.0, 2.0, 4.0}) {
        core::ReactiveThresholds thr;
        thr.upper *= scale;
        thr.midUpper *= scale;
        thr.midLower *= scale;
        thr.lower *= scale;
        thresholds.push_back(
            {scale,
             scale == 1.0
                 ? dyn500
                 : grid.pearl("Dyn RW500 thresholds x" +
                                  TextTable::num(scale, 2),
                              cfg, dyn, [thr] {
                                  return std::make_unique<
                                      core::ReactivePolicy>(thr);
                              })});
    }

    // Online RLS against the offline ML policy.
    const ml::MlPolicyConfig pol;
    const Rows online = {
        {dyn64, "64WL"},
        {dyn500, "Dyn RW500"},
        {grid.pearl("ML RW500", cfg, dyn,
                    [model, pol] {
                        return std::make_unique<ml::MlPowerPolicy>(model,
                                                                   pol);
                    }),
         "ML RW500 (offline)"},
        {grid.pearl("ML RW500 online RLS", cfg, dyn,
                    [model, pol] {
                        return std::make_unique<OnlineRlsPolicy>(*model,
                                                                 pol);
                    }),
         "ML RW500 (online RLS)"}};

    grid.run();
    dbaStrategy(grid, strategy);
    dbaBounds(grid, bounds);
    reactiveThresholds(grid, dyn64, thresholds);
    mlLabel(suite);
    swmrVsMwsr();
    thermal(suite);
    onlineMl(grid, online);
    grid.printFooter();
    return 0;
}
