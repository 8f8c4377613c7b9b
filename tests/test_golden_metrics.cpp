/**
 * @file
 * Golden-metrics regression suite.
 *
 * Runs a small fixed grid — 3 benchmark pairs x {FCFS, reactive, ML} at
 * short cycle counts — through the sweep engine and requires every
 * canonical CSV row to equal its checked-in line under tests/golden/
 * byte for byte.  Any drift in simulation output also fails with a
 * field-level diff naming the config, pair and field.  The CSV schema
 * (column set, order and value formatting) is the canonical one from
 * metrics/csv.hpp — the same one PEARL_METRICS_DUMP writes.
 *
 * Regenerate the golden files after an intentional behaviour change:
 *   PEARL_UPDATE_GOLDEN=1 ./test_golden_metrics
 * and commit the updated CSVs under tests/golden/.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/topology.hpp"
#include "metrics/csv.hpp"
#include "metrics/sweep.hpp"
#include "ml/pipeline.hpp"
#include "ml/policy.hpp"
#include "traffic/suite.hpp"

#ifndef PEARL_GOLDEN_DIR
#error "PEARL_GOLDEN_DIR must point at tests/golden"
#endif

namespace pearl {
namespace metrics {
namespace {

/** The fixed grid: one sweep per config over three test pairs. */
struct GoldenConfig
{
    std::string name;                       //!< also the CSV stem
    std::vector<RunSpec> jobs;
};

RunOptions
goldenOptions()
{
    RunOptions opts;
    opts.warmupCycles = 400;
    opts.measureCycles = 2500;
    return opts;
}

std::vector<traffic::BenchmarkPair>
goldenPairs(const traffic::BenchmarkSuite &suite)
{
    return {
        {suite.find("Rad"), suite.find("QRS")},
        {suite.find("FA"), suite.find("Reduc")},
        {suite.find("x264"), suite.find("DCT")},
    };
}

/** Tiny deterministic training run for the ML column (fixed pipeline
 *  seed; no model-file involvement, so the test is state-free). */
const ml::PipelineResult &
goldenModel(const traffic::BenchmarkSuite &suite)
{
    static const ml::PipelineResult trained = [&suite] {
        ml::PipelineConfig cfg;
        cfg.reservationWindow = 500;
        cfg.simCycles = 4000;
        cfg.maxTrainPairs = 2;
        cfg.maxValPairs = 1;
        cfg.secondPass = false;
        cfg.lambdaGrid = {0.1, 10.0};
        return ml::TrainingPipeline(suite, cfg).run();
    }();
    return trained;
}

std::vector<GoldenConfig>
goldenGrid(const traffic::BenchmarkSuite &suite)
{
    const RunOptions opts = goldenOptions();
    const auto pairs = goldenPairs(suite);

    std::vector<GoldenConfig> grid;
    auto addConfig =
        [&](const std::string &name, const core::DbaConfig &dba,
            std::function<std::unique_ptr<core::PowerPolicy>()> make) {
            GoldenConfig cfg;
            cfg.name = name;
            for (const auto &pair : pairs) {
                RunSpec job;
                job.configName = name;
                job.pair = pair;
                job.options = opts;
                job.dba = dba;
                job.pearl.reservationWindow = 500;
                job.makePolicy = make;
                cfg.jobs.push_back(std::move(job));
            }
            grid.push_back(std::move(cfg));
        };

    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;
    addConfig("fcfs", fcfs, [] {
        return std::make_unique<core::StaticPolicy>(
            photonic::WlState::WL64);
    });
    addConfig("reactive", core::DbaConfig{}, [] {
        return std::make_unique<core::ReactivePolicy>();
    });
    const ml::RidgeRegression &model = goldenModel(suite).model;
    addConfig("ml", core::DbaConfig{}, [&model] {
        return std::make_unique<ml::MlPowerPolicy>(&model);
    });
    return grid;
}

std::string
goldenPath(const std::string &config)
{
    return std::string(PEARL_GOLDEN_DIR) + "/" + config + ".csv";
}

void
writeGolden(const GoldenConfig &cfg,
            const std::vector<RunMetrics> &runs)
{
    const std::string path = goldenPath(cfg.name);
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << csvHeader({"pair"}) << "\n";
    for (const RunMetrics &m : runs)
        out << csvRow({m.pairLabel}, m) << "\n";
}

/** Split one CSV line on commas (no quoting: labels never contain
 *  commas). */
std::vector<std::string>
splitCsvLine(const std::string &line)
{
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ','))
        cells.push_back(cell);
    return cells;
}

void
compareGolden(const GoldenConfig &cfg,
              const std::vector<RunMetrics> &runs)
{
    const std::string path = goldenPath(cfg.name);
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — regenerate with PEARL_UPDATE_GOLDEN=1";

    std::string line;
    ASSERT_TRUE(std::getline(in, line)) << "empty golden " << path;
    const std::vector<std::string> header = splitCsvLine(line);

    for (const RunMetrics &m : runs) {
        ASSERT_TRUE(std::getline(in, line))
            << path << ": fewer rows than the grid has runs";
        // The contract: the canonical row equals the golden line byte
        // for byte.  The field-level diff below only names what moved.
        EXPECT_EQ(line, csvRow({m.pairLabel}, m))
            << path << ": row for " << m.pairLabel
            << " is not byte-identical to the golden line";
        const std::vector<std::string> cells = splitCsvLine(line);
        const std::vector<MetricField> fields = metricFields(m);
        ASSERT_EQ(cells.size(), fields.size() + 1)
            << path << ": column count mismatch (stale golden format?)";
        EXPECT_EQ(cells[0], m.pairLabel) << path << ": row order drift";

        for (std::size_t i = 0; i < fields.size(); ++i) {
            const MetricField &f = fields[i];
            ASSERT_EQ(header[i + 1], f.name)
                << path << ": header mismatch at column " << i + 1;
            const std::string where = cfg.name + "/" + m.pairLabel +
                                      " field " + f.name;
            EXPECT_EQ(cells[i + 1], formatMetricValue(f)) << where;
        }
    }
    EXPECT_FALSE(std::getline(in, line))
        << path << ": more rows than the grid has runs";
}

/** RAII env-var override.  Set before the sweep workers launch and
 *  restored after they join, so the getenv inside worker threads never
 *  races a setenv. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

TEST(GoldenMetrics, FixedGridMatchesCheckedInResults)
{
    const bool update = pearl::envU64("PEARL_UPDATE_GOLDEN", 0) != 0;

    traffic::BenchmarkSuite suite;
    for (const GoldenConfig &cfg : goldenGrid(suite)) {
        SCOPED_TRACE("config " + cfg.name);
        SweepOptions so;
        so.baseSeed = 100;
        const SweepResult result = SweepRunner(so).run(cfg.jobs);
        ASSERT_TRUE(result.allOk())
            << (result.firstError() ? result.firstError()->error
                                    : "unknown");
        const std::vector<RunMetrics> runs = result.metricsOrThrow();

        // Sanity: the grid must simulate real traffic, or the goldens
        // would freeze trivial zeros.
        for (const RunMetrics &m : runs)
            ASSERT_GT(m.deliveredPackets, 0u);

        if (update) {
            writeGolden(cfg, runs);
            std::cout << "[golden] updated " << goldenPath(cfg.name)
                      << "\n";
        } else {
            compareGolden(cfg, runs);
        }
    }
}

/** The scale-out row: a 32-cluster grouped chip (2 waveguide groups of
 *  16, express inter-group slots) derived entirely from a TopologySpec,
 *  pinned with the same field-exact CSV machinery as the legacy grid. */
GoldenConfig
scale32Config(const traffic::BenchmarkSuite &suite)
{
    core::TopologySpec topo;
    topo.clusters = 32;
    GoldenConfig cfg;
    cfg.name = "scale32";
    for (const auto &pair : goldenPairs(suite)) {
        RunSpec job;
        job.configName = cfg.name;
        job.pair = pair;
        job.options = goldenOptions();
        job.options.system = core::makeSystemConfig(topo);
        job.pearl = topo.pearlConfig();
        job.makePolicy = [] {
            return std::make_unique<core::ReactivePolicy>();
        };
        cfg.jobs.push_back(std::move(job));
    }
    return cfg;
}

TEST(GoldenMetrics, Scale32GroupedRowsMatchCheckedInResults)
{
    const bool update = pearl::envU64("PEARL_UPDATE_GOLDEN", 0) != 0;

    traffic::BenchmarkSuite suite;
    const GoldenConfig cfg = scale32Config(suite);
    SCOPED_TRACE("config " + cfg.name);

    // The whole pinned run is invariant-audited: any express-slot
    // legality or packet-conservation violation on the grouped fabric
    // surfaces as a job failure here, not just as metric drift.
    ScopedEnv verify_env("PEARL_VERIFY", "1");
    SweepOptions so;
    so.baseSeed = 100;
    const SweepResult result = SweepRunner(so).run(cfg.jobs);
    ASSERT_TRUE(result.allOk())
        << (result.firstError() ? result.firstError()->error : "unknown");
    const std::vector<RunMetrics> runs = result.metricsOrThrow();
    for (const RunMetrics &m : runs)
        ASSERT_GT(m.deliveredPackets, 0u);

    if (update) {
        writeGolden(cfg, runs);
        std::cout << "[golden] updated " << goldenPath(cfg.name) << "\n";
    } else {
        compareGolden(cfg, runs);
    }
}

/** The electrical-baseline rows: the default 4x4 CMESH driven through
 *  the same sweep machinery — the reference fabric of every paper
 *  figure.  `cmesh` is the full-width mesh; `cmesh_link2` and
 *  `cmesh_link4` are Figure 5's "CMESH 32WL" and "CMESH 16WL" rows,
 *  whose links take 2 and 4 cycles per flit. */
GoldenConfig
cmeshConfig(const traffic::BenchmarkSuite &suite, const std::string &name,
            int link_cycles_per_flit)
{
    GoldenConfig cfg;
    cfg.name = name;
    for (const auto &pair : goldenPairs(suite)) {
        RunSpec job;
        job.configName = cfg.name;
        job.pair = pair;
        job.options = goldenOptions();
        job.fabric = RunSpec::Fabric::Cmesh;
        job.cmesh.linkCyclesPerFlit = link_cycles_per_flit;
        cfg.jobs.push_back(std::move(job));
    }
    return cfg;
}

void
checkCmeshGolden(const std::string &name, int link_cycles_per_flit)
{
    const bool update = pearl::envU64("PEARL_UPDATE_GOLDEN", 0) != 0;

    traffic::BenchmarkSuite suite;
    const GoldenConfig cfg = cmeshConfig(suite, name, link_cycles_per_flit);
    SCOPED_TRACE("config " + cfg.name);
    SweepOptions so;
    so.baseSeed = 100;
    const SweepResult result = SweepRunner(so).run(cfg.jobs);
    ASSERT_TRUE(result.allOk())
        << (result.firstError() ? result.firstError()->error : "unknown");
    const std::vector<RunMetrics> runs = result.metricsOrThrow();
    for (const RunMetrics &m : runs)
        ASSERT_GT(m.deliveredPackets, 0u);

    if (update) {
        writeGolden(cfg, runs);
        std::cout << "[golden] updated " << goldenPath(cfg.name) << "\n";
    } else {
        compareGolden(cfg, runs);
    }
}

TEST(GoldenMetrics, CmeshRowsMatchCheckedInResults)
{
    checkCmeshGolden("cmesh", 1);
}

TEST(GoldenMetrics, Cmesh32WlRowsMatchCheckedInResults)
{
    checkCmeshGolden("cmesh_link2", 2);
}

TEST(GoldenMetrics, Cmesh16WlRowsMatchCheckedInResults)
{
    checkCmeshGolden("cmesh_link4", 4);
}

} // namespace
} // namespace metrics
} // namespace pearl
