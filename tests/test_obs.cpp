/**
 * @file
 * Observability-plane tests: trace sinks and ring buffer, per-job trace
 * determinism across sweep thread counts, Chrome-trace JSON validity
 * with all four event categories, metrics-registry reconciliation with
 * RunMetrics, and the zero-cost-when-off guarantee (traced and untraced
 * runs produce byte-identical canonical CSV rows, matching the
 * checked-in goldens).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/csv.hpp"
#include "metrics/runner.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "traffic/suite.hpp"

#ifndef PEARL_GOLDEN_DIR
#error "PEARL_GOLDEN_DIR must point at tests/golden"
#endif

namespace pearl {
namespace {

// --------------------------------------------------------------------------
// Helpers

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Drop the lines of the only nondeterministic category ("sweep" phase
 *  events carry wall-clock seconds); everything else must be
 *  byte-identical across sweep thread counts. */
std::string
withoutSweepLines(const std::string &text)
{
    std::istringstream in(text);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("\"cat\":\"sweep\"") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

/**
 * Minimal recursive-descent JSON validator — enough to prove the Chrome
 * trace file is well-formed (Perfetto/chrome://tracing parse it with a
 * full JSON parser).
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (i_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[i_])))
            ++i_;
    }

    bool
    eat(char c)
    {
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    value()
    {
        skipWs();
        if (i_ >= s_.size())
            return false;
        switch (s_[i_]) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
            return literal("true");
        case 'f':
            return literal("false");
        case 'n':
            return literal("null");
        default:
            return number();
        }
    }

    bool
    object()
    {
        if (!eat('{'))
            return false;
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            if (!value())
                return false;
            skipWs();
            if (eat('}'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool
    array()
    {
        if (!eat('['))
            return false;
        skipWs();
        if (eat(']'))
            return true;
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (eat(']'))
                return true;
            if (!eat(','))
                return false;
        }
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size()) {
            const char c = s_[i_];
            if (c == '"') {
                ++i_;
                return true;
            }
            if (c == '\\') {
                ++i_;
                if (i_ >= s_.size())
                    return false;
                const char esc = s_[i_];
                if (esc == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i_;
                        if (i_ >= s_.size() ||
                            !std::isxdigit(
                                static_cast<unsigned char>(s_[i_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(esc) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++i_;
        }
        return false;
    }

    bool
    number()
    {
        const std::size_t start = i_;
        if (eat('-')) {
        }
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                s_[i_] == '+' || s_[i_] == '-'))
            ++i_;
        return i_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(i_, w.size(), w) != 0)
            return false;
        i_ += w.size();
        return true;
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

/** Sink that records everything in memory for direct inspection. */
class RecordingSink : public obs::TraceSink
{
  public:
    void
    write(const obs::TraceEvent &event) override
    {
        events.push_back(event);
    }
    void
    close() override
    {
        ++closes;
    }

    std::vector<obs::TraceEvent> events;
    int closes = 0;
};

metrics::RunSpec
reactiveSpec(const traffic::BenchmarkPair &pair, sim::Cycle warmup,
             sim::Cycle measure)
{
    metrics::RunSpec spec;
    spec.configName = "reactive";
    spec.pair = pair;
    spec.options.warmupCycles = warmup;
    spec.options.measureCycles = measure;
    spec.fabric = metrics::RunSpec::Fabric::Pearl;
    spec.pearl.reservationWindow = 300;
    spec.makePolicy = [] {
        return std::make_unique<core::ReactivePolicy>();
    };
    return spec;
}

// --------------------------------------------------------------------------
// Tracer / sink units

TEST(Tracer, RingBufferFlushesPastCapacityAndOnFinish)
{
    auto owned = std::make_unique<RecordingSink>();
    RecordingSink *sink = owned.get();
    obs::Tracer tracer(std::move(owned), /*capacity=*/4);

    for (int i = 0; i < 10; ++i) {
        obs::TraceEvent e;
        e.cat = obs::Category::Wavelength;
        e.name = "e" + std::to_string(i);
        e.ts = static_cast<std::uint64_t>(i);
        tracer.record(std::move(e));
    }
    // Two full buffers flushed on the hot path, 2 events still pending.
    EXPECT_EQ(sink->events.size(), 8u);
    EXPECT_EQ(tracer.recorded(), 10u);

    tracer.finish();
    ASSERT_EQ(sink->events.size(), 10u);
    EXPECT_EQ(sink->closes, 1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(sink->events[static_cast<std::size_t>(i)].name,
                  "e" + std::to_string(i));

    // Late records are dropped, not resurrected.
    tracer.record(obs::TraceEvent{});
    tracer.finish();
    EXPECT_EQ(sink->events.size(), 10u);
    EXPECT_EQ(sink->closes, 1);
}

TEST(Tracer, JsonlSinkWritesOneObjectPerLine)
{
    const std::string path = "obs_test_unit.jsonl";
    {
        auto tracer = obs::makeTracer(path);
        obs::TraceEvent a;
        a.cat = obs::Category::Dba;
        a.name = "dba_window";
        a.ts = 300;
        a.arg("cpu_share_mean", 0.5);
        tracer->record(std::move(a));
        obs::TraceEvent b;
        b.cat = obs::Category::Fault;
        b.name = "weird \"name\"\nwith escapes";
        b.sarg("pair", "FA+DCT");
        tracer->record(std::move(b));
        tracer->finish();
    }
    std::istringstream in(slurp(path));
    std::string line;
    int lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(JsonValidator(line).valid())
            << "not a JSON object: " << line;
    }
    EXPECT_EQ(lines, 2);
    std::remove(path.c_str());
}

TEST(Tracer, ChromeSinkProducesValidJsonEvenWithEscapes)
{
    const std::string path = "obs_test_unit.json";
    {
        auto tracer = obs::makeTracer(path);
        obs::TraceEvent e;
        e.cat = obs::Category::Sweep;
        e.name = "quote\" backslash\\ tab\t";
        e.phase = 'X';
        e.ts = 1;
        e.dur = 2;
        e.arg("x", 1.25).sarg("s", "a\nb");
        tracer->record(std::move(e));
        tracer->finish();
    }
    const std::string text = slurp(path);
    EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_TRUE(JsonValidator(text).valid()) << text;
    std::remove(path.c_str());
}

TEST(Trace, JobTracePathEncodesJobConfigAndPair)
{
    obs::TraceOptions opts;
    opts.path = "trace.json";
    EXPECT_EQ(obs::jobTracePath(opts, 3, "fcfs", "FA+DCT"),
              "trace-job3-fcfs-FA_DCT.json");

    opts.path = "deep/stem.jsonl";
    EXPECT_EQ(obs::jobTracePath(opts, 0, "ml", "x264+QRS"),
              "deep/stem-job0-ml-x264_QRS.jsonl");
}

TEST(Trace, OptionsFromEnvironment)
{
    setenv("PEARL_TRACE", "true", 1);
    setenv("PEARL_TRACE_PATH", "from_env.jsonl", 1);
    const obs::TraceOptions opts = obs::TraceOptions::fromEnv();
    EXPECT_TRUE(opts.enabled);
    EXPECT_EQ(opts.path, "from_env.jsonl");
    unsetenv("PEARL_TRACE");
    unsetenv("PEARL_TRACE_PATH");

    const obs::TraceOptions off = obs::TraceOptions::fromEnv();
    EXPECT_FALSE(off.enabled);
    EXPECT_EQ(off.path, "pearl_trace.json");
}

// --------------------------------------------------------------------------
// Registry units

TEST(Registry, KindsAndDeterministicDump)
{
    obs::MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.counter("net.b") += 2;
    reg.counter("net.a") += 1;
    reg.counter("net.b") += 3;
    reg.gauge("power.laser_w") = 1.5;
    obs::HistogramSummary &h = reg.histogram("net.latency_cycles");
    h.count = 10;
    h.mean = 4.0;
    h.p50 = 3.0;
    h.p95 = 9.0;
    h.p99 = 9.5;

    EXPECT_EQ(reg.counters().at("net.b"), 5u);
    std::ostringstream oss;
    reg.write(oss);
    const std::string dump = oss.str();
    // Sorted name order: net.a before net.b; all three kinds present.
    EXPECT_LT(dump.find("counter,net.a,1"), dump.find("counter,net.b,5"));
    EXPECT_NE(dump.find("gauge,power.laser_w,1.5"), std::string::npos);
    EXPECT_NE(dump.find("histogram,net.latency_cycles,10"),
              std::string::npos);

    reg.clear();
    EXPECT_TRUE(reg.empty());
}

// --------------------------------------------------------------------------
// Integration: registry reconciles with RunMetrics

TEST(Obs, RegistryReconcilesExactlyWithRunMetrics)
{
    traffic::BenchmarkSuite suite;
    // warmup 0, so the registry's whole-run counters equal the
    // measurement-window RunMetrics totals exactly.
    metrics::RunSpec spec = reactiveSpec(
        {suite.find("FA"), suite.find("DCT")}, 0, 1500);
    obs::MetricsRegistry reg;
    spec.options.registry = &reg;
    const metrics::RunMetrics m = metrics::executeSpec(spec, 7);

    ASSERT_GT(m.deliveredPackets, 0u);
    EXPECT_EQ(reg.counters().at("net.delivered_packets"),
              m.deliveredPackets);
    EXPECT_EQ(reg.counters().at("net.delivered_flits"),
              m.deliveredFlits);
    EXPECT_EQ(reg.counters().at("net.delivered_bits"), m.deliveredBits);
    EXPECT_EQ(reg.counters().at("net.cpu_delivered_packets"),
              m.cpuPackets);
    EXPECT_EQ(reg.counters().at("net.gpu_delivered_packets"),
              m.gpuPackets);
    EXPECT_EQ(reg.counters().at("net.corrupted_packets"),
              m.corruptedPackets);
    EXPECT_EQ(reg.counters().at("net.reservation_drops"),
              m.reservationDrops);
    EXPECT_EQ(reg.counters().at("net.retransmitted_packets"),
              m.retransmittedPackets);
    EXPECT_EQ(reg.counters().at("net.ack_timeouts"), m.ackTimeouts);
    EXPECT_EQ(reg.counters().at("net.dropped_packets"),
              m.droppedPackets);
    EXPECT_EQ(reg.counters().at("net.thermal_unlocked_cycles"),
              m.thermalUnlockedCycles);
    EXPECT_DOUBLE_EQ(reg.gauges().at("net.avg_latency_cycles"),
                     m.avgLatencyCycles);
    EXPECT_DOUBLE_EQ(reg.gauges().at("power.laser_w"), m.laserPowerW);
    EXPECT_DOUBLE_EQ(reg.gauges().at("power.energy_per_bit_pj"),
                     m.energyPerBitPj);

    // Latency histogram fed from the reservoir sampler.
    const obs::HistogramSummary &h =
        reg.histograms().at("net.latency_cycles");
    EXPECT_GT(h.count, 0u);
    EXPECT_LE(h.p50, h.p95);
    EXPECT_LE(h.p95, h.p99);

    // Fault plane (disabled here) and per-router telemetry publish too.
    EXPECT_EQ(reg.counters().at("fault.bank_failures"), 0u);
    EXPECT_DOUBLE_EQ(reg.gauges().at("fault.enabled"), 0.0);
    EXPECT_TRUE(reg.counters().count("router0.packets_injected"));
    EXPECT_TRUE(reg.gauges().count("router0.dba_cpu_share_mean"));
}

TEST(Obs, RegistryCountsChipWideMshrWaitsOnBothFabrics)
{
    // Two MSHR entries per core type keep FA+DCT's misses waiting; both
    // fabrics publish the chip-wide sums as cache.mshr_waits.*.
    traffic::BenchmarkSuite suite;
    for (const auto fabric : {metrics::RunSpec::Fabric::Pearl,
                              metrics::RunSpec::Fabric::Cmesh}) {
        metrics::RunSpec spec = reactiveSpec(
            {suite.find("FA"), suite.find("DCT")}, 0, 1500);
        spec.fabric = fabric;
        spec.options.system.hierarchy.cpuL2MshrEntries = 2;
        spec.options.system.hierarchy.gpuL2MshrEntries = 2;
        obs::MetricsRegistry reg;
        spec.options.registry = &reg;
        metrics::executeSpec(spec, 7);
        EXPECT_GT(reg.counters().at("cache.mshr_waits.cpu"), 0u);
        EXPECT_GT(reg.counters().at("cache.mshr_waits.gpu"), 0u);
    }
}

// --------------------------------------------------------------------------
// Integration: trace determinism and zero cost

TEST(Obs, PerJobTracesAreIdenticalAcrossSweepThreadCounts)
{
    // The test owns the thread count; neutralise any ambient override.
    unsetenv("PEARL_THREADS");

    traffic::BenchmarkSuite suite;
    const std::vector<traffic::BenchmarkPair> pairs = {
        {suite.find("Rad"), suite.find("QRS")},
        {suite.find("FA"), suite.find("Reduc")},
        {suite.find("x264"), suite.find("DCT")},
    };
    std::vector<metrics::RunSpec> jobs;
    for (const auto &pair : pairs)
        jobs.push_back(reactiveSpec(pair, 100, 900));

    struct Run
    {
        unsigned threads;
        std::vector<std::string> filtered; //!< per-job trace, no "sweep"
        std::vector<double> throughput;
    };
    std::vector<Run> runs;
    for (unsigned threads : {1u, 2u, 8u}) {
        metrics::SweepOptions so;
        so.threads = threads;
        so.baseSeed = 42;
        so.trace.enabled = true;
        so.trace.path =
            "obs_test_det_t" + std::to_string(threads) + ".jsonl";
        const metrics::SweepResult result =
            metrics::SweepRunner(so).run(jobs);
        ASSERT_TRUE(result.allOk());

        Run run;
        run.threads = threads;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const std::string path = obs::jobTracePath(
                so.trace, i, jobs[i].configName, jobs[i].pair.label());
            const std::string raw = slurp(path);
            EXPECT_GT(raw.size(), 0u) << path;
            run.filtered.push_back(withoutSweepLines(raw));
            std::remove(path.c_str());
        }
        for (const auto &j : result.jobs)
            run.throughput.push_back(j.metrics.throughputFlitsPerCycle);
        runs.push_back(std::move(run));
    }

    for (std::size_t r = 1; r < runs.size(); ++r) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(runs[0].filtered[i], runs[r].filtered[i])
                << "job " << i << " trace differs between "
                << runs[0].threads << " and " << runs[r].threads
                << " threads";
            EXPECT_EQ(runs[0].throughput[i], runs[r].throughput[i]);
        }
    }

    // The filtered trace still carries the deterministic categories.
    EXPECT_NE(runs[0].filtered[0].find("\"cat\":\"wavelength\""),
              std::string::npos);
    EXPECT_NE(runs[0].filtered[0].find("\"cat\":\"dba\""),
              std::string::npos);
    EXPECT_NE(runs[0].filtered[0].find("\"cat\":\"fault\""),
              std::string::npos);
}

TEST(Obs, ChromeTraceFromRunnerIsValidAndCarriesAllCategories)
{
    traffic::BenchmarkSuite suite;
    metrics::RunSpec spec = reactiveSpec(
        {suite.find("FA"), suite.find("Reduc")}, 200, 1200);

    const std::string path = "obs_test_runner_trace.json";
    metrics::RunnerOptions ro;
    ro.sweep.trace.enabled = true;
    ro.sweep.trace.path = path;
    const metrics::RunMetrics m = metrics::Runner(ro).run(spec);
    ASSERT_GT(m.deliveredPackets, 0u);

    const std::string text = slurp(path);
    EXPECT_TRUE(JsonValidator(text).valid())
        << "Chrome trace is not valid JSON";
    for (const char *cat : {"\"cat\":\"wavelength\"", "\"cat\":\"dba\"",
                            "\"cat\":\"fault\"", "\"cat\":\"sweep\""})
        EXPECT_NE(text.find(cat), std::string::npos)
            << "missing category " << cat;
    std::remove(path.c_str());
}

TEST(Obs, TracingIsZeroCostAndDisabledMatchesGolden)
{
    unsetenv("PEARL_THREADS");

    // The fcfs golden grid, exactly as test_golden_metrics runs it.
    traffic::BenchmarkSuite suite;
    const std::vector<traffic::BenchmarkPair> pairs = {
        {suite.find("Rad"), suite.find("QRS")},
        {suite.find("FA"), suite.find("Reduc")},
        {suite.find("x264"), suite.find("DCT")},
    };
    std::vector<metrics::RunSpec> jobs;
    for (const auto &pair : pairs) {
        metrics::RunSpec job;
        job.configName = "fcfs";
        job.pair = pair;
        job.options.warmupCycles = 400;
        job.options.measureCycles = 2500;
        job.dba.mode = core::DbaConfig::Mode::Fcfs;
        job.pearl.reservationWindow = 500;
        job.makePolicy = [] {
            return std::make_unique<core::StaticPolicy>(
                photonic::WlState::WL64);
        };
        jobs.push_back(std::move(job));
    }

    auto rowsOf = [&](bool traced) {
        metrics::SweepOptions so;
        so.baseSeed = 100;
        if (traced) {
            so.trace.enabled = true;
            so.trace.path = "obs_test_zerocost.jsonl";
        }
        const std::vector<metrics::RunMetrics> runs =
            metrics::SweepRunner(so).run(jobs).metricsOrThrow();
        std::vector<std::string> rows;
        for (const metrics::RunMetrics &m : runs)
            rows.push_back(metrics::csvRow({m.pairLabel}, m));
        if (traced) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                std::remove(obs::jobTracePath(so.trace, i, "fcfs",
                                              jobs[i].pair.label())
                                .c_str());
            }
        }
        return rows;
    };

    const std::vector<std::string> untraced = rowsOf(false);
    const std::vector<std::string> traced = rowsOf(true);
    ASSERT_EQ(untraced.size(), traced.size());
    for (std::size_t i = 0; i < untraced.size(); ++i)
        EXPECT_EQ(untraced[i], traced[i])
            << "tracing perturbed the metrics of job " << i;

    // Untraced rows reproduce the checked-in golden CSV byte for byte.
    std::ifstream golden(std::string(PEARL_GOLDEN_DIR) + "/fcfs.csv");
    ASSERT_TRUE(golden) << "missing tests/golden/fcfs.csv";
    std::string line;
    ASSERT_TRUE(std::getline(golden, line));
    EXPECT_EQ(line, metrics::csvHeader({"pair"}));
    for (std::size_t i = 0; i < untraced.size(); ++i) {
        ASSERT_TRUE(std::getline(golden, line)) << "golden too short";
        EXPECT_EQ(line, untraced[i]) << "golden row " << i << " drifted";
    }
}

// --------------------------------------------------------------------------
// Runner metrics dump (PEARL_METRICS_DUMP)

TEST(Obs, RunnerAppendsCanonicalCsvRowsToDumpFile)
{
    traffic::BenchmarkSuite suite;
    metrics::RunSpec spec = reactiveSpec(
        {suite.find("Rad"), suite.find("QRS")}, 100, 600);

    const std::string path = "obs_test_dump.csv";
    std::remove(path.c_str());
    metrics::RunnerOptions ro;
    ro.metricsDumpPath = path;
    const metrics::Runner runner(ro);
    const metrics::RunMetrics a = runner.run(spec);
    const metrics::RunMetrics b = runner.run(spec);

    std::istringstream in(slurp(path));
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, metrics::csvHeader({"config", "pair"}));
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, metrics::csvRow({a.configName, a.pairLabel}, a));
    ASSERT_TRUE(std::getline(in, line)); // appended, no second header
    EXPECT_EQ(line, metrics::csvRow({b.configName, b.pairLabel}, b));
    EXPECT_FALSE(std::getline(in, line));
    std::remove(path.c_str());
}

} // namespace
} // namespace pearl
