/**
 * @file
 * Shared infrastructure for the reproduction benches.
 *
 * `bench_paper` regenerates Tables I-V, Figs. 4-11 and the NRMSE table
 * and `bench_ablations` the ablations and extensions, each from one
 * shared Grid.  Run lengths and pair counts
 * are environment-tunable so a quick smoke run is possible:
 *   PEARL_BENCH_CYCLES   measurement cycles per run   (default 60000)
 *   PEARL_BENCH_WARMUP   warmup cycles per run        (default 10000)
 *   PEARL_BENCH_PAIRS    test pairs to use, 0 = all   (default 0)
 *   PEARL_BENCH_TRAIN    training cycles per pair     (default 30000)
 *   PEARL_BENCH_TRAIN_PAIRS  training pairs, 0 = all  (default 0)
 *   PEARL_THREADS        job worker threads for sweeps and training-
 *                        data collection; 1 = serial
 *                        (default: hardware concurrency)
 *   PEARL_TRACE          per-window event tracing     (default 0)
 *   PEARL_TRACE_PATH     trace file stem (".jsonl" -> JSONL backend,
 *                        else Chrome trace; one file per sweep job)
 *   PEARL_METRICS_DUMP   append canonical RunMetrics CSV rows here
 *
 * A Grid runs its (config x pair) jobs through the `metrics::Runner`
 * facade (parallel sweep engine underneath), so it scales with cores
 * while staying bit-identical to a serial run (each job's seed is
 * derived from its pair index, never from scheduling order).
 *
 * Trained ridge models are saved in the working directory as
 * pearl_ml_rw<RW>_train<cycles>_pairs<pairs>_v<schema>.model, named
 * after the two PEARL_BENCH_TRAIN* knobs and kModelSchema, and reloaded
 * by later runs with the same window, training budget and schema.
 */

#ifndef PEARL_BENCH_COMMON_HPP
#define PEARL_BENCH_COMMON_HPP

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"
#include "metrics/runner.hpp"
#include "metrics/sweep.hpp"
#include "ml/pipeline.hpp"
#include "ml/policy.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace bench {

/** Common run options from the environment. */
inline metrics::RunOptions
runOptions()
{
    metrics::RunOptions opts;
    opts.measureCycles = envU64("PEARL_BENCH_CYCLES", 60000);
    opts.warmupCycles = envU64("PEARL_BENCH_WARMUP", 10000);
    return opts;
}

/** Process CPU time (user + system, all threads).  Immune to VM steal
 *  and host contention, which swing wall clock on shared boxes by tens
 *  of percent; bench_ext_scaling's host columns clock on this. */
inline double
cpuSeconds()
{
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
           double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

/** " in <s> s on <n> threads" for the [ml] lines: the wall time since
 *  `start` and the job-loop budget the collections ran on. */
inline std::string
wallOnThreads(std::chrono::steady_clock::time_point start)
{
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const unsigned threads = resolveThreads(0);
    return " in " + TextTable::num(wall, 2) + " s on " +
           std::to_string(threads) + " thread" +
           (threads == 1 ? "" : "s");
}

// JSON of bench_ext_scaling (BENCH_scaling.json).

/** One `"key": value` member; the value is JSON text (jsonNum, jsonStr,
 *  jsonInline, jsonLines). */
using JsonMember = std::pair<std::string, std::string>;

template <typename T>
std::string
jsonNum(T v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

inline std::string
jsonStr(const std::string &s)
{
    return "\"" + s + "\"";
}

inline std::string
jsonMember(const JsonMember &m)
{
    return jsonStr(m.first) + ": " + m.second;
}

/** An object on one line: `{"a": 1, "b": 2}`. */
inline std::string
jsonInline(const std::vector<JsonMember> &members)
{
    std::string out = "{";
    for (std::size_t i = 0; i < members.size(); ++i)
        out += (i ? ", " : "") + jsonMember(members[i]);
    return out + "}";
}

/** An object or array with one item per line, nested `depth` levels
 *  deep (two spaces per level). */
inline std::string
jsonLines(char open, const std::vector<std::string> &items, char close,
          int depth)
{
    const std::string pad(static_cast<std::size_t>(2 * depth), ' ');
    std::string out(1, open);
    out += '\n';
    for (std::size_t i = 0; i < items.size(); ++i)
        out += pad + "  " + items[i] + (i + 1 < items.size() ? ",\n" : "\n");
    return out + pad + close;
}

/** Write `header` one member per line, then "results" with one row
 *  object per line. */
inline void
writeBenchJson(const std::string &path, std::vector<JsonMember> header,
               const std::vector<std::vector<JsonMember>> &results)
{
    std::vector<std::string> rows;
    for (const auto &row : results)
        rows.push_back(jsonInline(row));
    header.emplace_back("results", jsonLines('[', rows, ']', 1));
    std::vector<std::string> members;
    for (const JsonMember &m : header)
        members.push_back(jsonMember(m));
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    out << jsonLines('{', members, '}', 0) << "\n";
}

/**
 * Reread a bench JSON file and check that its brackets balance, it
 * names `bench`, the host's CPU count and the build type, and has
 * results, and every `live_key` value in it is positive.  The bench
 * smoke tests assert exactly this.
 */
inline void
validateBenchJson(const std::string &path, const std::string &bench,
                  const std::string &live_key)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot reopen ", path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    for (const std::string &key :
         {jsonMember({"bench", jsonStr(bench)}), jsonStr("host_cpus"),
          jsonStr("build_type"), jsonStr("results")}) {
        if (text.find(key) == std::string::npos)
            fatal(path, ": missing ", key);
    }
    long depth = 0;
    for (char c : text) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        if (depth < 0)
            fatal(path, ": unbalanced brackets");
    }
    if (depth != 0)
        fatal(path, ": unbalanced brackets");
    const std::string needle = jsonStr(live_key) + ": ";
    std::size_t found = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
        ++found;
        if (!(std::strtod(text.c_str() + pos + needle.size(), nullptr) >
              0.0))
            fatal(path, ": a row reports ", live_key, " <= 0");
    }
    if (found == 0)
        fatal(path, ": missing ", needle);
}

/** The benchmark pairs a figure aggregates over. */
inline std::vector<traffic::BenchmarkPair>
testPairs(const traffic::BenchmarkSuite &suite)
{
    auto pairs = suite.testPairs();
    const auto limit = envU64("PEARL_BENCH_PAIRS", 0);
    if (limit > 0 && pairs.size() > limit)
        pairs.resize(limit);
    return pairs;
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "== PEARL reproduction: " << what << " ==\n"
              << "   (paper reference: " << paper_ref << ")\n\n";
}

/** One configuration's per-pair runs and their average. */
struct ConfigResult
{
    std::string name;
    std::vector<metrics::RunMetrics> runs;
    metrics::RunMetrics avg;
};

/**
 * Configurations x the test pairs, run as one sweep through the
 * metrics::Runner facade (environment configured: trace/dump knobs +
 * PEARL_THREADS).  Pair i of every configuration runs on
 * deriveSeed(kBaseSeed, i), the seed a sweep of that configuration on
 * its own derives, so each configuration's rows equal a run of it
 * alone.  Add each distinct configuration once, run(), then read it
 * into every table that shows it.
 */
class Grid
{
  public:
    /** Base of the per-pair seed derivation. */
    static constexpr std::uint64_t kBaseSeed = 100;

    using MakePolicy = std::function<std::unique_ptr<core::PowerPolicy>()>;

    explicit Grid(const traffic::BenchmarkSuite &suite)
        : pairs_(testPairs(suite)), opts_(runOptions())
    {}

    /** Add a PEARL configuration; returns its index. */
    std::size_t
    pearl(const std::string &name, const core::PearlConfig &cfg,
          const core::DbaConfig &dba, MakePolicy make_policy)
    {
        return add(metrics::pearlGrid(name, pairs_, cfg, dba,
                                      std::move(make_policy), opts_));
    }

    /** Add a CMESH configuration; returns its index. */
    std::size_t
    cmesh(const std::string &name, const electrical::CmeshConfig &mesh)
    {
        return add(metrics::cmeshGrid(name, pairs_, mesh, opts_));
    }

    /** Run every job in one sweep; fatal if any job fails. */
    void
    run()
    {
        const metrics::SweepResult result = metrics::Runner().sweep(specs_);
        if (const metrics::SweepJobResult *bad = result.firstError()) {
            fatal("sweep job '", bad->metrics.configName, "/",
                  bad->metrics.pairLabel, "' failed: ", bad->error);
        }
        summary_ = result.summary;
        runs_.clear();
        configSeconds_.assign(specs_.size() / pairs_.size(), 0.0);
        for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            runs_.push_back(result.jobs[i].metrics);
            configSeconds_[i / pairs_.size()] += result.jobs[i].wallSeconds;
        }
    }

    /** After run(): configuration `config`'s runs, named `name`, and
     *  their average over the pairs. */
    ConfigResult
    result(std::size_t config, std::string name) const
    {
        PEARL_ASSERT((config + 1) * pairs_.size() <= runs_.size(),
                     "Grid::result before run() or past the last config");
        const auto first =
            runs_.begin() +
            static_cast<std::ptrdiff_t>(config * pairs_.size());
        ConfigResult r;
        r.runs.assign(first,
                      first + static_cast<std::ptrdiff_t>(pairs_.size()));
        r.avg = metrics::average(r.runs, "avg");
        r.avg.configName = name;
        r.name = std::move(name);
        return r;
    }

    /** After run(): the [sweep] footer, with jobs, threads, wall vs
     *  aggregate time, speedup, the per-phase split and each
     *  configuration's summed job seconds, in grid order. */
    void
    printFooter() const
    {
        const metrics::SweepSummary &s = summary_;
        std::cout << "[sweep] " << s.jobs << " jobs in one sweep on "
                  << s.threads << " thread" << (s.threads == 1 ? "" : "s")
                  << ": wall " << TextTable::num(s.wallSeconds, 2)
                  << " s, aggregate "
                  << TextTable::num(s.aggregateJobSeconds, 2)
                  << " s, speedup " << TextTable::num(s.speedup(), 2)
                  << "x\n";
        const metrics::PhaseTimings &p = s.phaseSeconds;
        if (p.totalSeconds() > 0.0) {
            std::cout << "[sweep] phases (aggregate): build "
                      << TextTable::num(p.buildSeconds, 2)
                      << " s, warmup " << TextTable::num(p.warmupSeconds, 2)
                      << " s, run " << TextTable::num(p.runSeconds, 2)
                      << " s, collect "
                      << TextTable::num(p.collectSeconds, 2) << " s\n";
        }
        for (std::size_t c = 0; c < configSeconds_.size(); ++c) {
            const double share =
                s.aggregateJobSeconds > 0.0
                    ? 100.0 * configSeconds_[c] / s.aggregateJobSeconds
                    : 0.0;
            std::cout << "[sweep] config '"
                      << specs_[c * pairs_.size()].configName
                      << "': " << TextTable::num(configSeconds_[c], 2)
                      << " s over " << pairs_.size() << " jobs, "
                      << TextTable::num(share, 1) << " % of aggregate\n";
        }
    }

  private:
    std::size_t
    add(std::vector<metrics::RunSpec> specs)
    {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            specs[i].explicitSeed = deriveSeed(kBaseSeed, i);
            specs_.push_back(std::move(specs[i]));
        }
        return specs_.size() / pairs_.size() - 1;
    }

    std::vector<traffic::BenchmarkPair> pairs_;
    metrics::RunOptions opts_;
    std::vector<metrics::RunSpec> specs_;
    std::vector<metrics::RunMetrics> runs_;
    /** Summed job wall seconds per configuration, from run(). */
    std::vector<double> configSeconds_;
    metrics::SweepSummary summary_;
};

/**
 * Version of the simulator that trains the bench models.  Bump it with
 * every golden regeneration: a model trained before a behaviour change
 * is then retrained, not loaded.
 */
constexpr int kModelSchema = 2;

/**
 * Load or train the ridge model for a reservation window.  The pipeline
 * mirrors Section IV-A: random-state first pass, policy-driven second
 * pass, lambda tuned on the validation pairs.  The model file is named
 * after the window, both training-budget knobs and kModelSchema, so a
 * model trained at another budget or by an older simulator is never
 * loaded.
 */
inline ml::PipelineResult
trainedModel(const traffic::BenchmarkSuite &suite, std::uint64_t rw)
{
    ml::PipelineConfig cfg;
    cfg.reservationWindow = rw;
    cfg.simCycles = envU64("PEARL_BENCH_TRAIN", 30000);
    cfg.maxTrainPairs =
        static_cast<int>(envU64("PEARL_BENCH_TRAIN_PAIRS", 0));
    cfg.secondPass = true;
    const std::string path =
        "pearl_ml_rw" + std::to_string(rw) + "_train" +
        std::to_string(cfg.simCycles) + "_pairs" +
        std::to_string(cfg.maxTrainPairs) + "_v" +
        std::to_string(kModelSchema) + ".model";

    ml::PipelineResult result;
    {
        std::ifstream in(path);
        if (in && result.model.load(in)) {
            std::cout << "[ml] loaded cached model " << path
                      << " (lambda " << result.model.lambda() << ")\n";
            result.bestLambda = result.model.lambda();
            return result;
        }
    }

    std::cout << "[ml] training ridge model for RW" << rw
              << " (cache miss; this runs the 36-pair pipeline)\n";
    const auto start = std::chrono::steady_clock::now();
    ml::TrainingPipeline pipeline(suite, cfg);
    result = pipeline.run();
    const std::string timing = wallOnThreads(start);
    std::ofstream out(path);
    result.model.save(out);
    std::cout << "[ml] trained: lambda " << result.bestLambda
              << ", validation NRMSE "
              << TextTable::num(result.validationNrmse, 3) << ", "
              << result.trainSamples << " samples" << timing
              << " -> cached to " << path << "\n";
    return result;
}

} // namespace bench
} // namespace pearl

#endif // PEARL_BENCH_COMMON_HPP
