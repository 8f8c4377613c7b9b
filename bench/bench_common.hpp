/**
 * @file
 * Shared infrastructure for the figure/table reproduction benches.
 *
 * Each table bench regenerates one table of the paper; `bench_figures`
 * regenerates Figs. 4-11 from one shared grid.  Run lengths and pair
 * counts are environment-tunable so a quick smoke run is possible:
 *   PEARL_BENCH_CYCLES   measurement cycles per run   (default 60000)
 *   PEARL_BENCH_WARMUP   warmup cycles per run        (default 10000)
 *   PEARL_BENCH_PAIRS    test pairs to use, 0 = all   (default 0)
 *   PEARL_BENCH_TRAIN    training cycles per pair     (default 30000)
 *   PEARL_BENCH_TRAIN_PAIRS  training pairs, 0 = all  (default 0)
 *   PEARL_BENCH_CSV      also print CSV               (default 0)
 *   PEARL_THREADS        sweep job worker threads; 1 = serial
 *                        (default: hardware concurrency)
 *   PEARL_TRACE          per-window event tracing     (default 0)
 *   PEARL_TRACE_PATH     trace file stem (".jsonl" -> JSONL backend,
 *                        else Chrome trace; one file per sweep job)
 *   PEARL_METRICS_DUMP   append canonical RunMetrics CSV rows here
 *
 * The (config x pair) grids run through the `metrics::Runner` facade
 * (parallel sweep engine underneath), so they scale with cores while
 * staying bit-identical to a serial run (each job's seed is derived
 * from (base seed, job index), never from scheduling order).
 *
 * Trained ridge models are saved in the working directory as
 * pearl_ml_rw<RW>_train<cycles>_pairs<pairs>_v<schema>.model, named
 * after the two PEARL_BENCH_TRAIN* knobs and kModelSchema, and reloaded
 * by later runs with the same window, training budget and schema.
 */

#ifndef PEARL_BENCH_COMMON_HPP
#define PEARL_BENCH_COMMON_HPP

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "metrics/experiment.hpp"
#include "metrics/runner.hpp"
#include "metrics/sweep.hpp"
#include "ml/pipeline.hpp"
#include "ml/policy.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace bench {

inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    return pearl::envU64(name, fallback);
}

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
 * names `bench` and has results, and every `live_key` value in it is
 * positive.  The bench smoke tests assert exactly this.
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
         {jsonMember({"bench", jsonStr(bench)}), jsonStr("results")}) {
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

/** Emit the table, optionally with a CSV copy. */
inline void
emit(const TextTable &table)
{
    table.print(std::cout);
    if (envU64("PEARL_BENCH_CSV", 0)) {
        std::cout << "\n--- csv ---\n";
        table.printCsv(std::cout);
    }
}

/** Print the standard bench banner. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::cout << "== PEARL reproduction: " << what << " ==\n"
              << "   (paper reference: " << paper_ref << ")\n\n";
}

/**
 * Run a spec grid through the metrics::Runner facade (environment
 * configured: trace/dump knobs + PEARL_THREADS) and return the metrics
 * in submission order (fatal on failure).  `summary`, if given,
 * receives the sweep's timing for a bench footer.
 */
inline std::vector<metrics::RunMetrics>
runGrid(const std::vector<metrics::RunSpec> &specs,
        metrics::SweepSummary *summary = nullptr)
{
    const metrics::SweepResult result = metrics::Runner().sweep(specs);
    if (const metrics::SweepJobResult *bad = result.firstError()) {
        fatal("sweep job '", bad->metrics.configName, "/",
              bad->metrics.pairLabel, "' failed: ", bad->error);
    }
    if (summary)
        *summary = result.summary;
    std::vector<metrics::RunMetrics> runs;
    runs.reserve(result.jobs.size());
    for (const auto &j : result.jobs)
        runs.push_back(j.metrics);
    return runs;
}

/** One configuration's per-pair runs and their average. */
struct ConfigResult
{
    std::string name;
    std::vector<metrics::RunMetrics> runs;
    metrics::RunMetrics avg;
};

/** Name a configuration's runs and average them over the pairs. */
inline ConfigResult
finish(std::string name, std::vector<metrics::RunMetrics> runs)
{
    ConfigResult r;
    r.avg = metrics::average(runs, "avg");
    r.avg.configName = name;
    r.name = std::move(name);
    r.runs = std::move(runs);
    return r;
}

/**
 * Version of the simulator that trains the bench models.  Bump it with
 * every golden regeneration: a model trained before a behaviour change
 * is then retrained, not loaded.
 */
constexpr int kModelSchema = 1;

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
    ml::TrainingPipeline pipeline(suite, cfg);
    result = pipeline.run();
    std::ofstream out(path);
    result.model.save(out);
    std::cout << "[ml] trained: lambda " << result.bestLambda
              << ", validation NRMSE "
              << TextTable::num(result.validationNrmse, 3) << ", "
              << result.trainSamples << " samples -> cached to " << path
              << "\n";
    return result;
}

/** Run a PEARL configuration over all test pairs (one Runner spec per
 *  pair, executed in parallel) and return per-pair metrics. */
template <typename MakePolicy>
std::vector<metrics::RunMetrics>
runPearlGrid(const traffic::BenchmarkSuite &suite,
             const std::string &name, const core::PearlConfig &net_cfg,
             const core::DbaConfig &dba, MakePolicy &&make_policy)
{
    return runGrid(metrics::pearlGrid(
        name, testPairs(suite), net_cfg, dba,
        std::forward<MakePolicy>(make_policy), runOptions()));
}

/** Run the CMESH baseline over all test pairs through the Runner
 *  facade (same derived seeds as the PEARL configs). */
inline std::vector<metrics::RunMetrics>
runCmeshGrid(const traffic::BenchmarkSuite &suite,
             const std::string &name,
             const electrical::CmeshConfig &mesh)
{
    return runGrid(
        metrics::cmeshGrid(name, testPairs(suite), mesh, runOptions()));
}

} // namespace bench
} // namespace pearl

#endif // PEARL_BENCH_COMMON_HPP
