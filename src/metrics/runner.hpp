/**
 * @file
 * The unified run API.
 *
 * `metrics::Runner` is the single entry point every bench, example and
 * test uses to execute simulations: a `RunSpec` (config + pair + seed +
 * cycles + sinks) goes in, `RunMetrics` comes out.  It folds together
 * what used to live in three places — the bench harness's
 * runPearlConfig/runCmeshConfig free functions, the examples'
 * hand-rolled loops and the raw `metrics::experiment` helpers — and
 * owns the observability-plane wiring:
 *
 *   PEARL_TRACE         enable per-window event tracing (default off)
 *   PEARL_TRACE_PATH    trace output stem (".jsonl" ext -> JSONL
 *                       backend, else Chrome trace format); sweeps
 *                       write one file per job
 *   PEARL_METRICS_DUMP  append every run's RunMetrics row (canonical
 *                       CSV schema from metrics/csv.hpp) to this file
 *
 * All three knobs parse with the strict warn-and-fallback contract of
 * common/env.hpp.  With every knob off, Runner adds nothing on top of
 * the sweep engine — runs stay bit-identical to the seed behaviour.
 */

#ifndef PEARL_METRICS_RUNNER_HPP
#define PEARL_METRICS_RUNNER_HPP

#include <string>
#include <vector>

#include "metrics/csv.hpp"
#include "metrics/sweep.hpp"

namespace pearl {
namespace metrics {

/** Runner-wide configuration (normally from the environment). */
struct RunnerOptions
{
    /** Sweep engine knobs, including `sweep.trace` (the trace sink). */
    SweepOptions sweep;
    /** Append canonical CSV rows here after each run/sweep ("" = off). */
    std::string metricsDumpPath;

    /** Defaults + PEARL_TRACE / PEARL_TRACE_PATH / PEARL_METRICS_DUMP. */
    static RunnerOptions fromEnv();
};

/** The unified facade: RunSpec in, RunMetrics out. */
class Runner
{
  public:
    /** Environment-configured runner (the common case). */
    Runner() : Runner(RunnerOptions::fromEnv()) {}
    explicit Runner(RunnerOptions opts) : opts_(std::move(opts)) {}

    /**
     * Execute one spec serially on the calling thread.  The effective
     * seed is `spec.explicitSeed` if set, else `spec.options.seed`
     * (no sweep-style derivation).  @throws std::runtime_error on
     * simulation failure.
     */
    RunMetrics run(const RunSpec &spec) const;

    /** Execute a grid through the parallel sweep engine; per-job
     *  results (including failures) come back in submission order. */
    SweepResult sweep(const std::vector<RunSpec> &specs) const;

    const RunnerOptions &options() const { return opts_; }

  private:
    void dumpMetrics(const std::vector<RunMetrics> &runs) const;

    RunnerOptions opts_;
};

// Spec builders — the grid shapes every figure bench uses. -------------

/** One Pearl-fabric spec per benchmark pair. */
std::vector<RunSpec>
pearlGrid(const std::string &config_name,
          const std::vector<traffic::BenchmarkPair> &pairs,
          const core::PearlConfig &net_cfg, const core::DbaConfig &dba,
          std::function<std::unique_ptr<core::PowerPolicy>()> make_policy,
          const RunOptions &opts);

/** One CMESH-baseline spec per benchmark pair. */
std::vector<RunSpec>
cmeshGrid(const std::string &config_name,
          const std::vector<traffic::BenchmarkPair> &pairs,
          const electrical::CmeshConfig &net_cfg, const RunOptions &opts);

} // namespace metrics
} // namespace pearl

#endif // PEARL_METRICS_RUNNER_HPP
