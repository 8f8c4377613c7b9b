/**
 * @file
 * Parallel sweep engine with deterministic replay and structured job
 * failures.
 *
 * Every figure/table bench and example runs a (configuration x
 * benchmark-pair) grid of independent `metrics::runExperiment`-style
 * simulations.  `SweepRunner` executes such a grid on a pool of worker
 * threads while guaranteeing that the results are *bit-identical* to a
 * serial run:
 *
 *  - each job's RNG stream is derived from (base seed, job index) with
 *    `deriveSeed` — never from shared global state or scheduling order;
 *  - results are returned in submission order regardless of completion
 *    order;
 *  - per-run state (network, system, policy) is constructed inside the
 *    worker, so jobs share nothing mutable.
 *
 * Job threads: an explicit `SweepOptions::threads` wins, else
 * `PEARL_THREADS`, else `usableCpus()` (`resolveThreads`);
 * `1` forces the serial path (no worker threads are spawned at all).
 * The jobs run on the job loop of `common/parallel.hpp`, which the ML
 * training pipeline shares; each job steps its simulation on the
 * thread that claimed it.
 *
 * Job failures (DESIGN.md "Resilience"):
 *
 *  - every spec is *validated* before it runs; a malformed config
 *    becomes a structured per-job failure (ErrorCode::InvalidConfig)
 *    with an actionable message, never UB or an abort;
 *  - a throwing job is captured as a structured failure in its result
 *    slot; `cancelOnError = false` lets the rest of the grid finish.
 *    A job is a function of (spec, seed), so a failed job is not
 *    replayed: the same seed would fail the same way.
 */

#ifndef PEARL_METRICS_SWEEP_HPP
#define PEARL_METRICS_SWEEP_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "electrical/cmesh.hpp"
#include "metrics/experiment.hpp"
#include "obs/trace.hpp"

namespace pearl {
namespace metrics {

/**
 * One runnable simulation: config + pair + seed + cycle counts (inside
 * `options`) + observability sinks.  This is the single run descriptor
 * of the `metrics::Runner` facade and one cell of a sweep grid.
 */
struct RunSpec
{
    /** Which fabric the descriptor fields drive (ignored if `custom`
     *  is set). */
    enum class Fabric { Pearl, Cmesh };

    std::string configName;           //!< stamped into RunMetrics
    std::string label;                //!< overrides pairLabel if set
    traffic::BenchmarkPair pair;
    RunOptions options;               //!< seed is replaced per job
    Fabric fabric = Fabric::Pearl;

    core::PearlConfig pearl;
    core::DbaConfig dba;
    /** Builds this job's private policy instance.  Called from a worker
     *  thread, so the factory must be safe to invoke concurrently with
     *  the other jobs' factories (capture only immutable state). */
    std::function<std::unique_ptr<core::PowerPolicy>()> makePolicy;

    electrical::CmeshConfig cmesh;

    /**
     * Custom runner: replaces the descriptor path entirely.  Receives
     * the spec and its effective seed and returns the metrics, into
     * which executeSpec stamps `configName` and a non-empty `label`,
     * as on the descriptor path.  Throwing
     * marks the job failed (and cancels the sweep when
     * `SweepOptions::cancelOnError` is set).  Custom runs manage their
     * own observability sinks; the sweep engine only auto-attaches
     * tracers on the descriptor path.
     */
    std::function<RunMetrics(const RunSpec &, std::uint64_t seed)> custom;

    /**
     * Fixed seed for this job instead of the derived (baseSeed, index)
     * stream — for grids where several cells must see identical traffic
     * (e.g. comparing policies under the same fault realisation).
     */
    std::optional<std::uint64_t> explicitSeed;
};

/** Sweep-wide knobs. */
struct SweepOptions
{
    /** Worker threads.  Nonzero pins the count; 0 — the default —
     *  resolves PEARL_THREADS, then usableCpus(). */
    unsigned threads = 0;
    /** Base of the per-job seed derivation. */
    std::uint64_t baseSeed = 100;
    /** Skip jobs that have not started once any job fails. */
    bool cancelOnError = true;
    /**
     * Observability plane: when `trace.enabled`, every descriptor-path
     * job gets its own Tracer writing to `jobTracePath(trace, i, ...)`
     * — one file per job, so trace bytes are independent of the thread
     * count.  Disabled (the default) costs nothing.
     */
    obs::TraceOptions trace;
};

/** Outcome of one job. */
struct SweepJobResult
{
    RunMetrics metrics;
    std::uint64_t seed = 0;     //!< effective seed the job ran with
    double wallSeconds = 0.0;
    PhaseTimings phases;        //!< build/warmup/run/collect split
    bool ok = false;
    bool skipped = false;       //!< cancelled before it started
    ErrorCode errorCode = ErrorCode::None; //!< failure class when !ok
    std::string error;          //!< failure reason when !ok
};

/** Aggregate timing of a sweep (for the bench summary footer). */
struct SweepSummary
{
    std::size_t jobs = 0;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    unsigned threads = 1;
    double wallSeconds = 0.0;          //!< whole-sweep wall time
    double aggregateJobSeconds = 0.0;  //!< sum of per-job wall times
    /** Sum of the per-job phase splits (observability plane). */
    PhaseTimings phaseSeconds;

    /** Aggregate-to-wall ratio: the parallel speedup actually achieved. */
    double
    speedup() const
    {
        return wallSeconds > 0.0 ? aggregateJobSeconds / wallSeconds : 1.0;
    }
};

/** Everything a sweep produced, in submission order. */
struct SweepResult
{
    std::vector<SweepJobResult> jobs;
    SweepSummary summary;

    bool
    allOk() const
    {
        for (const auto &j : jobs) {
            if (!j.ok)
                return false;
        }
        return true;
    }

    /** First failed (not merely skipped) job, or nullptr. */
    const SweepJobResult *
    firstError() const
    {
        for (const auto &j : jobs) {
            if (!j.ok && !j.skipped)
                return &j;
        }
        return nullptr;
    }

    /** Metrics of every job, in submission order.  @throws
     *  std::runtime_error if any job failed. */
    std::vector<RunMetrics> metricsOrThrow() const;
};

/**
 * Validate a run descriptor before any simulation state is built: the
 * run options, the fabric-specific network config (PearlConfig + DBA,
 * or CmeshConfig), the cache hierarchy and the policy factory.  Custom
 * jobs validate only the shared options — the custom callable owns the
 * rest.  Returns an actionable message naming the offending field.
 */
Validation validate(const RunSpec &spec);

/**
 * Execute one spec's simulation (descriptor or custom path) with the
 * given effective seed.  The descriptor path validates the spec first
 * (throwing ConfigError with the validation message) and honours the
 * spec's RunOptions sinks (tracer/registry/phases); this is the single
 * run engine beneath both SweepRunner and the metrics::Runner facade.
 */
RunMetrics executeSpec(const RunSpec &spec, std::uint64_t seed);

/** Job-loop executor for sweep grids. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

    /** Run all jobs; results come back in submission order. */
    SweepResult run(const std::vector<RunSpec> &jobs) const;

  private:
    SweepOptions opts_;
};

} // namespace metrics
} // namespace pearl

#endif // PEARL_METRICS_SWEEP_HPP
