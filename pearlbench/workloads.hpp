/**
 * @file
 * The three benchmark workloads.  Each runs through the public run API
 * (metrics::runPearl for single runs, metrics::SweepRunner for the
 * figure grid) and has a traced twin built from the probes in
 * probes.hpp.  See README.md for why each workload exists.
 *
 * Simulation seeds are pinned per workload: with program phases that
 * last thousands of cycles, a short run's simulated results swing by
 * tens of percent between traffic seeds, which would drown every host
 * timing.  The benchmark seed instead orders the work: it shuffles the
 * order of a pass's simulations (and of a sweep's jobs), which moves
 * host-side effects such as cache warmth and the job pool's tail but
 * never a simulated result.
 */

#ifndef PEARLBENCH_WORKLOADS_HPP
#define PEARLBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "metrics/sweep.hpp"
#include "ml/pipeline.hpp"
#include "probes.hpp"

namespace pearlbench {

/** One operation: a simulation run or a sweep job. */
struct Op
{
    pearl::metrics::RunMetrics metrics;
    bool ok = false;
    bool pearl = true; //!< photonic fabric (has laser power/residency)
    std::string error;

    /** Identity across passes, whatever order they ran in. */
    std::string
    key() const
    {
        return metrics.configName + "/" + metrics.pairLabel;
    }
};

/** Everything one pass over a workload produced. */
struct RepResult
{
    std::vector<Op> ops;
    std::uint64_t simCycles = 0; //!< warmup + measure, all ops
    /** Sweep workloads: the summed summaries of the pass's sweeps. */
    pearl::metrics::SweepSummary sweep;
    double jobMaxS = 0.0; //!< slowest single sweep job
};

/** A named workload: set-up, an untraced pass and a traced pass. */
class Workload
{
  public:
    explicit Workload(std::uint64_t order_seed) : order_(order_seed) {}
    virtual ~Workload() = default;

    /**
     * One set-up pass: in-process ML training where the workload uses
     * the ML policy, then constructing (without running) every
     * network and system one pass simulates.  @return host seconds.
     */
    double setup();

    /** The measured pass, through the public run API. */
    virtual RepResult run() = 0;

    /** The same pass with every layer probe installed. */
    virtual RepResult traced(LayerTotals &totals,
                             PolicyCounters &policy) = 0;

    /** A second untraced pass whose rows must equal the traced ones
     *  (scale128_hub: one step lane instead of four), if any. */
    virtual std::optional<RepResult> reference() { return std::nullopt; }

    /** Step lanes each simulation runs on. */
    virtual unsigned lanes() const { return 1; }

    /** Seconds of the last ML training (0 when the workload has none). */
    double trainSeconds() const { return trainSeconds_; }

    /** The trained model, or null when the workload has none. */
    const pearl::ml::PipelineResult *
    model() const
    {
        return trained_ ? &*trained_ : nullptr;
    }

    /** False once two set-up passes trained different models. */
    bool setupDeterministic() const { return setupDeterministic_; }

  protected:
    /** Whether set-up trains the ML model. */
    virtual bool usesModel() const { return false; }

    /** Construct every simulation of one pass; @return host seconds. */
    virtual double construct() = 0;

    /** A fresh seeded permutation of [0, n) for the next pass. */
    std::vector<std::size_t> order(std::size_t n);

  private:
    void trainModel();

    pearl::Rng order_;
    std::optional<pearl::ml::PipelineResult> trained_;
    double trainSeconds_ = 0.0;
    bool setupDeterministic_ = true;
};

/** PEARL_THREADS budget a workload runs under (0 = unknown name). */
unsigned workloadThreads(const std::string &name);

/** Build a workload by name (null = unknown).  `order_seed` is the
 *  benchmark seed; `tiny` shrinks every run to a smoke-test length. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t order_seed, bool tiny);

} // namespace pearlbench

#endif // PEARLBENCH_WORKLOADS_HPP
