/**
 * @file
 * Layer probes for the traced benchmark run.
 *
 * Everything here observes the simulator from outside, through its
 * public interfaces only:
 *  - TimedNetwork decorates any sim::Network and times step()/inject(),
 *    counts refused injections and idle-fabric steps, and samples the
 *    system's outbox backlog once per cycle;
 *  - TimedPolicy decorates any core::PowerPolicy and times nextState();
 *  - tracedPearlRun()/tracedCmeshRun() wire those decorators in exactly
 *    as metrics::runPearl()/runCmesh() wire the bare objects, and derive
 *    RunMetrics with the same arithmetic, so a traced run's canonical
 *    CSV row must equal the untraced one byte for byte;
 *  - WarnTap counts protocol-anomaly `warn:` lines (L3 bank and cluster
 *    paths) on their way to stderr.
 */

#ifndef PEARLBENCH_PROBES_HPP
#define PEARLBENCH_PROBES_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>

#include "cache/cluster.hpp"
#include "cache/l3.hpp"
#include "core/power_policy.hpp"
#include "core/system.hpp"
#include "metrics/experiment.hpp"
#include "sim/network.hpp"

namespace pearlbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-layer host time and counts of one or more traced runs. */
struct LayerTotals
{
    double runS = 0.0;    //!< HeteroSystem::run, warmup + measure
    double stepS = 0.0;   //!< network step(), policy included
    double injectS = 0.0; //!< network inject()
    double probeS = 0.0;  //!< the probes' own sampling work
    std::uint64_t steps = 0;
    std::uint64_t idleSteps = 0; //!< steps taken on an idle fabric
    std::uint64_t injectCalls = 0;
    std::uint64_t injectRefused = 0;
    std::uint64_t outboxMax = 0;   //!< largest chip-wide outbox backlog
    double outboxSum = 0.0;        //!< chip-wide backlog summed per cycle
    std::uint64_t expressAcquired = 0;
    std::uint64_t expressStallCycles = 0;
    pearl::cache::ClusterStats cluster;
    pearl::cache::L3Stats l3;
    std::uint64_t memoryBusyStallCycles = 0;

    void merge(const LayerTotals &o);
};

/** Decision counters shared by every TimedPolicy of a workload (sweep
 *  jobs decide concurrently, hence the atomics). */
struct PolicyCounters
{
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> stateChanges{0};
    std::atomic<std::uint64_t> hostNs{0};

    double hostSeconds() const { return double(hostNs.load()) * 1e-9; }
};

/** Times and counts every nextState() of the wrapped policy. */
class TimedPolicy final : public pearl::core::PowerPolicy
{
  public:
    TimedPolicy(std::unique_ptr<pearl::core::PowerPolicy> inner,
                PolicyCounters &counters)
        : inner_(std::move(inner)), counters_(counters)
    {}

    pearl::photonic::WlState
    nextState(const pearl::core::WindowObservation &obs) override;

    const char *name() const override { return inner_->name(); }

  private:
    std::unique_ptr<pearl::core::PowerPolicy> inner_;
    PolicyCounters &counters_;
};

/** Times step()/inject() of the wrapped network; forwards the rest. */
class TimedNetwork final : public pearl::sim::Network
{
  public:
    TimedNetwork(pearl::sim::Network &inner, LayerTotals &totals)
        : inner_(inner), totals_(totals)
    {}

    /** Sample `outboxes` outbox depths of `sys` before every step. */
    void
    watchOutboxes(const pearl::core::HeteroSystem *sys, int outboxes)
    {
        system_ = sys;
        outboxes_ = outboxes;
    }

    bool inject(const pearl::sim::Packet &pkt) override;
    void step() override;

    bool
    canInject(const pearl::sim::Packet &pkt) const override
    {
        return inner_.canInject(pkt);
    }
    std::vector<pearl::sim::Packet> &
    delivered() override
    {
        return inner_.delivered();
    }
    pearl::sim::Cycle cycle() const override { return inner_.cycle(); }
    int numNodes() const override { return inner_.numNodes(); }
    const pearl::sim::NetworkStats &
    stats() const override
    {
        return inner_.stats();
    }
    bool idle() const override { return inner_.idle(); }
    void
    describeState(std::ostream &os) const override
    {
        inner_.describeState(os);
    }
    pearl::sim::Cycle
    advanceIdle(pearl::sim::Cycle max_cycles) override
    {
        return inner_.advanceIdle(max_cycles);
    }

  private:
    pearl::sim::Network &inner_;
    LayerTotals &totals_;
    const pearl::core::HeteroSystem *system_ = nullptr;
    int outboxes_ = 0;
};

/** metrics::runPearl() with the probes installed. */
pearl::metrics::RunMetrics
tracedPearlRun(const pearl::traffic::BenchmarkPair &pair,
               const pearl::core::PearlConfig &net_cfg,
               const pearl::core::DbaConfig &dba,
               pearl::core::PowerPolicy &policy,
               const pearl::metrics::RunOptions &opts,
               const std::string &config_name, LayerTotals &totals);

/** metrics::runCmesh() with the probes installed. */
pearl::metrics::RunMetrics
tracedCmeshRun(const pearl::traffic::BenchmarkPair &pair,
               const pearl::electrical::CmeshConfig &net_cfg,
               const pearl::metrics::RunOptions &opts,
               const std::string &config_name, LayerTotals &totals);

/** Build (then discard) the network and system metrics::runPearl()
 *  builds for these arguments.  @return host seconds. */
double constructPearl(const pearl::traffic::BenchmarkPair &pair,
                      const pearl::core::PearlConfig &net_cfg,
                      const pearl::core::DbaConfig &dba,
                      pearl::core::PowerPolicy &policy,
                      const pearl::metrics::RunOptions &opts);

/** Build (then discard) what metrics::runCmesh() builds.
 *  @return host seconds. */
double constructCmesh(const pearl::traffic::BenchmarkPair &pair,
                      const pearl::electrical::CmeshConfig &net_cfg,
                      const pearl::metrics::RunOptions &opts);

/**
 * Line-buffering tee in front of stderr that counts `warn:` lines
 * raised on the cache-protocol paths (L3 banks, clusters).  Lines are
 * assembled per thread, so concurrent sweep jobs never interleave.
 */
class WarnTap final : public std::streambuf
{
  public:
    explicit WarnTap(std::ostream &sink) : sink_(sink) {}

    std::uint64_t
    protocolWarnings() const
    {
        return protocolWarnings_.load();
    }

  protected:
    int overflow(int ch) override;
    std::streamsize xsputn(const char *s, std::streamsize n) override;

  private:
    void append(const char *s, std::streamsize n);

    std::ostream &sink_;
    std::mutex mutex_; //!< guards sink_
    std::atomic<std::uint64_t> protocolWarnings_{0};
};

} // namespace pearlbench

#endif // PEARLBENCH_PROBES_HPP
