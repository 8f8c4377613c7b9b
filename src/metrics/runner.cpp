#include "metrics/runner.hpp"

#include <fstream>
#include <stdexcept>

#include "common/env.hpp"
#include "common/log.hpp"

namespace pearl {
namespace metrics {

RunnerOptions
RunnerOptions::fromEnv()
{
    RunnerOptions opts;
    opts.sweep.trace = obs::TraceOptions::fromEnv();
    opts.metricsDumpPath = envStr("PEARL_METRICS_DUMP", "");
    return opts;
}

RunMetrics
Runner::run(const RunSpec &spec) const
{
    const std::uint64_t seed =
        spec.explicitSeed ? *spec.explicitSeed : spec.options.seed;

    // A single run writes exactly the configured trace path — no
    // per-job suffix — unless the spec already carries its own tracer.
    RunSpec local = spec;
    std::unique_ptr<obs::Tracer> tracer;
    if (opts_.sweep.trace.enabled && !spec.custom &&
        !spec.options.tracer) {
        tracer = obs::makeTracer(opts_.sweep.trace.path);
        local.options.tracer = tracer.get();
    }

    RunMetrics m = executeSpec(local, seed);
    if (tracer)
        tracer->finish();
    dumpMetrics({m});
    return m;
}

SweepResult
Runner::sweep(const std::vector<RunSpec> &specs) const
{
    const SweepResult result = SweepRunner(opts_.sweep).run(specs);
    std::vector<RunMetrics> ok_runs;
    ok_runs.reserve(result.jobs.size());
    for (const SweepJobResult &j : result.jobs) {
        if (j.ok)
            ok_runs.push_back(j.metrics);
    }
    dumpMetrics(ok_runs);
    return result;
}

void
Runner::dumpMetrics(const std::vector<RunMetrics> &runs) const
{
    if (opts_.metricsDumpPath.empty() || runs.empty())
        return;
    // Serialized post-join on the calling thread, in submission order:
    // the dump is deterministic for any sweep thread count.
    const bool fresh = [this] {
        std::ifstream probe(opts_.metricsDumpPath);
        return !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
    }();
    std::ofstream out(opts_.metricsDumpPath, std::ios::app);
    if (!out) {
        warn("cannot open PEARL_METRICS_DUMP file ",
             opts_.metricsDumpPath, "; dump skipped");
        return;
    }
    if (fresh)
        out << csvHeader({"config", "pair"}) << "\n";
    for (const RunMetrics &m : runs)
        out << csvRow({m.configName, m.pairLabel}, m) << "\n";
}

std::vector<RunSpec>
pearlGrid(const std::string &config_name,
          const std::vector<traffic::BenchmarkPair> &pairs,
          const core::PearlConfig &net_cfg, const core::DbaConfig &dba,
          std::function<std::unique_ptr<core::PowerPolicy>()> make_policy,
          const RunOptions &opts)
{
    std::vector<RunSpec> specs;
    specs.reserve(pairs.size());
    for (const auto &pair : pairs) {
        RunSpec spec;
        spec.configName = config_name;
        spec.pair = pair;
        spec.options = opts;
        spec.fabric = RunSpec::Fabric::Pearl;
        spec.pearl = net_cfg;
        spec.dba = dba;
        spec.makePolicy = make_policy;
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<RunSpec>
cmeshGrid(const std::string &config_name,
          const std::vector<traffic::BenchmarkPair> &pairs,
          const electrical::CmeshConfig &net_cfg, const RunOptions &opts)
{
    std::vector<RunSpec> specs;
    specs.reserve(pairs.size());
    for (const auto &pair : pairs) {
        RunSpec spec;
        spec.configName = config_name;
        spec.pair = pair;
        spec.options = opts;
        spec.fabric = RunSpec::Fabric::Cmesh;
        spec.cmesh = net_cfg;
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace metrics
} // namespace pearl
