#include "metrics/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "cache/validate.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/validate.hpp"
#include "electrical/validate.hpp"

namespace pearl {
namespace metrics {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

Validation
validate(const RunSpec &spec)
{
    const std::string where =
        "job '" + spec.configName +
        (spec.label.empty() ? "" : "/" + spec.label) + "': ";
    if (spec.options.measureCycles == 0)
        return configError(where, "measureCycles must be > 0");
    if (spec.custom)
        return {}; // the custom callable owns everything else

    if (Validation v =
            cache::validate(spec.options.system.hierarchy);
        !v)
        return configError(where, "cache hierarchy: ",
                           v.error().message);
    switch (spec.fabric) {
    case RunSpec::Fabric::Pearl:
        if (!spec.makePolicy)
            return configError(where, "PEARL jobs need a policy "
                               "factory (makePolicy is empty)");
        if (Validation v = core::validate(spec.pearl); !v)
            return configError(where, "pearl config: ",
                               v.error().message);
        if (Validation v = core::validate(spec.dba); !v)
            return configError(where, v.error().message);
        break;
    case RunSpec::Fabric::Cmesh:
        if (Validation v = electrical::validate(spec.cmesh); !v)
            return configError(where, v.error().message);
        break;
    }
    return {};
}

RunMetrics
executeSpec(const RunSpec &job, std::uint64_t seed)
{
    throwIfInvalid(validate(job));
    RunMetrics m;
    if (job.custom) {
        m = job.custom(job, seed);
    } else {
        RunOptions opts = job.options;
        opts.seed = seed;
        switch (job.fabric) {
        case RunSpec::Fabric::Pearl: {
            std::unique_ptr<core::PowerPolicy> policy = job.makePolicy();
            if (!policy) {
                throw ConfigError(Error(
                    ErrorCode::InvalidConfig,
                    "sweep job '" + job.configName +
                    "' produced a null policy"));
            }
            m = runPearl(job.pair, job.pearl, job.dba, *policy, opts,
                         job.configName);
            break;
        }
        case RunSpec::Fabric::Cmesh:
            m = runCmesh(job.pair, job.cmesh, opts, job.configName);
            break;
        }
    }
    // Both paths carry the spec's names; a custom callable need not
    // stamp them itself.
    m.configName = job.configName;
    if (!job.label.empty())
        m.pairLabel = job.label;
    return m;
}

std::vector<RunMetrics>
SweepResult::metricsOrThrow() const
{
    if (const SweepJobResult *bad = firstError()) {
        throw std::runtime_error("sweep job '" +
                                 bad->metrics.configName + "/" +
                                 bad->metrics.pairLabel +
                                 "' failed: " + bad->error);
    }
    std::vector<RunMetrics> out;
    out.reserve(jobs.size());
    for (const auto &j : jobs)
        out.push_back(j.metrics);
    return out;
}

SweepResult
SweepRunner::run(const std::vector<RunSpec> &jobs) const
{
    SweepResult result;
    result.jobs.resize(jobs.size());

    const std::size_t n = jobs.size();
    const unsigned threads = std::min<std::size_t>(
        resolveThreads(opts_.threads), n > 0 ? n : 1);
    result.summary.jobs = n;
    result.summary.threads = threads;
    if (n == 0)
        return result;

    std::atomic<bool> cancelled{false};

    // Each job writes only its own result slot, so the slots need no
    // lock; the job loop's join publishes everything to the caller.
    const auto run_job = [&](std::size_t i) {
        const RunSpec &job = jobs[i];
        SweepJobResult &slot = result.jobs[i];
        slot.metrics.configName = job.configName;
        slot.metrics.pairLabel =
            job.label.empty() ? job.pair.label() : job.label;
        slot.seed = job.explicitSeed
                        ? *job.explicitSeed
                        : deriveSeed(opts_.baseSeed, i);

        if (opts_.cancelOnError &&
            cancelled.load(std::memory_order_acquire)) {
            slot.skipped = true;
            slot.errorCode = ErrorCode::InvalidState;
            slot.error = "skipped: sweep cancelled by an earlier "
                         "failure";
            return;
        }

        // Observability: each descriptor-path job gets a private
        // tracer writing its own file, so trace content does not
        // depend on the thread count and needs no locking.  The
        // phase split lands in the result slot either way.
        RunSpec traced;
        const RunSpec *to_run = &job;
        if (!job.custom) {
            traced = job;
            traced.options.phases = &slot.phases;
            to_run = &traced;
        }
        std::unique_ptr<obs::Tracer> tracer;
        if (opts_.trace.enabled && !job.custom) {
            tracer = obs::makeTracer(obs::jobTracePath(
                opts_.trace, i, slot.metrics.configName,
                slot.metrics.pairLabel));
            traced.options.tracer = tracer.get();
        }

        const Clock::time_point start = Clock::now();
        try {
            slot.metrics = executeSpec(*to_run, slot.seed);
            slot.ok = true;
        } catch (const ConfigError &e) {
            slot.errorCode = e.code();
            slot.error = e.what();
        } catch (const std::exception &e) {
            slot.errorCode = ErrorCode::JobFailed;
            slot.error = e.what();
        } catch (...) {
            slot.errorCode = ErrorCode::JobFailed;
            slot.error = "unknown exception";
        }
        slot.wallSeconds = secondsSince(start);
        if (!slot.ok)
            cancelled.store(true, std::memory_order_release);
    };

    const Clock::time_point sweep_start = Clock::now();
    forEachIndex(n, threads, run_job);
    result.summary.wallSeconds = secondsSince(sweep_start);

    for (const SweepJobResult &j : result.jobs) {
        result.summary.aggregateJobSeconds += j.wallSeconds;
        result.summary.phaseSeconds.buildSeconds +=
            j.phases.buildSeconds;
        result.summary.phaseSeconds.warmupSeconds +=
            j.phases.warmupSeconds;
        result.summary.phaseSeconds.runSeconds += j.phases.runSeconds;
        result.summary.phaseSeconds.collectSeconds +=
            j.phases.collectSeconds;
        if (!j.ok) {
            if (j.skipped)
                ++result.summary.skipped;
            else
                ++result.summary.failed;
        }
    }
    return result;
}

} // namespace metrics
} // namespace pearl
