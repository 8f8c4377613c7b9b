#include "metrics/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "cache/validate.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/validate.hpp"
#include "electrical/validate.hpp"
#include "metrics/csv.hpp"

namespace pearl {
namespace metrics {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Crash-safe sweep journal.  One CSV-format file: a header line, then
 * one row per completed job — `index,seed,config,pair` followed by the
 * canonical metric cells.  Rows are appended and flushed as each job
 * finishes, so an interrupted sweep's journal holds everything except
 * the jobs that were in flight.  On resume the last row per index wins
 * (a crash mid-append leaves a short row, which parseMetricCells
 * rejects), and a row is only trusted when its seed/config/pair still
 * match the job — a changed grid invalidates the entry, never corrupts
 * the result.
 */
class SweepJournal
{
  public:
    struct Entry
    {
        std::uint64_t seed = 0;
        std::string configName;
        std::string pairLabel;
        std::vector<std::string> cells;
    };

    /** Load entries from an existing journal; missing file is fine
     *  (nothing to resume).  @throws ConfigError on an unreadable
     *  header (the file is not a journal — refuse to append to it). */
    static std::unordered_map<std::size_t, Entry>
    load(const std::string &path)
    {
        std::unordered_map<std::size_t, Entry> entries;
        std::ifstream in(path);
        if (!in.is_open())
            return entries;
        std::string line;
        if (!std::getline(in, line))
            return entries; // empty file: nothing recorded yet
        if (line != header()) {
            throw ConfigError(Error(
                ErrorCode::IoError,
                "sweep journal \"" + path + "\" has an unexpected "
                "header (not a journal, or from an incompatible "
                "version) — move it aside or pick another "
                "PEARL_SWEEP_JOURNAL path"));
        }
        std::size_t dropped = 0;
        while (std::getline(in, line)) {
            std::vector<std::string> cells = splitCsvLine(line);
            if (cells.size() < 5) {
                ++dropped; // truncated row from a mid-append crash
                continue;
            }
            std::uint64_t index = 0;
            Entry e;
            if (!parseU64(cells[0], index) ||
                !parseU64(cells[1], e.seed)) {
                ++dropped;
                continue;
            }
            e.configName = cells[2];
            e.pairLabel = cells[3];
            e.cells.assign(cells.begin() + 4, cells.end());
            entries[static_cast<std::size_t>(index)] = std::move(e);
        }
        if (dropped > 0)
            warn("sweep journal \"", path, "\": skipped ", dropped,
                 " malformed row(s)");
        return entries;
    }

    /** Open for appending.  `fresh` truncates (non-resume sweeps start
     *  a new journal); otherwise rows accumulate after the existing
     *  ones.  A header is written whenever the file starts empty. */
    void
    open(const std::string &path, bool fresh)
    {
        const auto mode = fresh
                              ? std::ios::out | std::ios::trunc
                              : std::ios::out | std::ios::app;
        out_.open(path, mode);
        if (!out_.is_open()) {
            throw ConfigError(Error(
                ErrorCode::IoError,
                "cannot open sweep journal \"" + path +
                "\" for writing"));
        }
        if (out_.tellp() == std::ofstream::pos_type(0)) {
            out_ << header() << "\n";
            out_.flush();
        }
        path_ = path;
    }

    bool isOpen() const { return out_.is_open(); }

    /** Append one completed job's row and flush it to disk. */
    void
    record(std::size_t index, const SweepJobResult &slot)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out_ << index << "," << slot.seed << ","
             << csvRow({slot.metrics.configName,
                        slot.metrics.pairLabel},
                       slot.metrics)
             << "\n";
        out_.flush();
        if (!out_)
            warn("sweep journal \"", path_, "\": write failed; resume "
                 "data may be incomplete");
    }

  private:
    static const char *
    header()
    {
        static const std::string line =
            "index,seed," + csvHeader({"config", "pair"});
        return line.c_str();
    }

    std::mutex mutex_;
    std::ofstream out_;
    std::string path_;
};

} // namespace

SweepOptions
SweepOptions::fromEnv()
{
    SweepOptions opts;
    opts.journalPath = envStr("PEARL_SWEEP_JOURNAL", opts.journalPath);
    opts.resume = envBool("PEARL_SWEEP_RESUME", opts.resume);
    if (opts.resume && opts.journalPath.empty())
        warn("PEARL_SWEEP_RESUME is set but PEARL_SWEEP_JOURNAL is "
             "not; nothing to resume from");
    opts.trace = obs::TraceOptions::fromEnv();
    return opts;
}

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
    if (job.custom)
        return job.custom(job, seed);

    RunOptions opts = job.options;
    opts.seed = seed;
    RunMetrics m;
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

    // Crash-safe checkpointing: restore finished jobs from the journal
    // (resume), then stream every newly completed row into it.
    std::unordered_map<std::size_t, SweepJournal::Entry> restored;
    SweepJournal journal;
    if (!opts_.journalPath.empty()) {
        if (opts_.resume)
            restored = SweepJournal::load(opts_.journalPath);
        journal.open(opts_.journalPath, /*fresh=*/!opts_.resume);
    }

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

        // Resume: a journal row with matching identity replays the
        // original metrics bit-exactly (max_digits10 round-trip) —
        // the job never runs.
        if (auto it = restored.find(i); it != restored.end()) {
            const SweepJournal::Entry &e = it->second;
            if (e.seed == slot.seed &&
                e.configName == slot.metrics.configName &&
                e.pairLabel == slot.metrics.pairLabel &&
                parseMetricCells(e.cells, slot.metrics)) {
                slot.ok = true;
                slot.resumed = true;
                return;
            }
            warn("sweep journal entry for job ", i,
                 " does not match the grid (stale journal?); "
                 "re-running");
        }

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
        if (slot.ok) {
            if (journal.isOpen())
                journal.record(i, slot);
        } else {
            cancelled.store(true, std::memory_order_release);
        }
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
        if (j.resumed)
            ++result.summary.resumed;
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
