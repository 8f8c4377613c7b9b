/**
 * @file
 * Window-level event tracing for the observability plane.
 *
 * The simulator emits TraceEvents — wavelength-state transitions with
 * the triggering occupancy/prediction, per-window DBA splits, fault and
 * retransmission events, and per-job sweep phases — into a Tracer that
 * ring-buffers them and flushes to a TraceSink off the hot path.  Two
 * sink backends exist: JSONL (one event object per line, easy to grep)
 * and Chrome trace format ({"traceEvents":[...]}, loadable in
 * chrome://tracing or Perfetto).
 *
 * Zero-cost-when-off guarantee: every instrumentation site is guarded
 * by a null Tracer pointer test, no event is constructed when tracing
 * is disabled, and tracing never draws from the simulation RNG — so a
 * traced run produces bit-identical RunMetrics to an untraced one.
 *
 * Determinism: event timestamps are simulation cycles (rendered as
 * microseconds on the trace timeline), never wall-clock, so per-job
 * trace files are byte-identical across sweep thread counts.  The only
 * nondeterministic payloads are the wall-seconds arguments on "sweep"
 * phase events; tests filter that category before byte comparison.
 */

#ifndef PEARL_OBS_TRACE_HPP
#define PEARL_OBS_TRACE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pearl {
namespace obs {

/** Event categories; the strings below are the "cat" field in sinks. */
enum class Category {
    Wavelength, //!< window-boundary power-state decisions
    Dba,        //!< per-window dynamic bandwidth allocation splits
    Fault,      //!< corruption / drops / retransmission / thermal
    Sweep,      //!< per-job metadata and phase timings
};

/** Stable category name used by both sink backends. */
const char *toString(Category cat);

/**
 * One trace event.  `ts` is the timeline position in simulation cycles
 * (1 cycle renders as 1 us); `dur` is only meaningful for phase 'X'
 * (complete) events.  `tid` separates tracks: 0 is the run/phase track,
 * router r uses track r + 1.
 */
struct TraceEvent
{
    Category cat = Category::Sweep;
    std::string name;
    char phase = 'i'; //!< 'i' instant, 'X' complete
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    int tid = 0;
    std::vector<std::pair<std::string, double>> args;
    std::vector<std::pair<std::string, std::string>> sargs;

    TraceEvent &arg(std::string key, double value)
    {
        args.emplace_back(std::move(key), value);
        return *this;
    }
    TraceEvent &sarg(std::string key, std::string value)
    {
        sargs.emplace_back(std::move(key), std::move(value));
        return *this;
    }
};

/** Destination for flushed events.  Implementations own their stream. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void write(const TraceEvent &event) = 0;
    /** Finalise the output (close JSON arrays, flush the file). */
    virtual void close() = 0;
};

/** One JSON object per line; no enclosing array, greppable. */
class JsonlTraceSink : public TraceSink
{
  public:
    explicit JsonlTraceSink(const std::string &path);
    ~JsonlTraceSink() override;
    void write(const TraceEvent &event) override;
    void close() override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Chrome trace format: {"traceEvents":[...]} — loads in Perfetto. */
class ChromeTraceSink : public TraceSink
{
  public:
    explicit ChromeTraceSink(const std::string &path);
    ~ChromeTraceSink() override;
    void write(const TraceEvent &event) override;
    void close() override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Trace knobs, normally read from the environment:
 *   PEARL_TRACE       enable tracing (0/1/true/false..., default off)
 *   PEARL_TRACE_PATH  output stem; a ".jsonl" extension selects the
 *                     JSONL backend, anything else Chrome trace format
 *                     (default "pearl_trace.json").
 */
struct TraceOptions
{
    bool enabled = false;
    /** Runner::run() writes exactly this file; sweep job i writes
     *  jobTracePath(*this, i, ...). */
    std::string path = "pearl_trace.json";

    static TraceOptions fromEnv();
};

/** Pick the sink backend from the path extension (".jsonl" → JSONL). */
std::unique_ptr<TraceSink> makeSink(const std::string &path);

/** Per-job trace file path: stem + "-job<i>-<config>-<pair>" + ext. */
std::string jobTracePath(const TraceOptions &opts, std::size_t job_index,
                         const std::string &config_name,
                         const std::string &pair_label);

/**
 * Ring-buffered event recorder.  record() appends to an in-memory
 * buffer (no IO on the hot path); the buffer drains to the sink when
 * full and on flush()/destruction.  One Tracer per job — never shared
 * across sweep threads, so no locking is needed.
 */
class Tracer
{
  public:
    explicit Tracer(std::unique_ptr<TraceSink> sink,
                    std::size_t capacity = 4096);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void record(TraceEvent event);
    /** Drain the ring buffer to the sink (called off the hot path). */
    void flush();
    /** Flush and finalise the sink; further record() calls are lost. */
    void finish();

    std::uint64_t recorded() const { return recorded_; }

  private:
    std::unique_ptr<TraceSink> sink_;
    std::vector<TraceEvent> buffer_;
    std::size_t capacity_;
    std::uint64_t recorded_ = 0;
    bool finished_ = false;
};

/** Convenience: open a Tracer on the right backend for `path`. */
std::unique_ptr<Tracer> makeTracer(const std::string &path);

} // namespace obs
} // namespace pearl

#endif // PEARL_OBS_TRACE_HPP
