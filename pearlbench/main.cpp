/**
 * @file
 * PEARL end-to-end benchmark program.
 *
 *   pearlbench --workload <paper16_ml|scale128_hub|sweep_fig9>
 *              --seed <n> --seconds <s> --trace <0|1> [--tiny]
 *
 * Untraced (--trace 0): set up several times, then repeat the workload
 * until --seconds have passed (at least three passes) and report the
 * end-to-end metrics — host speed from the fastest pass, set-up as the
 * median over set-ups, simulated results from the passes, which must
 * repeat byte for byte.
 *
 * Traced (--trace 1): one untraced pass, then one pass with every layer
 * probe installed (probes.hpp), and report the per-layer split.  The
 * traced rows must equal the untraced ones; on scale128_hub they must
 * also equal a one-lane run.
 *
 * The last stdout line is one JSON object:
 *   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
 * The line before it records host metadata.  Progress goes to stderr.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "metrics/csv.hpp"
#include "photonic/wl_state.hpp"
#include "probes.hpp"
#include "workloads.hpp"

extern char **environ;

#if defined(__clang__)
#define PEARLBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PEARLBENCH_COMPILER "gcc " __VERSION__
#else
#define PEARLBENCH_COMPILER "unknown"
#endif

namespace pearlbench {
namespace {

using namespace pearl;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            args.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                return false;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !args.workload.empty() && args.seconds >= 0.0;
}

/**
 * Pin every environment knob that changes what is measured: drop all
 * PEARL_* variables (verification, tracing, metric dumps, sweep
 * journals, shard rebalancing, pinning, deprecated thread aliases) and
 * set the workload's own PEARL_THREADS budget.
 */
void
pinEnvironment(unsigned threads)
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string entry = *e;
        if (entry.rfind("PEARL_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    setenv("PEARL_THREADS", std::to_string(threads).c_str(), 1);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
           double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Attempted/failed tally plus the determinism check: the first pass
 * fixes each operation's canonical CSV row, and every later pass
 * (repeat, traced, one-lane) must reproduce it byte for byte.
 */
class Tally
{
  public:
    void
    add(const RepResult &r)
    {
        for (const Op &op : r.ops) {
            ++attempted_;
            if (!op.ok) {
                ++failed_;
                std::cerr << "pearlbench: " << op.key()
                          << " failed: " << op.error << "\n";
                continue;
            }
            const std::string row = metrics::csvRow(
                {op.metrics.configName, op.metrics.pairLabel}, op.metrics);
            const auto [it, first] = rows_.emplace(op.key(), row);
            if (!first && it->second != row) {
                ++failed_;
                std::cerr << "pearlbench: " << op.key()
                          << " is not deterministic:\n  " << it->second
                          << "\n  " << row << "\n";
            }
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::map<std::string, std::string> rows_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** The ordered metric list the final JSON line carries. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value)) {
            std::cerr << "pearlbench: metric " << name
                      << " is not finite\n";
            finite_ = false;
            value = 0.0;
        }
        entries_.push_back({name, value, unit});
    }

    bool finite() const { return finite_; }

    std::string
    json(bool correct, const Tally &tally) const
    {
        std::ostringstream os;
        os << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << tally.attempted()
           << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", entries_[i].value);
            os << (i ? ", " : "") << "\"" << entries_[i].name
               << "\": {\"value\": " << num << ", \"unit\": \""
               << entries_[i].unit << "\"}";
        }
        os << "}}";
        return os.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
    bool finite_ = true;
};

/** Simulated results of one pass: means over its operations. */
struct SimResults
{
    double throughput = 0.0;
    double energyPerBit = 0.0;
    double laserW = 0.0; //!< photonic operations only
    double latency = 0.0;
    std::array<double, photonic::kNumWlStates> residency = {};

    static SimResults
    of(const RepResult &r)
    {
        // Sum in a fixed order: passes run their operations shuffled.
        std::vector<const Op *> ops;
        for (const Op &op : r.ops)
            ops.push_back(&op);
        std::sort(ops.begin(), ops.end(), [](const Op *a, const Op *b) {
            return a->key() < b->key();
        });
        SimResults s;
        std::size_t n = 0;
        std::size_t pearl_ops = 0;
        for (const Op *p : ops) {
            const Op &op = *p;
            if (!op.ok)
                continue;
            ++n;
            s.throughput += op.metrics.throughputFlitsPerCycle;
            s.energyPerBit += op.metrics.energyPerBitPj;
            s.latency += op.metrics.avgLatencyCycles;
            if (op.pearl) {
                ++pearl_ops;
                s.laserW += op.metrics.laserPowerW;
                for (std::size_t w = 0; w < s.residency.size(); ++w)
                    s.residency[w] += op.metrics.residency[w];
            }
        }
        s.throughput = ratio(s.throughput, double(n));
        s.energyPerBit = ratio(s.energyPerBit, double(n));
        s.latency = ratio(s.latency, double(n));
        s.laserW = ratio(s.laserW, double(pearl_ops));
        for (double &w : s.residency)
            w = ratio(w, double(pearl_ops));
        return s;
    }

    bool
    plausible() const
    {
        return throughput > 0.0 && energyPerBit > 0.0 && laserW > 0.0 &&
               latency > 0.0;
    }
};

/**
 * Untraced mode: the end-to-end metrics.  Set-ups are spread evenly
 * over the measured time rather than run back to back, so a burst of
 * host contention cannot slow all of them at once.
 */
bool
measure(Workload &w, const Args &args, Tally &tally, Report &report)
{
    const std::size_t setups = args.tiny ? 1 : 21;
    const int min_reps = args.tiny ? 1 : 3;

    std::vector<double> setup_s{w.setup()};
    std::vector<double> cycles_per_s, cpu_s;
    RepResult first;
    const Clock::time_point start = Clock::now();
    for (int rep = 0;
         rep < min_reps || secondsSince(start) < args.seconds; ++rep) {
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        RepResult r = w.run();
        const double wall = secondsSince(t0);
        cpu_s.push_back(cpuSeconds() - cpu0);
        cycles_per_s.push_back(double(r.simCycles) / wall);
        tally.add(r);
        if (rep == 0)
            first = std::move(r);
        while (setup_s.size() < setups &&
               secondsSince(start) >=
                   args.seconds * double(setup_s.size()) / double(setups))
            setup_s.push_back(w.setup());
    }
    while (setup_s.size() < setups)
        setup_s.push_back(w.setup());
    std::cerr << "pearlbench: " << args.workload << ": "
              << cycles_per_s.size() << " passes, " << setups
              << " set-ups; cycles/s per pass:";
    for (double v : cycles_per_s)
        std::cerr << " " << v;
    std::cerr << "\npearlbench: cpu seconds per pass:";
    for (double v : cpu_s)
        std::cerr << " " << v;
    std::cerr << "\npearlbench: set-up seconds:";
    for (double v : setup_s)
        std::cerr << " " << v;
    std::cerr << "\n";

    // Host speed is taken from the fastest pass.  A shared host switches
    // between slow and fast spells lasting seconds, so a median over
    // passes follows the mix of spells a run happened to get; the
    // fastest pass is the program's own cost.
    const SimResults sim = SimResults::of(first);
    report.add("sim_cycles_per_s",
               *std::max_element(cycles_per_s.begin(), cycles_per_s.end()),
               "cycles/s");
    report.add("cpu_s", *std::min_element(cpu_s.begin(), cpu_s.end()), "s");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("sim_throughput_flits_per_cycle", sim.throughput,
               "flits/cycle");
    report.add("sim_energy_per_bit_pj", sim.energyPerBit, "pJ/bit");
    report.add("sim_laser_power_w", sim.laserW, "W");
    report.add("sim_avg_latency_cycles", sim.latency, "cycles");
    return sim.plausible();
}

/** Traced mode: the per-layer split. */
bool
traceLayers(Workload &w, Tally &tally, Report &report, const WarnTap &tap)
{
    w.setup();

    Clock::time_point t0 = Clock::now();
    const RepResult untraced = w.run();
    const double untraced_s = secondsSince(t0);
    tally.add(untraced);

    LayerTotals t;
    PolicyCounters policy;
    t0 = Clock::now();
    const RepResult traced = w.traced(t, policy);
    const double traced_s = secondsSince(t0);
    tally.add(traced);

    if (std::optional<RepResult> ref = w.reference())
        tally.add(*ref);

    const double policy_s = policy.hostSeconds();
    const double step_s = std::max(0.0, t.stepS - policy_s);
    const auto &c = t.cluster;
    double accesses = 0, stalled = 0, l1_miss = 0, l1_all = 0, l2_miss = 0,
           l2_all = 0;
    for (int k = 0; k < sim::kNumCoreTypes; ++k) {
        accesses += double(c.accesses[k]);
        stalled += double(c.stalled[k]);
        l1_miss += double(c.l1Misses[k]);
        l1_all += double(c.l1Hits[k] + c.l1Misses[k]);
        l2_miss += double(c.l2Misses[k]);
        l2_all += double(c.l2Hits[k] + c.l2Misses[k]);
    }
    const SimResults sim = SimResults::of(traced);
    const ml::PipelineResult *model = w.model();
    const metrics::SweepSummary &sw = untraced.sweep;

    report.add("network.step_host_s", step_s, "s");
    report.add("network.step_ns_per_cycle",
               ratio(step_s, double(t.steps)) * 1e9, "ns/cycle");
    report.add("network.inject_calls", double(t.injectCalls), "count");
    report.add("network.inject_refused", double(t.injectRefused), "count");
    report.add("network.inject_accept_ratio",
               ratio(double(t.injectCalls - t.injectRefused),
                     double(t.injectCalls)),
               "ratio");
    report.add("network.express_acquired", double(t.expressAcquired),
               "count");
    report.add("network.express_stall_cycles",
               double(t.expressStallCycles), "cycles");
    report.add("network.idle_steps", double(t.idleSteps), "count");
    report.add("nodes.host_s",
               std::max(0.0, t.runS - t.stepS - t.injectS - t.probeS), "s");
    report.add("nodes.outbox_depth_max", double(t.outboxMax), "packets");
    report.add("nodes.outbox_depth_mean",
               ratio(t.outboxSum, double(t.steps)), "packets");
    report.add("cache.accesses", accesses, "count");
    report.add("cache.stall_ratio", ratio(stalled, accesses), "ratio");
    report.add("cache.l1_miss_ratio", ratio(l1_miss, l1_all), "ratio");
    report.add("cache.l2_miss_ratio", ratio(l2_miss, l2_all), "ratio");
    report.add("l3.miss_ratio",
               ratio(double(t.l3.misses), double(t.l3.hits + t.l3.misses)),
               "ratio");
    report.add("l3.probes_sent", double(t.l3.probesSent), "count");
    report.add("memory.busy_stall_cycles", double(t.memoryBusyStallCycles),
               "cycles");
    report.add("cache.protocol_warnings", double(tap.protocolWarnings()),
               "count");
    report.add("policy.decisions", double(policy.decisions.load()),
               "count");
    report.add("policy.host_s", policy_s, "s");
    report.add("policy.ns_per_decision",
               ratio(policy_s, double(policy.decisions.load())) * 1e9, "ns");
    report.add("policy.state_changes", double(policy.stateChanges.load()),
               "count");
    for (int s = 0; s < photonic::kNumWlStates; ++s) {
        const int wl = photonic::wavelengths(photonic::stateFromIndex(s));
        report.add("policy.residency_wl" + std::to_string(wl),
                   sim.residency[static_cast<std::size_t>(s)], "ratio");
    }
    report.add("ml.train_host_s", w.trainSeconds(), "s");
    report.add("ml.train_samples", model ? double(model->trainSamples) : 0.0,
               "count");
    report.add("ml.validation_nrmse", model ? model->validationNrmse : 0.0,
               "ratio");
    report.add("sweep.jobs", double(sw.jobs), "count");
    report.add("sweep.threads", double(sw.jobs ? sw.threads : 0), "count");
    report.add("sweep.wall_s", sw.wallSeconds, "s");
    report.add("sweep.job_s_sum", sw.aggregateJobSeconds, "s");
    report.add("sweep.job_s_max", untraced.jobMaxS, "s");
    report.add("sweep.speedup", sw.jobs ? sw.speedup() : 0.0, "x");
    report.add("sweep.build_s", sw.phaseSeconds.buildSeconds, "s");
    report.add("sweep.warmup_s", sw.phaseSeconds.warmupSeconds, "s");
    report.add("sweep.run_s", sw.phaseSeconds.runSeconds, "s");
    report.add("engine.lanes", double(w.lanes()), "count");
    report.add("trace.untraced_wall_s", untraced_s, "s");
    report.add("trace.traced_wall_s", traced_s, "s");
    report.add("trace.overhead_ratio", ratio(traced_s, untraced_s), "x");
    return sim.plausible();
}

/** Route library warn() output through the counting tap for the life
 *  of this object. */
class TapInstall
{
  public:
    explicit TapInstall(WarnTap &tap) : stream_(&tap), saved_(Log::stream())
    {
        Log::stream() = &stream_;
    }
    ~TapInstall() { Log::stream() = saved_; }
    TapInstall(const TapInstall &) = delete;
    TapInstall &operator=(const TapInstall &) = delete;

  private:
    std::ostream stream_;
    std::ostream *saved_;
};

int
run(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args) ||
        workloadThreads(args.workload) == 0) {
        std::cerr << "usage: pearlbench --workload "
                     "<paper16_ml|scale128_hub|sweep_fig9> --seed <n> "
                     "--seconds <s> --trace <0|1> [--tiny]\n";
        return 2;
    }
    const unsigned threads = workloadThreads(args.workload);
    pinEnvironment(threads);

    const std::string build_type = PEARLBENCH_BUILD_TYPE;
    const bool release = build_type == "Release";
    if (!release) {
        std::cerr << "pearlbench: warning: " << build_type
                  << " build; host timings are not comparable with a "
                     "Release build\n";
    }

    WarnTap tap(std::cerr);
    Tally tally;
    Report report;
    bool plausible = false;
    bool deterministic_setup = true;
    {
        const TapInstall install(tap);
        std::unique_ptr<Workload> w =
            makeWorkload(args.workload, args.seed, args.tiny);
        plausible = args.trace ? traceLayers(*w, tally, report, tap)
                               : measure(*w, args, tally, report);
        deterministic_setup = w->setupDeterministic();
    }
    if (!deterministic_setup)
        std::cerr << "pearlbench: ML training is not deterministic\n";
    if (!plausible)
        std::cerr << "pearlbench: simulated results are degenerate\n";

    std::cout << "{\"host_cpus\": " << hostCpus() << ", \"build_type\": \""
              << build_type << "\", \"release_build\": "
              << (release ? "true" : "false") << ", \"compiler\": \""
              << PEARLBENCH_COMPILER << "\", \"workload\": \"" << args.workload
              << "\", \"seed\": " << args.seed
              << ", \"pearl_threads\": " << threads << "}\n";
    const bool correct = tally.failed() == 0 && report.finite() &&
                         plausible && deterministic_setup;
    std::cout << report.json(correct, tally) << std::endl;
    return 0;
}

} // namespace
} // namespace pearlbench

int
main(int argc, char **argv)
{
    return pearlbench::run(argc, argv);
}
