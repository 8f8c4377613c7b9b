/**
 * @file
 * Hot-path throughput bench: simulator cycles/second and host-ns per
 * delivered packet for the three PEARL reference configurations (FCFS,
 * reactive, ML) at RW 500 and the electrical CMESH baseline, all on the
 * Rad/QRS pair, seed 100.
 *
 * Clocked on process CPU time (getrusage), which is immune to VM steal
 * and host contention — wall clock on shared boxes swings by tens of
 * percent run to run, CPU time by a few.  Each config runs
 * PEARL_BENCH_REPS times and reports the best rep (least-disturbed).
 *
 * Results are written to BENCH_hotpath.json next to the recorded
 * baseline of each config (same workload, same clocking) so the speedup
 * is tracked in-repo instead of in a PR comment that rots.
 *
 * Knobs: PEARL_BENCH_CYCLES (60000), PEARL_BENCH_WARMUP (2000),
 * PEARL_BENCH_REPS (3), PEARL_BENCH_JSON (BENCH_hotpath.json).
 */

#include <cstdio>
#include <functional>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "bench_common.hpp"
#include "electrical/cmesh.hpp"
#include "metrics/experiment.hpp"

namespace pearl {
namespace bench {
namespace {

/**
 * The baselines, measured with this bench's exact workload and clocking
 * (warmup 2000 + measure 60000 cycles, best of 3 reps, CPU-time clock).
 * The PEARL rows are the pre-overhaul simulator (the commit before the
 * PEARL hot-path overhaul, the then-default RelWithDebInfo build); the
 * cmesh row is the CMESH before its mask-driven rewrite (deque VCs,
 * shared-pointer flits, full allocator scans), the median of eight
 * invocations on a 4-core x86-64 VM in the Release build.  Kept as
 * data, not prose, so the speedup the JSON reports is reproducible
 * arithmetic.
 */
struct Baseline
{
    const char *config;
    double cyclesPerSec;
    double nsPerPacket;
};

constexpr Baseline kBaseline[] = {
    {"fcfs", 197102.0, 2388.1},
    {"reactive", 149188.0, 3252.9},
    {"ml", 98252.0, 5885.4},
    {"cmesh", 58551.0, 15512.9},
};

struct HotpathResult
{
    std::string config;
    double cyclesPerSec = 0.0;
    double nsPerPacket = 0.0;
    std::uint64_t deliveredPackets = 0;
};

double
baselineCps(const std::string &config)
{
    for (const Baseline &b : kBaseline) {
        if (config == b.config)
            return b.cyclesPerSec;
    }
    return 0.0;
}

int
run()
{
    banner("hot-path throughput (cycles/sec, ns/packet)",
           "simulator engineering; tracks the cycle-loop overhaul");

    const std::uint64_t cycles = envU64("PEARL_BENCH_CYCLES", 60000);
    const std::uint64_t warmup = envU64("PEARL_BENCH_WARMUP", 2000);
    const std::uint64_t reps = envU64("PEARL_BENCH_REPS", 3);
    const std::string json_path =
        envStr("PEARL_BENCH_JSON", "BENCH_hotpath.json");

    traffic::BenchmarkSuite suite;
    const traffic::BenchmarkPair pair{suite.find("Rad"),
                                      suite.find("QRS")};

    metrics::RunOptions opts;
    opts.warmupCycles = warmup;
    opts.measureCycles = cycles;
    opts.seed = 100;

    core::PearlConfig net;
    net.reservationWindow = 500;

    // A small fixed training pipeline: the bench measures the cost of
    // ML *inference* on the hot path, which is independent of how well
    // the model was fit, so the cheap deterministic fit from the golden
    // suite is the right trade.
    ml::PipelineConfig mlcfg;
    mlcfg.reservationWindow = 500;
    mlcfg.simCycles = 4000;
    mlcfg.maxTrainPairs = 2;
    mlcfg.maxValPairs = 1;
    mlcfg.secondPass = false;
    mlcfg.lambdaGrid = {0.1, 10.0};
    const ml::PipelineResult trained =
        ml::TrainingPipeline(suite, mlcfg).run();

    struct Config
    {
        const char *name;
        std::function<metrics::RunMetrics()> run;
    };
    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;
    core::StaticPolicy wl64(photonic::WlState::WL64);
    core::ReactivePolicy reactive;
    ml::MlPowerPolicy ml_policy(&trained.model);
    auto pearl = [&](const char *name, const core::DbaConfig &dba,
                     core::PowerPolicy &policy) {
        // `dba` is copied: callers pass temporaries.
        return Config{name, [&, name, dba] {
                          return metrics::runPearl(pair, net, dba, policy,
                                                   opts, name);
                      }};
    };
    const std::vector<Config> configs = {
        pearl("fcfs", fcfs, wl64),
        pearl("reactive", core::DbaConfig{}, reactive),
        pearl("ml", core::DbaConfig{}, ml_policy),
        {"cmesh",
         [&] {
             return metrics::runCmesh(pair, electrical::CmeshConfig{}, opts,
                                      "cmesh");
         }},
    };

    TextTable table({"config", "cycles/sec", "ns/packet", "baseline c/s",
                     "speedup"});
    std::vector<std::vector<JsonMember>> results;
    for (const Config &cfg : configs) {
        HotpathResult best;
        best.config = cfg.name;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            const double t0 = cpuSeconds();
            const metrics::RunMetrics m = cfg.run();
            const double secs = cpuSeconds() - t0;
            if (secs <= 0.0 || m.deliveredPackets == 0)
                fatal("degenerate rep for config ", cfg.name);
            const double cps = double(warmup + cycles) / secs;
            if (cps > best.cyclesPerSec) {
                best.cyclesPerSec = cps;
                best.nsPerPacket =
                    secs / double(m.deliveredPackets) * 1e9;
                best.deliveredPackets = m.deliveredPackets;
            }
        }
        const double base = baselineCps(best.config);
        table.addRow({best.config, TextTable::num(best.cyclesPerSec, 0),
                      TextTable::num(best.nsPerPacket, 1),
                      TextTable::num(base, 0),
                      TextTable::num(best.cyclesPerSec / base, 2) + "x"});
        results.push_back(
            {{"config", jsonStr(best.config)},
             {"cycles_per_sec", jsonNum(best.cyclesPerSec)},
             {"ns_per_packet", jsonNum(best.nsPerPacket)},
             {"delivered_packets", jsonNum(best.deliveredPackets)},
             {"speedup_vs_baseline",
              jsonNum(base > 0.0 ? best.cyclesPerSec / base : 0.0)}});
    }
    emit(table);

    std::vector<std::string> baseline;
    for (const Baseline &b : kBaseline) {
        baseline.push_back(jsonMember(
            {b.config,
             jsonInline({{"cycles_per_sec", jsonNum(b.cyclesPerSec)},
                         {"ns_per_packet", jsonNum(b.nsPerPacket)}})}));
    }
    writeBenchJson(json_path,
                   {{"bench", jsonStr("hotpath")},
                    {"clock", jsonStr("process_cpu_time")},
                    {"pair", jsonStr("Rad/QRS")},
                    {"reservation_window", "500"},
                    {"seed", "100"},
                    {"warmup_cycles", jsonNum(warmup)},
                    {"measure_cycles", jsonNum(cycles)},
                    {"reps", jsonNum(reps)},
                    {"baseline", jsonLines('{', baseline, '}', 1)}},
                   results);
    validateBenchJson(json_path, "hotpath", "cycles_per_sec");
    std::cout << "\n[hotpath] wrote " << json_path << "\n";
    return 0;
}

} // namespace
} // namespace bench
} // namespace pearl

int
main()
{
    return pearl::bench::run();
}
