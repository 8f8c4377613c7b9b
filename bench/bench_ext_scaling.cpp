/**
 * @file
 * Extension: cluster-count scaling study (Section III-A2 sketches
 * scaling PEARL up; this tree makes the cluster count a first-class
 * parameter through core::TopologySpec).
 *
 * Runs the same benchmark pair on 16-, 32-, 64- and 128-cluster chips
 * built entirely from a TopologySpec — reservation timing, waveguide
 * grouping, L3 banking and MC placement are all derived, never
 * hand-synced — and reports how throughput, latency and
 * per-delivered-bit laser energy scale with the optical crossbar.
 * Beyond 16 clusters the fabric splits into waveguide groups with
 * slot-arbitrated inter-group express broadcasts.
 *
 * Results land in BENCH_scaling.json (committed): the simulation
 * metrics are produced at a pinned seed, so those fields are
 * machine-independent and diff only when behaviour changes.  Each row
 * also records host cost — host_cycles_per_sec and host_sec_total,
 * clocked on process CPU time, the fastest of kReps identical runs —
 * which IS machine-dependent; the header names the host's CPU count and
 * the build type.  Treat those two fields as a same-machine trajectory,
 * not a cross-machine contract.  A rep whose simulated metrics differ
 * from the first rep's is fatal.  The headline figure is per-cluster
 * throughput retention at 64 clusters vs the paper-sized 16-cluster
 * chip.
 *
 * Knobs: PEARL_BENCH_CYCLES (60000), PEARL_BENCH_WARMUP (10000),
 * PEARL_BENCH_JSON (BENCH_scaling.json), plus the Runner's
 * observability knobs (PEARL_TRACE, PEARL_METRICS_DUMP, PEARL_VERIFY;
 * every rep traces and dumps).  Each run steps on one thread.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/topology.hpp"
#include "metrics/csv.hpp"
#include "metrics/runner.hpp"

#ifndef PEARL_BUILD_TYPE
#define PEARL_BUILD_TYPE "unknown"
#endif

namespace pearl {
namespace bench {
namespace {

constexpr int kClusterCounts[] = {16, 32, 64, 128};
constexpr std::uint64_t kSeed = 1;
/** Runs per topology; the host columns keep the fastest. */
constexpr int kReps = 3;

struct ScalingRow
{
    core::TopologySpec topo;
    metrics::RunMetrics m;
    double perCluster = 0.0;
    double laserPjPerBit = 0.0;
    double hostSecTotal = 0.0;      //!< fastest rep's process CPU seconds
    double hostCyclesPerSec = 0.0;  //!< simulated cycles per host second
};

int
run()
{
    banner("Extension — cluster-count scaling (TopologySpec)",
           "Section III-A2 scale-out discussion");

    traffic::BenchmarkSuite suite;
    traffic::BenchmarkPair pair{suite.find("FA"), suite.find("DCT")};
    const auto opts = bench::runOptions();
    const std::string json_path =
        envStr("PEARL_BENCH_JSON", "BENCH_scaling.json");

    // One spec per cluster count, all derived from a TopologySpec.
    std::vector<core::TopologySpec> topos;
    std::vector<metrics::RunSpec> specs;
    for (int clusters : kClusterCounts) {
        core::TopologySpec topo;
        topo.clusters = clusters;
        metrics::RunSpec spec;
        spec.configName = "pearl" + std::to_string(clusters);
        spec.pair = pair;
        spec.options = opts;
        spec.options.system = core::makeSystemConfig(topo);
        spec.pearl = topo.pearlConfig();
        spec.makePolicy = [] {
            return std::make_unique<core::StaticPolicy>(
                photonic::WlState::WL64);
        };
        spec.explicitSeed = kSeed;
        topos.push_back(topo);
        specs.push_back(std::move(spec));
    }

    // Each spec runs serially through Runner::run on the calling
    // thread, not as a sweep, so the CPU-time delta around it is that
    // topology's own host cost.  The fastest of kReps runs filters out
    // host noise; every rep must simulate the same metrics.
    metrics::Runner runner;
    TextTable t({"clusters", "groups", "thru (flits/cyc)",
                 "thru/cluster", "vs 16", "avg lat", "cpu lat",
                 "laser energy/bit (pJ)", "host c/s"});
    std::vector<ScalingRow> rows;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ScalingRow row;
        row.topo = topos[i];
        std::string simulated;
        for (int rep = 0; rep < kReps; ++rep) {
            const double t0 = cpuSeconds();
            const metrics::RunMetrics m = runner.run(specs[i]);
            const double host = cpuSeconds() - t0;
            const std::string row_csv = metrics::csvRow({}, m);
            if (rep == 0) {
                row.m = m;
                simulated = row_csv;
                row.hostSecTotal = host;
                continue;
            }
            if (row_csv != simulated) {
                fatal("bench_ext_scaling: rep ", rep + 1, " of the ",
                      row.topo.clusters, "-cluster chip simulated ",
                      row_csv, " where rep 1 simulated ", simulated);
            }
            row.hostSecTotal = std::min(row.hostSecTotal, host);
        }
        if (row.hostSecTotal > 0.0) {
            row.hostCyclesPerSec =
                double(opts.warmupCycles + opts.measureCycles) /
                row.hostSecTotal;
        }
        row.perCluster =
            row.m.throughputFlitsPerCycle / row.topo.clusters;
        const double bits = static_cast<double>(row.m.deliveredBits);
        row.laserPjPerBit =
            bits > 0.0
                ? row.m.laserPowerW *
                      static_cast<double>(row.m.cycles) *
                      opts.system.arch.networkCycleSeconds() / bits * 1e12
                : 0.0;
        rows.push_back(row);
    }
    const double base = rows.front().perCluster;
    std::vector<std::vector<JsonMember>> results;
    for (const ScalingRow &r : rows) {
        const double vs16 = base > 0.0 ? r.perCluster / base : 0.0;
        t.addRow({std::to_string(r.topo.clusters),
                  std::to_string(r.topo.numGroups()),
                  TextTable::num(r.m.throughputFlitsPerCycle, 3),
                  TextTable::num(r.perCluster, 3),
                  TextTable::num(vs16, 2),
                  TextTable::num(r.m.avgLatencyCycles, 1),
                  TextTable::num(r.m.cpuLatencyCycles, 1),
                  TextTable::num(r.laserPjPerBit, 2),
                  TextTable::num(r.hostCyclesPerSec, 0)});
        results.push_back(
            {{"clusters", jsonNum(r.topo.clusters)},
             {"waveguide_groups", jsonNum(r.topo.numGroups())},
             {"group_size", jsonNum(r.topo.resolvedGroupSize())},
             {"throughput_flits_per_cycle",
              jsonNum(r.m.throughputFlitsPerCycle)},
             {"per_cluster_throughput", jsonNum(r.perCluster)},
             {"per_cluster_vs_16", jsonNum(vs16)},
             {"avg_latency_cycles", jsonNum(r.m.avgLatencyCycles)},
             {"cpu_latency_cycles", jsonNum(r.m.cpuLatencyCycles)},
             {"laser_energy_per_bit_pj", jsonNum(r.laserPjPerBit)},
             {"delivered_packets", jsonNum(r.m.deliveredPackets)},
             {"host_cycles_per_sec", jsonNum(r.hostCyclesPerSec)},
             {"host_sec_total", jsonNum(r.hostSecTotal)}});
    }
    t.print(std::cout);

    writeBenchJson(json_path,
                   {{"bench", jsonStr("ext_scaling")},
                    {"pair", jsonStr("FA/DCT")},
                    {"seed", jsonNum(kSeed)},
                    {"warmup_cycles", jsonNum(opts.warmupCycles)},
                    {"measure_cycles", jsonNum(opts.measureCycles)},
                    {"host_cpus",
                     jsonNum(std::thread::hardware_concurrency())},
                    {"build_type", jsonStr(PEARL_BUILD_TYPE)},
                    {"reps", jsonNum(kReps)}},
                   results);
    validateBenchJson(json_path, "ext_scaling", "delivered_packets");
    std::cout << "\n[scaling] wrote " << json_path << "\n"
              << "Expected shape: aggregate throughput grows with the "
                 "cluster count, but per-cluster throughput falls — "
                 "each group adds waveguide bandwidth, while "
                 "inter-group packets pay the express reservation and "
                 "the one memory-controller hub saturates at 128 "
                 "clusters.  Laser energy per delivered bit falls with "
                 "size.\n";
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
