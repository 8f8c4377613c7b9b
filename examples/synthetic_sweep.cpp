/**
 * @file
 * Latency-load curves under synthetic traffic.
 *
 * Produces the classic NoC characterisation — average packet latency vs
 * offered load — for the PEARL photonic crossbar and the electrical
 * CMESH under a chosen synthetic pattern, showing where each network
 * saturates.  Every (network, load) point is an independent simulation,
 * so the grid runs through the parallel sweep engine, one simulation
 * per job thread; results are bit-identical at any PEARL_THREADS
 * setting.
 *
 * Usage: synthetic_sweep [pattern]   (uniform|transpose|bitcomp|hotspot|
 *                                     neighbor; default uniform)
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/network.hpp"
#include "electrical/cmesh.hpp"
#include "metrics/runner.hpp"
#include "photonic/power_model.hpp"
#include "traffic/synthetic.hpp"

using namespace pearl;

namespace {

constexpr sim::Cycle kCyclesPerPoint = 15000;

/** Fill the generic metrics fields from one measured load point. */
metrics::RunMetrics
toMetrics(const traffic::LoadPoint &p)
{
    metrics::RunMetrics m;
    m.cycles = kCyclesPerPoint;
    m.avgLatencyCycles = p.avgLatencyCycles;
    m.throughputFlitsPerCycle = p.deliveredFlitsPerCycle;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    traffic::Pattern pattern = traffic::Pattern::UniformRandom;
    if (argc > 1) {
        const std::string name = argv[1];
        if (name == "transpose")
            pattern = traffic::Pattern::Transpose;
        else if (name == "bitcomp")
            pattern = traffic::Pattern::BitComplement;
        else if (name == "hotspot")
            pattern = traffic::Pattern::Hotspot;
        else if (name == "neighbor")
            pattern = traffic::Pattern::Neighbor;
    }

    traffic::SyntheticConfig base_cfg;
    base_cfg.pattern = pattern;
    const std::vector<double> loads = {0.01, 0.05, 0.1, 0.2, 0.3,
                                       0.45, 0.6,  0.8, 1.0};

    std::cout << "Latency-load sweep, pattern: "
              << traffic::toString(pattern) << "\n\n";

    // One custom sweep job per (network kind, load) point.  The
    // saturation flags land in per-job slots of a pre-sized vector, so
    // concurrent jobs never touch the same memory; joining the sweep
    // publishes them.  All points keep the same injector seed so the
    // curves stay comparable across loads, as in the serial original.
    const photonic::PowerModel power;
    std::vector<metrics::RunSpec> jobs;
    std::vector<char> saturated(2 * loads.size(), 0);
    for (int kind = 0; kind < 2; ++kind) {
        for (std::size_t i = 0; i < loads.size(); ++i) {
            const double load = loads[i];
            char *sat_slot = &saturated[kind * loads.size() + i];
            metrics::RunSpec job;
            job.configName = kind == 0 ? "PEARL" : "CMESH";
            job.label = TextTable::num(load, 2);
            job.explicitSeed = base_cfg.seed;
            job.custom = [kind, load, base_cfg, &power, sat_slot](
                             const metrics::RunSpec &,
                             std::uint64_t seed) {
                traffic::SyntheticConfig cfg = base_cfg;
                cfg.flitsPerSourcePerCycle = load;
                cfg.seed = seed;

                traffic::LoadPoint point;
                if (kind == 0) {
                    core::StaticPolicy policy(photonic::WlState::WL64);
                    core::PearlNetwork net(core::PearlConfig{}, power,
                                           core::DbaConfig{}, &policy);
                    point = traffic::measureLoadPoint(net, cfg,
                                                      kCyclesPerPoint);
                } else {
                    electrical::CmeshNetwork net(
                        electrical::CmeshConfig{});
                    point = traffic::measureLoadPoint(net, cfg,
                                                      kCyclesPerPoint);
                }
                *sat_slot = point.saturated ? 1 : 0;
                return toMetrics(point);
            };
            jobs.push_back(std::move(job));
        }
    }

    const metrics::SweepResult result =
        metrics::Runner().sweep(jobs);
    if (const metrics::SweepJobResult *bad = result.firstError())
        fatal("sweep job failed: ", bad->error);

    TextTable t({"offered (flits/src/cyc)", "PEARL lat", "PEARL thru",
                 "CMESH lat", "CMESH thru"});
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const auto &pearl_point = result.jobs[i].metrics;
        const auto &cmesh_point =
            result.jobs[loads.size() + i].metrics;
        auto cell = [&saturated](const metrics::RunMetrics &m,
                                 std::size_t slot) {
            return TextTable::num(m.avgLatencyCycles, 1) +
                   (saturated[slot] ? " (sat)" : "");
        };
        t.addRow({TextTable::num(loads[i], 2), cell(pearl_point, i),
                  TextTable::num(pearl_point.throughputFlitsPerCycle, 2),
                  cell(cmesh_point, loads.size() + i),
                  TextTable::num(cmesh_point.throughputFlitsPerCycle,
                                 2)});
    }
    t.print(std::cout);
    std::cout << "\n(sat) marks loads where the injector backlog kept "
                 "growing — past the saturation point.\n";

    const metrics::SweepSummary &s = result.summary;
    std::cout << "\n[sweep] " << s.jobs << " jobs on " << s.threads
              << " threads: wall " << TextTable::num(s.wallSeconds, 2)
              << " s, aggregate "
              << TextTable::num(s.aggregateJobSeconds, 2)
              << " s, speedup " << TextTable::num(s.speedup(), 2)
              << "x\n";
    return 0;
}
