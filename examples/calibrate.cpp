/**
 * @file
 * Developer tool: sweep the test benchmark pairs on PEARL-Dyn (64 WL) and
 * CMESH and print load diagnostics — injection rates, buffer occupancy,
 * cache miss rates — used to keep the synthetic traffic in the regime the
 * paper's techniques operate in (loaded but not permanently saturated).
 *
 * Usage: calibrate [cycles [rate_scale]]  (default 20000 and 1.0; the
 * scale multiplies every profile's access rates)
 */

#include <algorithm>
#include <iostream>

#include "common/env.hpp"
#include "common/table.hpp"
#include "core/network.hpp"
#include "core/system.hpp"
#include "electrical/cmesh.hpp"
#include "photonic/power_model.hpp"
#include "traffic/suite.hpp"

using namespace pearl;

namespace {

struct Diag
{
    double injectedPerCycle;
    double deliveredFlitsPerCycle;
    double cpuOcc, gpuOcc;
    double cpuL2Miss, gpuL2Miss;
    double avgLat;
    double stallFrac;
    double betaP50 = 0, betaP90 = 0, betaMax = 0;
};

Diag
runPearlDiag(const traffic::BenchmarkPair &pair, sim::Cycle cycles)
{
    core::PearlConfig cfg;
    core::DbaConfig dba;
    core::StaticPolicy policy(photonic::WlState::WL64);
    photonic::PowerModel power;
    core::PearlNetwork net(cfg, power, dba, &policy);
    std::vector<double> betas;
    net.setWindowCollector([&betas](const core::WindowRecord &rec) {
        betas.push_back(rec.betaTotalMean);
    });
    core::SystemConfig sys;
    core::HeteroSystem system(net, pair, sys, [&net](int n) {
        return &net.telemetryOf(n);
    });

    double cpu_occ = 0, gpu_occ = 0;
    sim::Cycle samples = 0;
    for (sim::Cycle i = 0; i < cycles; ++i) {
        system.run(1);
        if (i % 64 == 0) {
            for (int r = 0; r < 16; ++r) {
                cpu_occ += net.router(r).injectBuffers().occupancy(
                    sim::CoreType::CPU);
                gpu_occ += net.router(r).injectBuffers().occupancy(
                    sim::CoreType::GPU);
            }
            ++samples;
        }
    }
    const auto cs = system.aggregateClusterStats();
    Diag d;
    d.injectedPerCycle =
        double(net.stats().injectedPackets()) / double(cycles);
    d.deliveredFlitsPerCycle =
        double(net.stats().deliveredFlits()) / double(cycles);
    d.cpuOcc = cpu_occ / double(samples * 16);
    d.gpuOcc = gpu_occ / double(samples * 16);
    d.cpuL2Miss = cs.l2MissRate(sim::CoreType::CPU);
    d.gpuL2Miss = cs.l2MissRate(sim::CoreType::GPU);
    d.avgLat = net.stats().avgLatency();
    const auto total_acc = cs.accesses[0] + cs.accesses[1];
    d.stallFrac = total_acc ? double(cs.stalled[0] + cs.stalled[1]) /
                                  double(total_acc)
                            : 0;
    if (!betas.empty()) {
        std::sort(betas.begin(), betas.end());
        d.betaP50 = betas[betas.size() / 2];
        d.betaP90 = betas[betas.size() * 9 / 10];
        d.betaMax = betas.back();
    }
    return d;
}

Diag
runCmeshDiag(const traffic::BenchmarkPair &pair, sim::Cycle cycles)
{
    electrical::CmeshConfig cfg;
    electrical::CmeshNetwork net(cfg);
    core::SystemConfig sys;
    core::HeteroSystem system(net, pair, sys);
    system.run(cycles);
    const auto cs = system.aggregateClusterStats();
    Diag d{};
    d.injectedPerCycle =
        double(net.stats().injectedPackets()) / double(cycles);
    d.deliveredFlitsPerCycle =
        double(net.stats().deliveredFlits()) / double(cycles);
    d.cpuL2Miss = cs.l2MissRate(sim::CoreType::CPU);
    d.gpuL2Miss = cs.l2MissRate(sim::CoreType::GPU);
    d.avgLat = net.stats().avgLatency();
    const auto total_acc = cs.accesses[0] + cs.accesses[1];
    d.stallFrac = total_acc ? double(cs.stalled[0] + cs.stalled[1]) /
                                  double(total_acc)
                            : 0;
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t cycles = 20000;
    double scale = 1.0;
    if ((argc > 1 && (!parseU64(argv[1], cycles) || cycles == 0)) ||
        (argc > 2 && (!parseDouble(argv[2], scale) || !(scale > 0.0)))) {
        std::cerr << "usage: calibrate [cycles > 0 [rate_scale > 0]]\n";
        return 2;
    }
    traffic::BenchmarkSuite suite;

    TextTable table({"pair", "net", "inj pkt/cyc", "del flit/cyc",
                     "cpuOcc", "gpuOcc", "L2miss C/G", "lat", "stall",
                     "beta p50/p90/max"});
    auto pairs = suite.testPairs();
    for (auto &pr : pairs) {
        pr.cpu.accessRateOn *= scale;
        pr.cpu.accessRateOff *= scale;
        pr.gpu.accessRateOn *= scale;
        pr.gpu.accessRateOff *= scale;
    }
    for (const auto &pair : pairs) {
        const Diag p = runPearlDiag(pair, cycles);
        table.addRow({pair.label(), "PEARL",
                      TextTable::num(p.injectedPerCycle),
                      TextTable::num(p.deliveredFlitsPerCycle),
                      TextTable::num(p.cpuOcc, 2),
                      TextTable::num(p.gpuOcc, 2),
                      TextTable::num(p.cpuL2Miss, 2) + "/" +
                          TextTable::num(p.gpuL2Miss, 2),
                      TextTable::num(p.avgLat, 0),
                      TextTable::num(p.stallFrac, 2),
                      TextTable::num(p.betaP50, 3) + "/" +
                          TextTable::num(p.betaP90, 3) + "/" +
                          TextTable::num(p.betaMax, 2)});
        const Diag c = runCmeshDiag(pair, cycles);
        table.addRow({"", "CMESH", TextTable::num(c.injectedPerCycle),
                      TextTable::num(c.deliveredFlitsPerCycle), "-", "-",
                      TextTable::num(c.cpuL2Miss, 2) + "/" +
                          TextTable::num(c.gpuL2Miss, 2),
                      TextTable::num(c.avgLat, 0),
                      TextTable::num(c.stallFrac, 2)});
    }
    table.print(std::cout);
    return 0;
}
