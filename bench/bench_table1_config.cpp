/**
 * @file
 * Regenerates Table I: the PEARL architecture specification.
 */

#include "bench_common.hpp"
#include "core/arch_config.hpp"

using namespace pearl;

int
main()
{
    bench::banner("Table I — Architecture Specifications",
                  "Section III-A2, Table I");

    core::ArchSpec spec;
    core::PearlConfig net;

    TextTable cpu({"CPU", "value"});
    cpu.addRow({"Cores", std::to_string(spec.cpuCores)});
    cpu.addRow({"Threads/Core", std::to_string(spec.cpuThreadsPerCore)});
    cpu.addRow({"Frequency (GHz)", TextTable::num(spec.cpuFreqGhz, 0)});
    cpu.addRow({"L1 Instr Cache (kB)", std::to_string(spec.cpuL1InstrKb)});
    cpu.addRow({"L1 Data Cache (kB)", std::to_string(spec.cpuL1DataKb)});
    cpu.addRow({"L2 Cache (kB)", std::to_string(spec.cpuL2Kb)});
    cpu.print(std::cout);
    std::cout << "\n";

    TextTable gpu({"GPU", "value"});
    gpu.addRow({"Computation Units", std::to_string(spec.gpuComputeUnits)});
    gpu.addRow({"Frequency (GHz)", TextTable::num(spec.gpuFreqGhz, 0)});
    gpu.addRow({"L1 Cache Size (kB)", std::to_string(spec.gpuL1Kb)});
    gpu.addRow({"L2 Cache Size (kB)", std::to_string(spec.gpuL2Kb)});
    gpu.print(std::cout);
    std::cout << "\n";

    TextTable shared({"Shared Components", "value"});
    shared.addRow({"Network Frequency (GHz)",
                   TextTable::num(spec.networkFreqGhz, 0)});
    shared.addRow({"L3 Cache Size (MB)", std::to_string(spec.l3CacheMb)});
    shared.addRow({"Main Memory Size (GB)",
                   std::to_string(spec.mainMemoryGb)});
    shared.addRow({"Clusters (routers)", std::to_string(net.numClusters)});
    shared.addRow({"Network cycle (ns)",
                   TextTable::num(spec.networkCycleSeconds() * 1e9, 2)});
    shared.print(std::cout);
    return 0;
}
