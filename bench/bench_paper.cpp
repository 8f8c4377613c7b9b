/**
 * @file
 * Regenerates the paper's evaluation: Tables I-V, Figures 4-11 and the
 * Section IV-C predictive-performance (NRMSE) table, in that order.
 *
 * The five tables come from the static models and print first, before
 * any model is loaded or any simulation runs.
 *
 * The eight figures compare 22 distinct configurations on the same
 * test pairs: PEARL-Dyn, PEARL-FCFS and CMESH at static 64/32/16
 * wavelengths, reactive power scaling at RW500/RW2000 under four laser
 * turn-on times, and ML power scaling at RW100/500/1000/2000 (RW500
 * also without the 8WL state).  Each configuration runs once per pair,
 * all of them in one grid, and the figures print their tables in
 * figure order from the shared rows.  One figure cannot be regenerated
 * without the others.
 *
 * Job seeds are deriveSeed(100, pair index), the seed a sweep of one
 * configuration over the pairs derives, so every row equals a run of
 * that configuration on its own (bench::Grid).
 *
 * The NRMSE table scores the RW500 and RW2000 models the figures
 * deploy, on data collected serially under each model's own policy.
 */

#include <map>

#include "bench_common.hpp"
#include "core/arch_config.hpp"
#include "core/area_model.hpp"
#include "ml/cost_model.hpp"
#include "ml/features.hpp"
#include "photonic/loss_budget.hpp"
#include "photonic/power_model.hpp"
#include "photonic/reservation.hpp"

using namespace pearl;

namespace {

using bench::ConfigResult;

/** Table I: the PEARL architecture specification. */
void
table1()
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
}

/**
 * Table II: the area overhead of the PEARL components, including the
 * dynamic-allocation and machine-learning hardware.
 */
void
table2()
{
    bench::banner("Table II — Area overhead for PEARL",
                  "Table II, references [48][49][50]");

    core::AreaModel area;
    TextTable t({"Photonic and Electronic Component", "Area"});
    t.addRow({"Cluster (CPU, GPU and L1 cache)",
              TextTable::num(area.clusterMm2, 1) + " mm^2"});
    t.addRow({"L2 Cache per Cluster",
              TextTable::num(area.l2PerClusterMm2, 1) + " mm^2"});
    t.addRow({"Optical Components (MRRs and Waveguides)",
              TextTable::num(area.opticalComponentsMm2, 1) + " mm^2"});
    t.addRow({"Waveguide Width",
              TextTable::num(area.waveguideWidthUm, 2) + " um"});
    t.addRow({"MRR Diameter",
              TextTable::num(area.mrrDiameterUm, 1) + " um"});
    t.addRow({"L3 Cache", TextTable::num(area.l3Mm2, 1) + " mm^2"});
    t.addRow({"Router", TextTable::num(area.routerMm2, 3) + " mm^2"});
    t.addRow({"On-Chip laser per router",
              TextTable::num(area.laserPerRouterMm2, 3) + " mm^2"});
    t.addRow({"Dynamic Allocation",
              TextTable::num(area.dynamicAllocationMm2, 3) + " mm^2"});
    t.addRow({"Machine Learning",
              TextTable::num(area.machineLearningMm2, 3) + " mm^2"});
    t.print(std::cout);

    std::cout << "\nDerived totals:\n";
    TextTable d({"quantity", "value"});
    d.addRow({"Total chip area (16 clusters, 17 routers)",
              TextTable::num(area.totalMm2(), 1) + " mm^2"});
    d.addRow({"Adaptive (DBA+ML) overhead",
              TextTable::pct(area.adaptiveOverheadFraction(), 3)});
    d.print(std::cout);
}

/**
 * Table III (the 30-feature list of the dynamic laser scaling model)
 * and the Section IV-B hardware-cost numbers of the inference unit
 * (44.6 pJ per prediction, 178.4 uW at RW500).
 */
void
table3()
{
    bench::banner("Table III — Dynamic Laser Scaling Feature List",
                  "Table III + Section IV-B cost estimate");

    TextTable t({"#", "feature"});
    const auto &names = ml::FeatureExtractor::names();
    for (std::size_t i = 0; i < names.size(); ++i)
        t.addRow({std::to_string(i + 1), names[i]});
    t.print(std::cout);

    ml::MlCostModel cost;
    std::cout << "\nInference-unit cost (Section IV-B):\n";
    TextTable c({"quantity", "model", "paper"});
    c.addRow({"multiplies per prediction",
              std::to_string(cost.multiplies()), "~30"});
    c.addRow({"adds per prediction", std::to_string(cost.adds()), "~29"});
    c.addRow({"energy per prediction (pJ)",
              TextTable::num(cost.inferenceEnergyJ() * 1e12, 1), "44.6"});
    c.addRow({"compute time (ns)", TextTable::num(cost.computeTimeNs, 0),
              "5"});
    c.addRow({"avg power at RW500 (uW)",
              TextTable::num(cost.averagePowerW(500) * 1e6, 1), "178.4"});
    c.addRow({"multiplier power at RW500 (uW)",
              TextTable::num(cost.multiplierPowerW(500) * 1e6, 1), "132"});
    c.print(std::cout);
}

void
profileTable(const std::vector<traffic::BenchmarkProfile> &profiles,
             const std::string &title)
{
    std::cout << title << "\n";
    TextTable t({"abbrev", "benchmark name", "rate on/off", "on-frac",
                 "ws lines", "wr", "shared", "stream"});
    for (const auto &p : profiles) {
        t.addRow({p.abbrev, p.name,
                  TextTable::num(p.accessRateOn, 3) + "/" +
                      TextTable::num(p.accessRateOff, 3),
                  TextTable::num(p.onFraction(), 2),
                  std::to_string(p.workingSetLines),
                  TextTable::num(p.writeFraction, 2),
                  TextTable::num(p.sharedFraction, 2),
                  TextTable::num(p.streamFraction, 2)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

/**
 * Table IV (the benchmarks used for testing the ML model) and the full
 * synthetic-profile suite standing in for the PARSEC / SPLASH2 /
 * OpenCL SDK programs (see DESIGN.md).
 */
void
table4(const traffic::BenchmarkSuite &suite)
{
    bench::banner("Table IV — Benchmarks used for testing ML",
                  "Table IV + Section IV-A splits");

    std::cout << "Test benchmarks (Table IV):\n";
    TextTable t({"Core Type", "Abbreviation", "Benchmark Name"});
    for (const char *a : {"FA", "fmm", "Rad", "x264"})
        t.addRow({"CPU", a, suite.find(a).name});
    for (const char *a : {"DCT", "Dwrt", "QRS", "Reduc"})
        t.addRow({"GPU", a, suite.find(a).name});
    t.print(std::cout);
    std::cout << "\n";

    std::cout << "Splits: " << suite.trainingPairs().size()
              << " training pairs (6 CPU x 6 GPU), "
              << suite.validationPairs().size()
              << " validation pairs (2 x 2), " << suite.testPairs().size()
              << " test pairs (4 x 4)\n\n";

    profileTable(suite.cpuBenchmarks(), "All CPU profiles:");
    profileTable(suite.gpuBenchmarks(), "All GPU profiles:");
}

/**
 * Table V (optical component losses and powers) and the per-state
 * laser powers derived from the bottom-up loss budget, against the
 * paper's calibrated values (Section IV-B).
 */
void
table5()
{
    bench::banner("Table V — Optical components and laser power states",
                  "Table V + Section IV-B power values");

    photonic::DeviceConstants dev;
    TextTable t({"Component", "Value", "Unit"});
    t.addRow({"Modulator Insertion",
              TextTable::num(dev.modulatorInsertionDb, 1), "dB"});
    t.addRow({"Waveguide", TextTable::num(dev.waveguideDbPerCm, 1),
              "dB/cm"});
    t.addRow({"Coupler", TextTable::num(dev.couplerDb, 1), "dB"});
    t.addRow({"Splitter", TextTable::num(dev.splitterDb, 1), "dB"});
    t.addRow({"Filter Through", TextTable::num(dev.filterThroughDb, 5),
              "dB"});
    t.addRow({"Filter Drop", TextTable::num(dev.filterDropDb, 1), "dB"});
    t.addRow({"Photodetector", TextTable::num(dev.photodetectorDb, 1),
              "dB"});
    t.addRow({"Receiver Sensitivity",
              TextTable::num(dev.receiverSensitivityDbm, 0), "dBm"});
    t.addRow({"Ring Heating", TextTable::num(dev.ringHeatingW * 1e6, 0),
              "uW/ring"});
    t.addRow({"Ring Modulating",
              TextTable::num(dev.ringModulatingW * 1e6, 0), "uW/ring"});
    t.print(std::cout);

    photonic::LossBudget budget{dev, photonic::ChipGeometry{}};
    std::cout << "\nLoss budget:\n";
    TextTable b({"quantity", "value"});
    b.addRow({"worst-case data path loss (dB)",
              TextTable::num(budget.worstCasePathLossDb(), 2)});
    b.addRow({"reservation broadcast loss (dB)",
              TextTable::num(budget.reservationPathLossDb(), 2)});
    b.addRow({"required laser optical power per wavelength (uW)",
              TextTable::num(budget.requiredLaserOpticalW() * 1e6, 1)});
    b.addRow({"calibrated wall-plug efficiency",
              TextTable::pct(budget.calibratedEfficiency(), 2)});
    photonic::ReservationChannel res;
    b.addRow({"reservation packet (bits)",
              std::to_string(res.packetBits())});
    b.addRow({"reservation wavelengths",
              std::to_string(res.wavelengthsNeeded())});
    b.print(std::cout);

    std::cout << "\nLaser power per wavelength state "
              << "(network aggregate, Section IV-B):\n";
    photonic::PowerModel paper;
    photonic::PowerModel derived = photonic::PowerModel::fromLossBudget(
        budget, budget.calibratedEfficiency());
    TextTable p({"state", "paper (W)", "derived (W)"});
    for (int i = photonic::kNumWlStates - 1; i >= 0; --i) {
        const auto s = photonic::stateFromIndex(i);
        p.addRow({photonic::toString(s),
                  TextTable::num(paper.laserPowerW(s), 3),
                  TextTable::num(derived.laserPowerW(s), 3)});
    }
    p.print(std::cout);
}

/** Fig. 11's laser turn-on times; 2 ns is the default. */
constexpr int kTurnOnNs[] = {2, 4, 16, 32};

/**
 * Figure 4: the CPU vs GPU packet-percentage breakdown for every test
 * pair, measured on PEARL-Dyn at 64 wavelengths.
 *
 * Expected shape: CPU benchmarks create more packets overall (the paper
 * notes this explicitly) but the split varies by pair, and the DBA keeps
 * both classes flowing.
 */
void
figure4(const ConfigResult &dyn64)
{
    bench::banner("Figure 4 — CPU-GPU packet breakdown per traffic pair",
                  "Figure 4, Section IV-A");

    TextTable t({"pair", "CPU pkts", "GPU pkts", "CPU %", "GPU %"});
    double cpu_sum = 0.0;
    for (const auto &m : dyn64.runs) {
        const double total =
            static_cast<double>(m.cpuPackets + m.gpuPackets);
        const double cpu_pct =
            total > 0 ? static_cast<double>(m.cpuPackets) / total : 0.0;
        cpu_sum += cpu_pct;
        t.addRow({m.pairLabel, std::to_string(m.cpuPackets),
                  std::to_string(m.gpuPackets), TextTable::pct(cpu_pct),
                  TextTable::pct(1.0 - cpu_pct)});
    }
    const double n = static_cast<double>(dyn64.runs.size());
    t.addRow({"average", "", "", TextTable::pct(cpu_sum / n),
              TextTable::pct(1.0 - cpu_sum / n)});
    t.print(std::cout);
}

/**
 * Figure 5: energy per bit of PEARL-Dyn vs PEARL-FCFS vs the electrical
 * CMESH at static 64/32/16-wavelength configurations (CMESH bandwidth
 * reduced proportionally).
 *
 * Expected shape (paper): PEARL-Dyn needs less energy per bit than
 * PEARL-FCFS at constrained bandwidth, and is roughly an order of
 * magnitude below CMESH at every width.
 */
void
figure5(const std::vector<ConfigResult> &rows)
{
    bench::banner("Figure 5 — Energy per bit vs static bandwidth",
                  "Figure 5, Section IV-C (first comparison)");

    TextTable t({"config", "energy/bit (pJ)", "thru (flits/cyc)",
                 "thru (Gbps)", "avg lat (cyc)", "CPU lat", "GPU lat"});
    for (const auto &row : rows) {
        t.addRow({row.name, TextTable::num(row.avg.energyPerBitPj, 2),
                  TextTable::num(row.avg.throughputFlitsPerCycle, 3),
                  TextTable::num(row.avg.throughputGbps, 1),
                  TextTable::num(row.avg.avgLatencyCycles, 0),
                  TextTable::num(row.avg.cpuLatencyCycles, 0),
                  TextTable::num(row.avg.gpuLatencyCycles, 0)});
    }
    t.print(std::cout);

    // Headline deltas in the paper's framing.
    auto find = [&rows](const std::string &n) -> const metrics::RunMetrics & {
        for (const auto &r : rows) {
            if (r.name == n)
                return r.avg;
        }
        fatal("missing row ", n);
    };
    std::cout << "\nHeadline comparisons (paper: Fig. 5 text):\n";
    TextTable h({"comparison", "measured", "paper"});
    const auto &dyn32 = find("PEARL-Dyn 32WL");
    const auto &fcfs32 = find("PEARL-FCFS 32WL");
    const auto &cmesh32 = find("CMESH 32WL");
    const auto &dyn16 = find("PEARL-Dyn 16WL");
    const auto &cmesh16 = find("CMESH 16WL");
    h.addRow({"Dyn vs FCFS energy/bit @32WL",
              TextTable::pct(1.0 - dyn32.energyPerBitPj /
                                       fcfs32.energyPerBitPj),
              "19.7% lower"});
    h.addRow({"Dyn vs FCFS CPU latency @32WL",
              TextTable::pct(1.0 - dyn32.cpuLatencyCycles /
                                       fcfs32.cpuLatencyCycles),
              "(fairness: see examples/gpu_contention)"});
    h.addRow({"Dyn vs CMESH energy/bit @32WL",
              TextTable::pct(1.0 - dyn32.energyPerBitPj /
                                       cmesh32.energyPerBitPj),
              "91.9% lower"});
    h.addRow({"Dyn vs CMESH energy/bit @16WL",
              TextTable::pct(1.0 - dyn16.energyPerBitPj /
                                       cmesh16.energyPerBitPj),
              "88.8% lower"});
    h.print(std::cout);
}

/** Figs. 6 and 7's per-pair table: one column per configuration. */
void
perPairTable(const std::vector<ConfigResult> &results,
             double metrics::RunMetrics::*field)
{
    TextTable p({"pair", "64WL", "DynRW500", "DynRW2000", "MLRW500",
                 "MLRW500no8", "MLRW2000"});
    const std::size_t pairs = results.front().runs.size();
    for (std::size_t i = 0; i < pairs; ++i) {
        std::vector<std::string> row{results.front().runs[i].pairLabel};
        for (const auto &r : results)
            row.push_back(TextTable::num(r.runs[i].*field, 3));
        p.addRow(row);
    }
    p.print(std::cout);
}

/**
 * Figure 6: throughput of the power-scaling architectures with the 8WL
 * low state, relative to the 64WL baseline (`results.front()`).
 *
 * Expected shape (paper): larger reservation windows preserve more
 * throughput for the ML policy (ML RW2000 ~0.3% loss); throughput
 * losses stay within 0-14% across all configurations.
 */
void
figure6(const std::vector<ConfigResult> &results)
{
    bench::banner("Figure 6 — Throughput of power-scaling architectures",
                  "Figure 6, Section IV-C (second comparison)");

    const auto &base = results.front().avg;
    TextTable t({"config", "thru (flits/cyc)", "vs 64WL",
                 "paper loss"});
    const char *paper_loss[] = {"baseline", "1.3%", "8%",
                                "14%",      "14%",  "0.3%"};
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        t.addRow({r.name,
                  TextTable::num(r.avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(r.avg.throughputFlitsPerCycle /
                                     base.throughputFlitsPerCycle -
                                 1.0),
                  paper_loss[i]});
    }
    t.print(std::cout);

    std::cout << "\nPer-pair throughput (flits/cycle):\n";
    perPairTable(results, &metrics::RunMetrics::throughputFlitsPerCycle);
}

/**
 * Figure 7: average laser power of the power-scaling architectures with
 * the 8WL low state.
 *
 * Expected shape (paper): 40-65% laser-power savings relative to the
 * 64WL baseline; the 8WL state deepens the ML RW500 savings
 * (65.5% vs 60.7% without it); Dyn RW2000 saves ~55.8%, ML RW2000 ~42%.
 */
void
figure7(const std::vector<ConfigResult> &results)
{
    bench::banner("Figure 7 — Average laser power of power-scaling "
                  "architectures",
                  "Figure 7, Section IV-C");

    const auto &base = results.front().avg;
    TextTable t({"config", "laser power (W)", "savings vs 64WL",
                 "paper savings"});
    const char *paper[] = {"baseline", "46%",   "55.8%",
                           "65.5%",    "60.7%", "42%"};
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        t.addRow({r.name, TextTable::num(r.avg.laserPowerW, 3),
                  TextTable::pct(1.0 - r.avg.laserPowerW /
                                           base.laserPowerW),
                  paper[i]});
    }
    t.print(std::cout);

    std::cout << "\nPer-pair laser power (W):\n";
    perPairTable(results, &metrics::RunMetrics::laserPowerW);
}

/**
 * Figure 8: the fraction of simulation time spent in each wavelength
 * state under ML-based power scaling, for RW500 (a) and RW2000 (b).
 *
 * Expected shape (paper): a spread across all five states, with RW2000
 * spending just under 30% of the time in the 64WL state (which is why
 * its throughput loss is negligible).
 */
void
figure8(const std::vector<ConfigResult> &results)
{
    bench::banner("Figure 8 — Wavelength-state residency under ML power "
                  "scaling",
                  "Figure 8(a)/(b), Section IV-C");

    for (const auto &r : results) {
        std::cout << r.name << " (average over " << r.runs.size()
                  << " test pairs):\n";
        TextTable t({"state", "time share"});
        for (int s = photonic::kNumWlStates - 1; s >= 0; --s) {
            t.addRow({photonic::toString(photonic::stateFromIndex(s)),
                      TextTable::pct(
                          r.avg.residency[static_cast<std::size_t>(s)])});
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Per-pair residency (8/16/32/48/64):\n";
    TextTable p({"pair", "config", "8WL", "16WL", "32WL", "48WL",
                 "64WL"});
    for (const auto &r : results) {
        for (const auto &m : r.runs) {
            p.addRow({m.pairLabel, r.name,
                      TextTable::pct(m.residency[0]),
                      TextTable::pct(m.residency[1]),
                      TextTable::pct(m.residency[2]),
                      TextTable::pct(m.residency[3]),
                      TextTable::pct(m.residency[4])});
        }
    }
    p.print(std::cout);
}

/**
 * Figure 9: throughput of the RW500 power-scaling designs (without the
 * 8WL state) against the PEARL-Dyn, PEARL-FCFS and CMESH
 * (`results.back()`) baselines.
 *
 * Expected shape (paper): dynamic and ML power scaling beat CMESH by
 * ~34% and ~20% respectively; Dyn RW500 roughly matches PEARL-FCFS and
 * sits ~8% under PEARL-Dyn at constant 64 wavelengths.
 */
void
figure9(const std::vector<ConfigResult> &results)
{
    bench::banner("Figure 9 — RW500 power scaling vs baseline "
                  "architectures",
                  "Figure 9, Section IV-C");

    const double cmesh_thru = results.back().avg.throughputFlitsPerCycle;
    TextTable t({"config", "thru (flits/cyc)", "vs CMESH",
                 "paper vs CMESH"});
    const char *paper[] = {"+34% (Dyn family)", "-", "+34%", "+20%",
                           "baseline"};
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        t.addRow({r.name,
                  TextTable::num(r.avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(r.avg.throughputFlitsPerCycle /
                                     cmesh_thru -
                                 1.0),
                  paper[i]});
    }
    t.print(std::cout);

    std::cout << "\nLatency view (cycles):\n";
    TextTable l({"config", "avg latency"});
    for (const auto &r : results)
        l.addRow({r.name, TextTable::num(r.avg.avgLatencyCycles, 0)});
    l.print(std::cout);
}

/**
 * Figure 10: throughput of ML power scaling across reservation-window
 * sizes (100, 500, 1000, 2000 cycles).
 *
 * Expected shape (paper): the best throughput comes with RW2000 (which
 * predicts the top state most accurately); shorter windows trade
 * throughput for power savings.
 */
void
figure10(const ConfigResult &baseline,
         const std::vector<ConfigResult> &results)
{
    bench::banner("Figure 10 — ML power scaling vs reservation window",
                  "Figure 10, Section IV-C");

    TextTable t({"config", "thru (flits/cyc)", "vs 64WL",
                 "laser power (W)", "savings"});
    t.addRow({"64WL baseline",
              TextTable::num(baseline.avg.throughputFlitsPerCycle, 3),
              "-", TextTable::num(baseline.avg.laserPowerW, 3), "-"});
    for (const auto &r : results) {
        t.addRow({r.name,
                  TextTable::num(r.avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(r.avg.throughputFlitsPerCycle /
                                     baseline.avg
                                         .throughputFlitsPerCycle -
                                 1.0),
                  TextTable::num(r.avg.laserPowerW, 3),
                  TextTable::pct(1.0 - r.avg.laserPowerW /
                                           baseline.avg.laserPowerW)});
    }
    t.print(std::cout);
}

/**
 * Figure 11 and the Section IV-C sensitivity text: average laser power
 * and throughput of dynamic power scaling while the laser turn-on
 * (stabilisation) time runs over kTurnOnNs, for each window in turn.
 *
 * Expected shape (paper): laser power is insensitive to the turn-on
 * time (<1% variation) while throughput degrades with slower lasers
 * (up to ~18% loss at the extreme).
 */
void
figure11(const std::vector<ConfigResult> &results)
{
    bench::banner("Figure 11 — Laser turn-on time sensitivity",
                  "Figure 11, Section IV-C (third comparison)");

    TextTable t({"config", "turn-on (ns)", "laser power (W)",
                 "thru (flits/cyc)", "thru vs 2ns"});
    const std::size_t times = std::size(kTurnOnNs);
    double thr_at_2ns = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        if (i % times == 0)
            thr_at_2ns = r.avg.throughputFlitsPerCycle;
        t.addRow({r.name, std::to_string(kTurnOnNs[i % times]),
                  TextTable::num(r.avg.laserPowerW, 3),
                  TextTable::num(r.avg.throughputFlitsPerCycle, 3),
                  TextTable::pct(r.avg.throughputFlitsPerCycle /
                                     thr_at_2ns -
                                 1.0)});
    }
    t.print(std::cout);
    std::cout << "\nPaper reference: power variation < 1% across "
                 "turn-on times; Dyn RW500 throughput loss 0-17.9%, "
                 "Dyn RW2000 0-17.3% from 2 ns to 32 ns.\n";
}

/**
 * The Section IV-C predictive-performance numbers: NRMSE of the ridge
 * model on validation vs test data for RW500 and RW2000, and the
 * wavelength-state selection accuracy (the paper reports 99.9% accuracy
 * for selecting the top 64WL state at RW2000).
 */
void
nrmse(const traffic::BenchmarkSuite &suite,
      const std::map<std::uint64_t, ml::PipelineResult> &models)
{
    bench::banner("ML predictive performance (NRMSE + state accuracy)",
                  "Section IV-C text: NRMSE 0.79->0.68 (RW500), "
                  "0.79->0.05 (RW2000), 99.9% top-state accuracy");

    TextTable t({"window", "val NRMSE", "test NRMSE", "state acc",
                 "top-state acc", "test samples"});
    const auto start = std::chrono::steady_clock::now();
    std::size_t collections = 0;
    for (std::uint64_t rw : {500ULL, 2000ULL}) {
        // Collect test data under the model's own policy, mirroring
        // the paper's deployment measurement; each pair's job gets its
        // own policy over the shared, read-only model.
        const ml::PipelineResult &trained = models.at(rw);

        ml::PipelineConfig cfg;
        cfg.reservationWindow = rw;
        cfg.simCycles = envU64("PEARL_BENCH_TRAIN", 30000);
        ml::TrainingPipeline pipeline(suite, cfg);

        ml::MlPolicyConfig pol;
        pol.enable8Wl = false;
        const ml::RidgeRegression *model = &trained.model;
        const auto ml_policy = [model, pol] {
            return std::make_unique<ml::MlPowerPolicy>(model, pol);
        };
        const auto test_pairs = bench::testPairs(suite);
        const ml::Dataset test =
            pipeline.collectAll(test_pairs, 900, ml_policy);

        const auto eval = pipeline.evaluate(trained.model, test);
        // Validation NRMSE of the deployed model: the validation pairs
        // re-collected under the model's own policy, so a freshly
        // trained model and one loaded from its file report the same.
        const auto val_pairs = suite.validationPairs();
        const ml::Dataset val =
            pipeline.collectAll(val_pairs, 500, ml_policy);
        const double val_nrmse =
            ml::nrmseFit(val.labels, trained.model.predictAll(val));
        collections += test_pairs.size() + val_pairs.size();

        t.addRow({"RW" + std::to_string(rw),
                  TextTable::num(val_nrmse, 3),
                  TextTable::num(eval.nrmse, 3),
                  TextTable::pct(eval.stateAccuracy),
                  TextTable::pct(eval.topStateAccuracy),
                  std::to_string(eval.samples)});
    }
    t.print(std::cout);
    std::cout << "[ml] NRMSE: " << collections << " collections"
              << bench::wallOnThreads(start) << "\n";
}

} // namespace

int
main()
{
    traffic::BenchmarkSuite suite;

    table1();
    std::cout << "\n";
    table2();
    std::cout << "\n";
    table3();
    std::cout << "\n";
    table4(suite);
    table5();
    std::cout << "\n";

    // Every model the grid and the NRMSE table use, loaded or trained
    // here before any job exists.  The map outlives the sweep, so the
    // policy factories may hold pointers into it.
    std::map<std::uint64_t, ml::PipelineResult> models;
    for (std::uint64_t rw : {100ULL, 500ULL, 1000ULL, 2000ULL})
        models.emplace(rw, bench::trainedModel(suite, rw));

    // The grid: each configuration over every pair.
    bench::Grid grid(suite);
    core::DbaConfig dyn;
    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;
    // (configuration, display name) in a figure's row order.
    using Rows = std::vector<std::pair<std::size_t, std::string>>;

    // Fig. 5: static bandwidth, CMESH links slowed in proportion.
    Rows fig5;
    const photonic::WlState states[] = {photonic::WlState::WL64,
                                        photonic::WlState::WL32,
                                        photonic::WlState::WL16};
    const int cmesh_slowdown[] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
        const auto state = states[i];
        const std::string suffix =
            std::to_string(photonic::wavelengths(state)) + "WL";
        core::PearlConfig cfg;
        cfg.initialState = state;
        auto make_static = [state] {
            return std::make_unique<core::StaticPolicy>(state);
        };
        for (const auto &[name, dba] :
             {std::pair{"PEARL-Dyn " + suffix, dyn},
              std::pair{"PEARL-FCFS " + suffix, fcfs}})
            fig5.emplace_back(grid.pearl(name, cfg, dba, make_static),
                              name);
        electrical::CmeshConfig mesh;
        mesh.linkCyclesPerFlit = cmesh_slowdown[i];
        fig5.emplace_back(grid.cmesh("CMESH " + suffix, mesh),
                          "CMESH " + suffix);
    }
    const std::size_t dyn64 = fig5[0].first;
    const std::size_t fcfs64 = fig5[1].first;
    const std::size_t cmesh64 = fig5[2].first;

    // Fig. 11: reactive scaling per window and turn-on time (2 GHz
    // network clock: 1 ns = 2 cycles).  The 2 ns runs are Figs. 6, 7
    // and 9's Dyn rows.
    Rows fig11;
    for (std::uint64_t rw : {500ULL, 2000ULL}) {
        const std::string name = "Dyn RW" + std::to_string(rw);
        for (int ns : kTurnOnNs) {
            core::PearlConfig cfg;
            cfg.reservationWindow = rw;
            cfg.laserTurnOnCycles = static_cast<std::uint64_t>(2 * ns);
            fig11.emplace_back(
                grid.pearl(
                    name + " " + std::to_string(ns) + "ns", cfg, dyn,
                    [] { return std::make_unique<core::ReactivePolicy>(); }),
                name);
        }
    }
    const std::size_t dyn500 = fig11[0].first;
    const std::size_t dyn2000 = fig11[std::size(kTurnOnNs)].first;

    // ML power scaling per window (Fig. 10), plus RW500 without the 8WL
    // state (Figs. 6, 7 and 9).
    auto ml_config = [&](std::uint64_t rw, bool enable8) {
        core::PearlConfig cfg;
        cfg.reservationWindow = rw;
        ml::MlPolicyConfig pol;
        pol.enable8Wl = enable8;
        const ml::RidgeRegression *model = &models.at(rw).model;
        return grid.pearl("ML RW" + std::to_string(rw) +
                              (enable8 ? "" : " no8WL"),
                          cfg, dyn, [model, pol] {
                              return std::make_unique<ml::MlPowerPolicy>(
                                  model, pol);
                          });
    };
    std::map<std::uint64_t, std::size_t> ml_rw;
    for (const auto &[rw, model] : models)
        ml_rw[rw] = ml_config(rw, true);
    const std::size_t ml500_no8 = ml_config(500, false);

    grid.run();
    auto results = [&](const Rows &rows) {
        std::vector<ConfigResult> out;
        for (const auto &[config, name] : rows)
            out.push_back(grid.result(config, name));
        return out;
    };

    figure4(grid.result(dyn64, "PEARL-Dyn 64WL"));
    std::cout << "\n";
    figure5(results(fig5));
    std::cout << "\n";
    const std::vector<ConfigResult> scaling = {
        grid.result(dyn64, "64WL (PEARL-Dyn)"),
        grid.result(dyn500, "Dyn RW500"),
        grid.result(dyn2000, "Dyn RW2000"),
        grid.result(ml_rw.at(500), "ML RW500"),
        grid.result(ml500_no8, "ML RW500 no8WL"),
        grid.result(ml_rw.at(2000), "ML RW2000")};
    figure6(scaling);
    std::cout << "\n";
    figure7(scaling);
    std::cout << "\n";
    figure8({grid.result(ml_rw.at(500), "ML RW500"),
             grid.result(ml_rw.at(2000), "ML RW2000")});
    std::cout << "\n";
    figure9({grid.result(dyn64, "PEARL-Dyn (64WL)"),
             grid.result(fcfs64, "PEARL-FCFS (64WL)"),
             grid.result(dyn500, "Dyn RW500"),
             grid.result(ml500_no8, "ML RW500 (no 8WL)"),
             grid.result(cmesh64, "CMESH")});
    std::cout << "\n";
    Rows fig10;
    for (const auto &[rw, config] : ml_rw)
        fig10.emplace_back(config, "ML RW" + std::to_string(rw));
    figure10(grid.result(dyn64, "64WL"), results(fig10));
    std::cout << "\n";
    figure11(results(fig11));
    std::cout << "\n";
    nrmse(suite, models);
    std::cout << "\n";
    grid.printFooter();
    return 0;
}
