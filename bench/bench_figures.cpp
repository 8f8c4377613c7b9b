/**
 * @file
 * Regenerates Figures 4-11, the paper's network comparison, from one
 * sweep.
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
 * that configuration on its own.
 */

#include <map>

#include "bench_common.hpp"
#include "common/rng.hpp"

using namespace pearl;

namespace {

using bench::ConfigResult;

/** Base of the per-pair seed derivation. */
constexpr std::uint64_t kBaseSeed = 100;

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
    bench::emit(t);
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
    bench::emit(t);

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
    bench::emit(h);
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
    bench::emit(p);
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
    bench::emit(t);

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
    bench::emit(t);

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
        bench::emit(t);
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
    bench::emit(p);
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
    bench::emit(t);

    std::cout << "\nLatency view (cycles):\n";
    TextTable l({"config", "avg latency"});
    for (const auto &r : results)
        l.addRow({r.name, TextTable::num(r.avg.avgLatencyCycles, 0)});
    bench::emit(l);
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
    bench::emit(t);
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
    bench::emit(t);
    std::cout << "\nPaper reference: power variation < 1% across "
                 "turn-on times; Dyn RW500 throughput loss 0-17.9%, "
                 "Dyn RW2000 0-17.3% from 2 ns to 32 ns.\n";
}

/** The sweep footer: jobs, threads, wall vs aggregate time, speedup
 *  and the per-phase split. */
void
sweepFooter(const metrics::SweepSummary &s)
{
    std::cout << "\n[sweep] " << s.jobs << " jobs in one sweep on "
              << s.threads << " thread" << (s.threads == 1 ? "" : "s")
              << ": wall " << TextTable::num(s.wallSeconds, 2)
              << " s, aggregate "
              << TextTable::num(s.aggregateJobSeconds, 2)
              << " s, speedup " << TextTable::num(s.speedup(), 2)
              << "x\n";
    const metrics::PhaseTimings &p = s.phaseSeconds;
    if (p.totalSeconds() > 0.0) {
        std::cout << "[sweep] phases (aggregate): build "
                  << TextTable::num(p.buildSeconds, 2) << " s, warmup "
                  << TextTable::num(p.warmupSeconds, 2) << " s, run "
                  << TextTable::num(p.runSeconds, 2) << " s, collect "
                  << TextTable::num(p.collectSeconds, 2) << " s\n";
    }
}

} // namespace

int
main()
{
    traffic::BenchmarkSuite suite;
    const auto pairs = bench::testPairs(suite);
    const metrics::RunOptions opts = bench::runOptions();

    // Every model the grid uses, loaded or trained here before any job
    // exists.  The map outlives the sweep, so the policy factories may
    // hold pointers into it.
    std::map<std::uint64_t, ml::PipelineResult> models;
    for (std::uint64_t rw : {100ULL, 500ULL, 1000ULL, 2000ULL})
        models.emplace(rw, bench::trainedModel(suite, rw));

    // The grid: each configuration over every pair, pair i on seed
    // deriveSeed(kBaseSeed, i).  `add` returns the configuration's index.
    std::vector<metrics::RunSpec> grid;
    auto add = [&](std::vector<metrics::RunSpec> specs) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            specs[i].explicitSeed = deriveSeed(kBaseSeed, i);
            grid.push_back(std::move(specs[i]));
        }
        return grid.size() / pairs.size() - 1;
    };
    core::DbaConfig dyn;
    core::DbaConfig fcfs;
    fcfs.mode = core::DbaConfig::Mode::Fcfs;
    auto pearl = [&](const std::string &name, const core::PearlConfig &cfg,
                     const core::DbaConfig &dba,
                     std::function<std::unique_ptr<core::PowerPolicy>()>
                         make_policy) {
        return add(metrics::pearlGrid(name, pairs, cfg, dba,
                                      std::move(make_policy), opts));
    };
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
            fig5.emplace_back(pearl(name, cfg, dba, make_static), name);
        electrical::CmeshConfig mesh;
        mesh.linkCyclesPerFlit = cmesh_slowdown[i];
        fig5.emplace_back(
            add(metrics::cmeshGrid("CMESH " + suffix, pairs, mesh, opts)),
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
                pearl(name + " " + std::to_string(ns) + "ns", cfg, dyn,
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
        return pearl("ML RW" + std::to_string(rw) +
                         (enable8 ? "" : " no8WL"),
                     cfg, dyn, [model, pol] {
                         return std::make_unique<ml::MlPowerPolicy>(model,
                                                                    pol);
                     });
    };
    std::map<std::uint64_t, std::size_t> ml_rw;
    for (const auto &[rw, model] : models)
        ml_rw[rw] = ml_config(rw, true);
    const std::size_t ml500_no8 = ml_config(500, false);

    metrics::SweepSummary summary;
    const std::vector<metrics::RunMetrics> runs =
        bench::runGrid(grid, &summary);
    auto result = [&](std::size_t config, std::string name) {
        const auto first = runs.begin() + static_cast<std::ptrdiff_t>(
                                              config * pairs.size());
        return bench::finish(
            std::move(name),
            {first, first + static_cast<std::ptrdiff_t>(pairs.size())});
    };
    auto results = [&](const Rows &rows) {
        std::vector<ConfigResult> out;
        for (const auto &[config, name] : rows)
            out.push_back(result(config, name));
        return out;
    };

    figure4(result(dyn64, "PEARL-Dyn 64WL"));
    std::cout << "\n";
    figure5(results(fig5));
    std::cout << "\n";
    const std::vector<ConfigResult> scaling = {
        result(dyn64, "64WL (PEARL-Dyn)"),
        result(dyn500, "Dyn RW500"),
        result(dyn2000, "Dyn RW2000"),
        result(ml_rw.at(500), "ML RW500"),
        result(ml500_no8, "ML RW500 no8WL"),
        result(ml_rw.at(2000), "ML RW2000")};
    figure6(scaling);
    std::cout << "\n";
    figure7(scaling);
    std::cout << "\n";
    figure8({result(ml_rw.at(500), "ML RW500"),
             result(ml_rw.at(2000), "ML RW2000")});
    std::cout << "\n";
    figure9({result(dyn64, "PEARL-Dyn (64WL)"),
             result(fcfs64, "PEARL-FCFS (64WL)"),
             result(dyn500, "Dyn RW500"),
             result(ml500_no8, "ML RW500 (no 8WL)"),
             result(cmesh64, "CMESH")});
    std::cout << "\n";
    Rows fig10;
    for (const auto &[rw, config] : ml_rw)
        fig10.emplace_back(config, "ML RW" + std::to_string(rw));
    figure10(result(dyn64, "64WL"), results(fig10));
    std::cout << "\n";
    figure11(results(fig11));
    sweepFooter(summary);
    return 0;
}
