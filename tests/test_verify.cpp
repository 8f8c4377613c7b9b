/**
 * @file
 * Verification plane: differential harness (RefNetwork vs PearlNetwork),
 * runtime invariant checker, and the deterministic config fuzzer.
 *
 * The fuzz campaign is budgeted through environment knobs so CI can run
 * it time-boxed without editing the test:
 *   PEARL_FUZZ_CASES    cases to attempt (default 200)
 *   PEARL_FUZZ_SECONDS  wall-clock budget, 0 = unlimited (default 0)
 *   PEARL_FUZZ_SEED     campaign base seed (default 0xF0CC)
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "core/network.hpp"
#include "core/router.hpp"
#include "core/system.hpp"
#include "core/topology.hpp"
#include "core/validate.hpp"
#include "electrical/cmesh.hpp"
#include "electrical/validate.hpp"
#include "metrics/sweep.hpp"
#include "ml/guarded_policy.hpp"
#include "photonic/laser.hpp"
#include "photonic/power_model.hpp"
#include "traffic/suite.hpp"
#include "verify/diff.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/ref_network.hpp"

namespace pearl {
namespace verify {
namespace {

using sim::CoreType;
using sim::Cycle;

/** Small hand-written config the explicit differential cases share. */
core::PearlConfig
smallConfig()
{
    core::PearlConfig cfg;
    cfg.numClusters = 3;
    cfg.l3Node = 3;
    cfg.l3WaveguideGroup = 2;
    cfg.cpuInjectSlots = 8;
    cfg.gpuInjectSlots = 8;
    cfg.rxSlotsPerClass = 8;
    cfg.reservationWindow = 60;
    cfg.windowOffsetPerRouter = 7;
    cfg.laserTurnOnCycles = 3;
    return cfg;
}

DiffCase
smallCase(core::PearlConfig cfg)
{
    DiffCase d;
    d.cfg = cfg;
    d.cycles = 900;
    d.trafficSeed = 0x5EED;
    d.cpuRate = 0.10;
    d.gpuRate = 0.08;
    d.makePolicy = [] {
        return std::make_unique<core::ReactivePolicy>();
    };
    return d;
}

// Differential harness -----------------------------------------------------

TEST(RefDiff, HealthyFabricReactivePolicy)
{
    const DiffResult r = runDiff(smallCase(smallConfig()));
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

TEST(RefDiff, FaultPlaneWithRetransmissions)
{
    core::PearlConfig cfg = smallConfig();
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xFA11;
    cfg.faults.bankMtbfCycles = 400.0;
    cfg.faults.bankMttrCycles = 250.0;
    cfg.faults.baseBer = 1e-3;
    cfg.faults.reservationDropRate = 0.01;
    cfg.ackTimeoutCycles = 12;
    cfg.retryLimit = 3;
    cfg.retxBackoffBase = 4;
    cfg.retxBackoffMax = 32;
    ASSERT_TRUE(core::validate(cfg));

    DiffCase d = smallCase(cfg);
    d.cycles = 1500;
    const DiffResult r = runDiff(d);
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

TEST(RefDiff, GuardedMlPolicy)
{
    DiffCase d = smallCase(smallConfig());
    d.makePolicy = [] {
        ml::GuardrailConfig guard;
        guard.errorWindow = 2;
        guard.enterError = 0.50;
        guard.exitError = 0.20;
        guard.enterStreak = 1;
        guard.exitStreak = 2;
        return std::make_unique<ml::GuardedPolicy>(
            &fuzzModel(), ml::MlPolicyConfig{}, guard);
    };
    const DiffResult r = runDiff(d);
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
}

/** The smallest grouped express chip: 4 clusters in two groups of 2,
 *  one express slot per group so inter-group packets contend. */
core::PearlConfig
groupedConfig()
{
    core::PearlConfig cfg = smallConfig();
    cfg.numClusters = 4;
    cfg.l3Node = 4;
    cfg.reservationGroupSize = 2;
    cfg.resExpressSlots = 1;
    cfg.expressReservationCycles = 3;
    cfg.expressResLaserW = 0.0006;
    return cfg;
}

TEST(RefDiff, GroupedExpressMatchesReferenceClassSplitDba)
{
    // The default DBA mode (PaperLadder) splits each group's express
    // pool per traffic class; the reference mirrors the split inline.
    core::PearlConfig cfg = groupedConfig();
    cfg.resExpressSlots = 2;
    ASSERT_TRUE(core::validate(cfg));
    const DiffResult r = runDiff(smallCase(cfg));
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

TEST(RefDiff, GroupedExpressMatchesReferenceFcfsSharedPool)
{
    core::PearlConfig cfg = groupedConfig();
    ASSERT_TRUE(core::validate(cfg));
    DiffCase d = smallCase(cfg);
    d.dba.mode = core::DbaConfig::Mode::Fcfs;
    const DiffResult r = runDiff(d);
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

TEST(RefDiff, GroupedExpressWithFaultCappedPools)
{
    // Laser-bank failures shrink a group's express cap cycle by cycle;
    // both simulators must agree on caps, grants and energy bit for
    // bit while the invariant checker audits slot conservation.
    core::PearlConfig cfg = groupedConfig();
    cfg.resExpressSlots = 2;
    cfg.faults.enabled = true;
    cfg.faults.seed = 0xFA22;
    cfg.faults.bankMtbfCycles = 300.0;
    cfg.faults.bankMttrCycles = 200.0;
    cfg.faults.reservationDropRate = 0.01;
    cfg.ackTimeoutCycles = 12;
    cfg.retryLimit = 3;
    cfg.retxBackoffBase = 4;
    cfg.retxBackoffMax = 32;
    ASSERT_TRUE(core::validate(cfg));

    DiffCase d = smallCase(cfg);
    d.cycles = 1500;
    const DiffResult r = runDiff(d);
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

TEST(RefDiff, SixteenClustersInGroupsOfFourWithFullFaultPlane)
{
    // A larger grouped chip than the 4-cluster cases above: four
    // waveguide groups of four with BER corruption, reservation drops,
    // laser-bank outages and retransmissions all live at once.
    FuzzCase c;
    c.numClusters = 16;
    c.reservationGroupSize = 4;
    c.resExpressSlots = 2;
    c.faultsEnabled = true;
    c.bankMtbfCycles = 20000.0;
    c.bankMttrCycles = 400.0;
    c.baseBer = 1e-4;
    c.reservationDropRate = 0.01;
    c.cycles = 800;
    c.cpuRate = 0.08;
    c.gpuRate = 0.08;
    const DiffResult r = runDiff(toDiffCase(c));
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

TEST(RefDiff, SingleGroupChipRunsUngrouped)
{
    // reservationGroupSize == numClusters means one group spanning the
    // chip: grouped() is false, no express plane on either simulator —
    // the scale-out plane's backward-compatibility contract (the
    // golden-metrics suite pins the byte-identity half at 16 clusters).
    core::PearlConfig cfg = smallConfig();
    cfg.reservationGroupSize = cfg.numClusters;
    ASSERT_TRUE(core::validate(cfg));
    EXPECT_FALSE(cfg.grouped());
    const DiffResult r = runDiff(smallCase(cfg));
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
}

TEST(RefDiff, SaturatedReceiversBounceInReferenceOrder)
{
    // One flit of ejection per cycle against five-slot rx buffers and
    // heavy offered load: every cycle some arrivals find their buffer
    // full and go back on the in-flight heap.  Equal-due arrivals must
    // pop in the reference's order whatever the link latency.  With the
    // fault plane on, an arrival takes its BER draw on its first pop,
    // so fresh keys are drawn (and some corrupted or never sent) while
    // already-checked keys bounce around them.
    core::PearlConfig saturated = smallConfig();
    saturated.ejectFlitsPerCycle = 1;
    saturated.rxSlotsPerClass = 5;

    core::PearlConfig faulty = saturated;
    faulty.faults.enabled = true;
    faulty.faults.seed = 0xB0B;
    faulty.faults.baseBer = 1e-4;
    faulty.faults.reservationDropRate = 0.01;
    faulty.ackTimeoutCycles = 12;
    faulty.retryLimit = 3;
    faulty.retxBackoffBase = 4;
    faulty.retxBackoffMax = 32;

    std::vector<core::PearlConfig> cases;
    for (int latency : {1, 2, 3}) {
        saturated.linkLatencyCycles = latency;
        cases.push_back(saturated);
    }
    cases.push_back(faulty);

    for (const core::PearlConfig &cfg : cases) {
        ASSERT_TRUE(core::validate(cfg));
        DiffCase d = smallCase(cfg);
        d.cpuRate = 0.45;
        d.gpuRate = 0.45;
        const DiffResult r = runDiff(d);
        SCOPED_TRACE("linkLatencyCycles " +
                     std::to_string(cfg.linkLatencyCycles) + " faults " +
                     std::to_string(cfg.faults.enabled));
        EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": "
                            << r.description;
        EXPECT_GT(r.rxRetries, d.cycles);
    }
}

TEST(RefDiff, DetectsSeededDivergence)
{
    // Self-test of the comparator: run the optimized side with one more
    // eject slot per cycle than the reference and the ejection schedules
    // must visibly diverge — a harness that can't see a planted bug
    // can't certify the absence of real ones.
    DiffCase d = smallCase(smallConfig());
    core::PearlConfig skewed = d.cfg;
    skewed.ejectFlitsPerCycle = 1; // reference still runs 4
    const photonic::PowerModel power{};
    auto pearl_policy = d.makePolicy();
    auto ref_policy = d.makePolicy();
    core::PearlNetwork pearl(skewed, power, d.dba, pearl_policy.get());
    RefNetwork ref(d.cfg, power, d.dba, ref_policy.get());
    TrafficGen traffic(d.trafficSeed, d.cpuRate, d.gpuRate,
                       d.cfg.numNodes());
    bool diverged = false;
    for (Cycle i = 0; i < 400 && !diverged; ++i) {
        for (const sim::Packet &pkt : traffic.cycleTraffic(pearl.cycle())) {
            pearl.inject(pkt);
            ref.inject(pkt);
        }
        pearl.step();
        ref.step();
        diverged = pearl.stats().deliveredPackets() !=
                       ref.stats().deliveredPackets() ||
                   pearl.delivered().size() != ref.delivered().size();
        pearl.delivered().clear();
        ref.delivered().clear();
    }
    EXPECT_TRUE(diverged);
}

// CMESH: optimized CmeshNetwork vs the naive RefCmesh ----------------------

std::string
describeCmesh(const CmeshDiffCase &c)
{
    std::ostringstream os;
    os << c.cfg.meshX << "x" << c.cfg.meshY << " numVcs " << c.cfg.numVcs
       << " vcDepthFlits " << c.cfg.vcDepthFlits << " linkCyclesPerFlit "
       << c.cfg.linkCyclesPerFlit << " load " << c.cpuRate << " hotspot "
       << c.hotspot;
    return os.str();
}

void
expectCmeshMatchesReference(const CmeshDiffCase &c)
{
    SCOPED_TRACE(describeCmesh(c));
    ASSERT_TRUE(electrical::validate(c.cfg));
    const DiffResult r = runCmeshDiff(c);
    EXPECT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.deliveredPackets, 0u);
}

/** Every numVcs x depth x link-width x load combination on one mesh
 *  shape: the narrowest and the widest VC sets the masks allow, single-
 *  and multi-slot VCs, the three Figure 5 link widths, and a light and
 *  a saturating load. */
void
expectCmeshMatrixMatchesReference(int mesh_x, int mesh_y)
{
    for (int vcs : {2, 10}) {
        for (int depth : {1, 3}) {
            for (int link : {1, 2, 4}) {
                for (double load : {0.02, 0.3}) {
                    CmeshDiffCase c;
                    c.cfg.meshX = mesh_x;
                    c.cfg.meshY = mesh_y;
                    c.cfg.numVcs = vcs;
                    c.cfg.vcDepthFlits = depth;
                    c.cfg.linkCyclesPerFlit = link;
                    c.cycles = 2000;
                    c.trafficSeed = 0xC3E5 + static_cast<std::uint64_t>(
                                                 vcs * 100 + depth * 10 +
                                                 link);
                    c.cpuRate = load;
                    c.gpuRate = load;
                    expectCmeshMatchesReference(c);
                }
            }
        }
    }
}

TEST(RefDiff, CmeshFourByFourMatrixMatchesReference)
{
    expectCmeshMatrixMatchesReference(4, 4);
}

TEST(RefDiff, CmeshEightByTwoMatrixMatchesReference)
{
    expectCmeshMatrixMatchesReference(8, 2);
}

TEST(RefDiff, CmeshHotspotClusterMatchesReference)
{
    // Every endpoint sends all its traffic to one cluster, so that
    // cluster's two-flit ejection port has several ready VCs at once and
    // the switch allocator's in-scan pointer update is exercised on
    // every grant.  Cluster 5 shares its router with the MC, so both
    // ejection ports there draw on the same input VCs.
    for (int hotspot : {0, 5, 10}) {
        for (int vcs : {4, 10}) {
            for (int link : {1, 2}) {
                CmeshDiffCase c;
                c.cfg.numVcs = vcs;
                c.cfg.linkCyclesPerFlit = link;
                c.cycles = 3000;
                c.trafficSeed = 0x407 + static_cast<std::uint64_t>(hotspot);
                c.cpuRate = 0.3;
                c.gpuRate = 0.3;
                c.hotspot = hotspot;
                expectCmeshMatchesReference(c);
            }
        }
    }
}

// A silent chip vs the reference simulator ----------------------------------

traffic::BenchmarkProfile
quietProfile(CoreType t)
{
    traffic::BenchmarkProfile p;
    p.name = "quiet";
    p.abbrev = "QU";
    p.coreType = t;
    p.accessRateOn = 0.0;
    p.accessRateOff = 0.0;
    return p;
}

struct QuietOutcome
{
    Cycle cycle = 0;
    std::uint64_t delivered = 0;
    std::uint64_t laserCycles = 0;
    std::uint64_t upSwitches = 0;
    std::uint64_t downSwitches = 0;
    double residencyWl8 = 0.0;
    double laserEnergyJ = 0.0;
    double trimmingEnergyJ = 0.0;
};

QuietOutcome
runQuietSystem(sim::Network &net, core::HeteroSystem &system, Cycle cycles)
{
    system.run(cycles);
    QuietOutcome out;
    out.cycle = net.cycle();
    out.delivered = net.stats().deliveredPackets();
    return out;
}

QuietOutcome
runQuietPearl(Cycle cycles, core::PowerPolicy &policy)
{
    const core::PearlConfig cfg;
    const photonic::PowerModel power;
    core::PearlNetwork net(cfg, power, core::DbaConfig{}, &policy);
    traffic::BenchmarkPair pair{quietProfile(CoreType::CPU),
                                quietProfile(CoreType::GPU)};
    core::HeteroSystem system(
        net, pair, core::SystemConfig{},
        [&net](int n) { return &net.telemetryOf(n); });
    QuietOutcome out = runQuietSystem(net, system, cycles);
    for (int r = 0; r < net.numNodes(); ++r) {
        const auto &laser = net.router(r).laser();
        out.laserCycles += laser.cycles();
        out.upSwitches += laser.upSwitches();
        out.downSwitches += laser.downSwitches();
    }
    out.residencyWl8 = net.residency(photonic::WlState::WL8);
    out.laserEnergyJ = net.laserEnergyJ();
    out.trimmingEnergyJ = net.trimmingEnergyJ();
    return out;
}

QuietOutcome
runQuietRef(Cycle cycles, core::PowerPolicy &policy)
{
    const core::PearlConfig cfg;
    const photonic::PowerModel power;
    RefNetwork net(cfg, power, core::DbaConfig{}, &policy);
    traffic::BenchmarkPair pair{quietProfile(CoreType::CPU),
                                quietProfile(CoreType::GPU)};
    core::HeteroSystem system(
        net, pair, core::SystemConfig{},
        [&net](int n) { return &net.telemetryOf(n); });
    QuietOutcome out = runQuietSystem(net, system, cycles);
    for (int r = 0; r < net.numNodes(); ++r) {
        out.laserCycles += net.laserCycles(r);
        out.upSwitches += net.upSwitches(r);
        out.downSwitches += net.downSwitches(r);
    }
    out.residencyWl8 = net.residency(photonic::WlState::WL8);
    out.laserEnergyJ = net.laserEnergyJ();
    out.trimmingEnergyJ = net.trimmingEnergyJ();
    return out;
}

TEST(RefDiff, SilentChipReactiveLasersMatchReference)
{
    // A reactive policy on a chip whose cores never issue walks every
    // laser down to WL8 through window-boundary downswitches; the full
    // system must drive both fabrics through the same states.
    core::ReactivePolicy pearl_policy;
    core::ReactivePolicy ref_policy;
    const QuietOutcome pearl = runQuietPearl(12000, pearl_policy);
    const QuietOutcome ref = runQuietRef(12000, ref_policy);

    EXPECT_EQ(pearl.cycle, ref.cycle);
    EXPECT_EQ(pearl.delivered, ref.delivered);
    EXPECT_GT(pearl.downSwitches, 0u);
    EXPECT_EQ(pearl.downSwitches, ref.downSwitches);
    EXPECT_EQ(pearl.upSwitches, ref.upSwitches);
    EXPECT_EQ(pearl.laserCycles, ref.laserCycles);
    EXPECT_GT(pearl.residencyWl8, 0.9);
    EXPECT_EQ(pearl.residencyWl8, ref.residencyWl8);
    EXPECT_EQ(pearl.laserEnergyJ, ref.laserEnergyJ);
    EXPECT_EQ(pearl.trimmingEnergyJ, ref.trimmingEnergyJ);
}

// Cluster: MSHR wait queue against the polling reference ------------------

TEST(RefCluster, FuzzedTinyMshrCasesMatchPollingReference)
{
    // 1-2 MSHR entries, a tiny L2 and a long poll period keep most
    // accesses waiting; a fake L3 that can answer inside one poll period
    // makes entries free and refill between polls.
    std::uint64_t waits = 0;
    for (std::uint64_t i = 0; i < 48; ++i) {
        ClusterDiffCase c = makeClusterFuzzCase(0xC1A5 + i);
        c.cycles = 1500;
        const DiffResult r = runClusterDiff(c);
        ASSERT_TRUE(r.ok()) << "case seed " << c.seed << " cycle "
                            << r.cycle << ": " << r.description;
        EXPECT_GT(r.deliveredPackets, 0u) << "case seed " << c.seed;
        waits += r.mshrWaits;
    }
    EXPECT_GT(waits, 10000u);
}

TEST(RefCluster, FuzzedTinyMshrCasesOnSharedPhasesMatchPollingReference)
{
    // The same cases with every core on a chip-wide phase, as every chip
    // runs them: the reference reads phases ticked each cycle and draws
    // each core each cycle, the node scans ahead on looked-ahead twins.
    std::uint64_t waits = 0;
    for (std::uint64_t i = 0; i < 48; ++i) {
        ClusterDiffCase c = makeClusterFuzzCase(0xC1A5 + i);
        c.cycles = 1500;
        c.sharedPhases = true;
        const DiffResult r = runClusterDiff(c);
        ASSERT_TRUE(r.ok()) << "case seed " << c.seed << " cycle "
                            << r.cycle << ": " << r.description;
        EXPECT_GT(r.deliveredPackets, 0u) << "case seed " << c.seed;
        waits += r.mshrWaits;
    }
    EXPECT_GT(waits, 10000u);
}

TEST(RefCluster, PaperHierarchyUnderMshrPressureMatchesPollingReference)
{
    // The Table I hierarchy with its 32/128-entry MSHRs, driven hard
    // enough by FA's CPU profile and DCT's GPU profile that both tables
    // fill, answered at L3-like latencies.
    const traffic::BenchmarkSuite suite;
    ClusterDiffCase c;
    c.cpu = suite.find("FA");
    c.gpu = suite.find("DCT");
    c.cpu.accessRateOn = c.cpu.accessRateOff = 0.9;
    c.gpu.accessRateOn = c.gpu.accessRateOff = 0.9;
    c.cycles = 6000;
    c.seed = 0xFADC;
    c.l3Seed = 0x13;
    c.minLatency = 20;
    c.maxLatency = 400;
    const DiffResult r = runClusterDiff(c);
    ASSERT_TRUE(r.ok()) << "cycle " << r.cycle << ": " << r.description;
    EXPECT_GT(r.mshrWaits, 1000u);
}

// Runtime invariant checker ------------------------------------------------

TEST(Invariants, AuditsEveryStepSilently)
{
    const core::PearlConfig cfg = smallConfig();
    const photonic::PowerModel power;
    core::ReactivePolicy policy;
    core::PearlNetwork net(cfg, power, core::DbaConfig{}, &policy);
    Invariants inv;
    net.setAuditor(&inv);
    TrafficGen traffic(7, 0.15, 0.10, cfg.numNodes());
    for (Cycle i = 0; i < 600; ++i) {
        for (const sim::Packet &pkt : traffic.cycleTraffic(net.cycle()))
            net.inject(pkt);
        ASSERT_NO_THROW(net.step());
        net.delivered().clear();
    }
    EXPECT_EQ(inv.stepsAudited(), 600u);
}

TEST(Invariants, CatchesASkippedCycle)
{
    // Every step is audited, so consecutive audits are one cycle apart.
    const core::PearlConfig cfg = smallConfig();
    const photonic::PowerModel power;
    core::ReactivePolicy policy;
    core::PearlNetwork net(cfg, power, core::DbaConfig{}, &policy);
    Invariants inv;
    inv.afterStep(net);
    net.step();
    net.step();
    EXPECT_THROW(inv.afterStep(net), InvariantViolation);
}

TEST(Invariants, MaxScaleChipRunsInvariantClean)
{
    // The acceptance ceiling of the scale-out plane: a 128-cluster chip
    // (8 waveguide groups of 16) running the full system with every
    // step audited — express-slot legality, packet conservation, energy
    // monotonicity — for a bounded cycle budget.
    core::TopologySpec topo;
    topo.clusters = 128;
    const core::PearlConfig cfg = topo.pearlConfig();
    ASSERT_TRUE(cfg.grouped());
    const photonic::PowerModel power;
    core::StaticPolicy policy(photonic::WlState::WL64);
    core::PearlNetwork net(cfg, power, core::DbaConfig{}, &policy);
    Invariants inv;
    net.setAuditor(&inv);

    traffic::BenchmarkSuite suite;
    traffic::BenchmarkPair pair{suite.find("FA"), suite.find("DCT")};
    core::HeteroSystem system(
        net, pair, core::makeSystemConfig(topo),
        [&net](int n) { return &net.telemetryOf(n); });
    ASSERT_NO_THROW(system.run(3000));

    EXPECT_EQ(inv.stepsAudited(), 3000u);
    EXPECT_GT(net.stats().deliveredPackets(), 100u);
    // Inter-group traffic actually exercised the express plane.
    EXPECT_GT(net.expressAcquired(), 0u);
}

TEST(Invariants, ScaleOut64ClusterSmoke)
{
    // The CI scale-out smoke (scripts/check.sh verify runs this under
    // ASan with PEARL_VERIFY=1): a 64-cluster chip — 4 waveguide groups
    // of 16 — through metrics::runPearl with a pinned seed and a
    // bounded cycle budget, so the whole derived-config path
    // (TopologySpec -> PearlConfig/SystemConfig -> Runner) is audited,
    // not just a hand-assembled network.
    core::TopologySpec topo;
    topo.clusters = 64;
    ASSERT_TRUE(topo.pearlConfig().grouped());

    traffic::BenchmarkSuite suite;
    metrics::RunSpec spec;
    spec.configName = "scale64-smoke";
    spec.pair = {suite.find("FA"), suite.find("DCT")};
    spec.options.system = core::makeSystemConfig(topo);
    spec.pearl = topo.pearlConfig();
    spec.options.warmupCycles = 500;
    spec.options.measureCycles = 2000;
    spec.makePolicy = [] {
        return std::make_unique<core::ReactivePolicy>(
            core::ReactiveThresholds{});
    };

    const metrics::RunMetrics m = metrics::executeSpec(spec, /*seed=*/7);
    EXPECT_GT(m.deliveredPackets, 100u);
    EXPECT_GT(m.throughputFlitsPerCycle, 0.0);
}

TEST(Invariants, CmeshConservesFlitsEveryCycle)
{
    // Every flit a CMESH has taken from an endpoint interface and not
    // yet ejected sits in exactly one input FIFO or link register.  The
    // default 4x4 mesh, then a non-square 8x2 mesh whose 2-cycle links
    // hold flits in their registers across cycle boundaries.
    electrical::CmeshConfig narrow;
    narrow.meshX = 8;
    narrow.meshY = 2;
    narrow.linkCyclesPerFlit = 2;
    for (const electrical::CmeshConfig &cfg :
         {electrical::CmeshConfig{}, narrow}) {
        SCOPED_TRACE("mesh " + std::to_string(cfg.meshX) + "x" +
                     std::to_string(cfg.meshY));
        electrical::CmeshNetwork net(cfg);
        TrafficGen traffic(1, 0.08, 0.08, net.numNodes());
        for (Cycle i = 0; i < 800; ++i) {
            for (const sim::Packet &pkt : traffic.cycleTraffic(net.cycle()))
                net.inject(pkt);
            net.step();
            ASSERT_EQ(net.flitsInFlight(), net.countBufferedFlits())
                << "cycle " << i;
            net.delivered().clear();
        }
        EXPECT_GT(net.stats().deliveredPackets(), 0u);
    }
}

TEST(Invariants, ConservationHoldsOnBalancedCounts)
{
    core::AuditCounts c;
    c.injected = 10;
    c.delivered = 4;
    c.buffered = 3;
    c.inFlight = 3;
    EXPECT_FALSE(checkConservation(c, false).has_value());

    // Fault plane: 2 of the 3 in-flight packets still await their fault
    // check (their source copies are among the 3 outstanding); the third
    // source copy is a reservation-dropped packet in limbo awaiting its
    // ACK timeout.  The retransmission count never enters the balance:
    // each reinjection consumed one queued loss.
    c.retransmitted = 2;
    c.inFlightUnchecked = 2;
    c.outstanding = 3;
    c.dropped = 1;
    c.buffered = 2;
    c.delivered = 3;
    EXPECT_FALSE(checkConservation(c, true).has_value());
}

TEST(Invariants, ConservationCatchesUndercountedDelivery)
{
    core::AuditCounts c;
    c.injected = 10;
    c.delivered = 4;
    c.buffered = 3;
    c.inFlight = 3;
    --c.delivered; // the planted bug
    const auto violation = checkConservation(c, false);
    ASSERT_TRUE(violation.has_value());
    EXPECT_NE(violation->find("conservation"), std::string::npos);
}

TEST(Invariants, ConservationCatchesOutstandingUnderflow)
{
    core::AuditCounts c;
    c.injected = 1;
    c.inFlight = 1;
    c.inFlightUnchecked = 1;
    c.outstanding = 0; // fewer source copies than unchecked instances
    EXPECT_TRUE(checkConservation(c, true).has_value());
}

TEST(Invariants, RuntimeChecksEnabledFollowsEnv)
{
    ::setenv("PEARL_VERIFY", "1", 1);
    EXPECT_TRUE(runtimeChecksEnabled());
    ::setenv("PEARL_VERIFY", "0", 1);
    EXPECT_FALSE(runtimeChecksEnabled());
    ::unsetenv("PEARL_VERIFY");
#ifdef NDEBUG
    EXPECT_FALSE(runtimeChecksEnabled());
#else
    EXPECT_TRUE(runtimeChecksEnabled());
#endif
}

// Fuzzer --------------------------------------------------------------------

TEST(Fuzzer, GeneratedConfigsAlwaysValidate)
{
    for (std::uint64_t i = 0; i < 300; ++i) {
        const FuzzCase c = generateCase(0xABCD, i);
        const auto cfg = toPearlConfig(c);
        const auto v = core::validate(cfg);
        EXPECT_TRUE(v.hasValue())
            << "case " << i << ": " << v.error().message << "\n"
            << describeCase(c);
        EXPECT_TRUE(core::validate(toDbaConfig(c)).hasValue());
    }
}

TEST(Fuzzer, CasesAreDeterministicInSeedAndIndex)
{
    const FuzzCase a = generateCase(42, 7);
    const FuzzCase b = generateCase(42, 7);
    EXPECT_EQ(describeCase(a), describeCase(b));
    const FuzzCase other = generateCase(42, 8);
    EXPECT_NE(describeCase(a), describeCase(other));
}

TEST(Fuzzer, ReproducerRoundTrips)
{
    const FuzzCase c = generateCase(0xBEEF, 3);
    std::stringstream file;
    file << "# pearl fuzz reproducer\n" << describeCase(c);
    FuzzCase parsed;
    ASSERT_TRUE(parseReproducer(file, parsed));
    EXPECT_EQ(describeCase(parsed), describeCase(c));

    std::stringstream truncated("seed=1\nnumClusters=2\n");
    FuzzCase incomplete;
    EXPECT_FALSE(parseReproducer(truncated, incomplete));
}

TEST(Fuzzer, ShrinkReachesFixpointOnSyntheticPredicate)
{
    FuzzCase start = generateCase(1, 0);
    start.cycles = 600;
    start.cpuRate = 0.1;
    start.gpuRate = 0.05;
    start.faultsEnabled = true;
    start.baseBer = 1e-3;
    start.reservationDropRate = 0.01;
    start.bankMtbfCycles = 500.0;
    start.numClusters = 4;
    start.policy = static_cast<int>(PolicyKind::Guarded);

    const auto predicate = [](const FuzzCase &c) {
        return c.cycles >= 64 && c.cpuRate > 0.0;
    };
    ASSERT_TRUE(predicate(start));
    const FuzzCase minimal = shrinkCase(start, predicate);
    EXPECT_TRUE(predicate(minimal));
    EXPECT_EQ(minimal.cycles, 75u); // 600 -> 300 -> 150 -> 75 (37 < 64)
    EXPECT_FALSE(minimal.faultsEnabled);
    EXPECT_EQ(minimal.baseBer, 0.0);
    EXPECT_EQ(minimal.reservationDropRate, 0.0);
    EXPECT_EQ(minimal.bankMtbfCycles, 0.0);
    EXPECT_EQ(minimal.gpuRate, 0.0);
    EXPECT_EQ(minimal.numClusters, 2);
    EXPECT_EQ(minimal.policy, static_cast<int>(PolicyKind::Static));
}

/** The injected-bug drill's instrumented run: execute the optimized
 *  simulator alone, under-report the delivered count by one, and ask
 *  the conservation check whether it notices. */
bool
buggedRunTripsConservation(const FuzzCase &c)
{
    const DiffCase d = toDiffCase(c);
    const photonic::PowerModel power{};
    const auto policy = d.makePolicy();
    core::PearlNetwork net(d.cfg, power, d.dba, policy.get());
    TrafficGen traffic(d.trafficSeed, d.cpuRate, d.gpuRate,
                       d.cfg.numNodes());
    for (Cycle i = 0; i < d.cycles; ++i) {
        for (const sim::Packet &pkt : traffic.cycleTraffic(net.cycle()))
            net.inject(pkt);
        net.step();
        net.delivered().clear();
        core::AuditCounts counts = net.auditCounts();
        if (counts.delivered > 0)
            --counts.delivered; // the planted conservation bug
        if (checkConservation(counts, net.faults().enabled()))
            return true;
    }
    return false;
}

TEST(Fuzzer, InjectedConservationBugIsCaughtShrunkAndPersisted)
{
    // Find a fuzzed case where the planted undercount is observable
    // (any case that delivers at least one packet qualifies).
    FuzzCase failing;
    bool found = false;
    for (std::uint64_t i = 0; i < 40 && !found; ++i) {
        const FuzzCase c = generateCase(0xB06, i);
        if (buggedRunTripsConservation(c)) {
            failing = c;
            found = true;
        }
    }
    ASSERT_TRUE(found) << "no fuzzed case delivered any packet";

    const FuzzCase minimal =
        shrinkCase(failing, buggedRunTripsConservation);
    EXPECT_TRUE(buggedRunTripsConservation(minimal));
    EXPECT_LE(minimal.cycles, failing.cycles);

    // The minimal reproducer round-trips through disk and still fails.
    const std::string path =
        ::testing::TempDir() + "/pearl_bug_reproducer.txt";
    std::remove(path.c_str());
    writeReproducer(minimal, "delivered undercounted by one", path);
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    FuzzCase replayed;
    ASSERT_TRUE(parseReproducer(in, replayed));
    EXPECT_EQ(describeCase(replayed), describeCase(minimal));
    EXPECT_TRUE(buggedRunTripsConservation(replayed));
    std::remove(path.c_str());
}

TEST(Fuzzer, CampaignFindsNoDivergence)
{
    // The acceptance gate: seed-pinned fuzzed configs across policies,
    // DBA modes and fault schedules, reference vs optimized, with the
    // invariant checker riding on the optimized side.  Budgets come
    // from the environment so CI can time-box the smoke run.
    FuzzOptions opts;
    opts.baseSeed = envU64("PEARL_FUZZ_SEED", 0xF0CC);
    opts.maxCases = envU64("PEARL_FUZZ_CASES", 200);
    opts.maxSeconds = envDouble("PEARL_FUZZ_SECONDS", 0.0);
    opts.reproducerPath =
        ::testing::TempDir() + "/pearl_fuzz_reproducer.txt";

    const FuzzReport report = runFuzz(opts);
    EXPECT_FALSE(report.failed)
        << report.description << "\nminimal reproducer ("
        << opts.reproducerPath << "):\n"
        << describeCase(report.minimal);
    EXPECT_GE(report.casesRun, 1u);
}

} // namespace
} // namespace verify
} // namespace pearl
