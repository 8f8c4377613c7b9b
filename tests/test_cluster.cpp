/**
 * @file
 * Behavioural tests of the cluster node: L1 filtering, write-through
 * stores, MSHR merging, upgrades, probes and telemetry.
 */

#include <gtest/gtest.h>

#include "cache/cluster.hpp"
#include "fakes.hpp"
#include "traffic/suite.hpp"

namespace pearl {
namespace cache {
namespace {

using sim::CoherenceOp;
using sim::CoreType;
using sim::Cycle;
using sim::MsgClass;
using sim::NodeUnit;
using sim::Packet;
using test::CapturingSink;

/** A profile that never issues accesses on its own (we drive manually
 *  through deterministic single-access profiles instead). */
traffic::BenchmarkProfile
silentProfile(sim::CoreType type)
{
    traffic::BenchmarkProfile p;
    p.name = "silent";
    p.abbrev = "sil";
    p.coreType = type;
    p.accessRateOn = 0.0;
    p.accessRateOff = 0.0;
    p.instrFraction = 0.0;
    p.writeFraction = 0.0;
    p.sharedFraction = 0.0;
    return p;
}

/** A profile that issues a data access every cycle. */
traffic::BenchmarkProfile
firehoseProfile(sim::CoreType type, double write_fraction = 0.0,
                std::uint64_t ws = 1024)
{
    traffic::BenchmarkProfile p = silentProfile(type);
    p.name = "firehose";
    p.abbrev = "fh";
    p.accessRateOn = 1.0;
    p.accessRateOff = 1.0;
    p.writeFraction = write_fraction;
    p.workingSetLines = ws;
    p.streamFraction = 1.0;
    return p;
}

class ClusterTest : public ::testing::Test
{
  protected:
    ClusterTest()
    {
        cfg_.l1ToL2Cycles = 1;
        cfg_.l2AccessCycles = 1;
    }

    void
    makeCluster(const traffic::BenchmarkProfile &cpu,
                const traffic::BenchmarkProfile &gpu)
    {
        HomeMap map;
        cluster_ = std::make_unique<ClusterNode>(2, map, cfg_, cpu, gpu,
                                                 Rng(77));
        cluster_->attach(&sink_, &telemetry_);
    }

    void
    runCycles(int n)
    {
        for (int i = 0; i < n; ++i, ++now_)
            cluster_->tick(now_);
    }

    /** Respond to every outstanding network read with a fill. */
    void
    answerReads(CoherenceOp grant = CoherenceOp::DataExcl)
    {
        auto reads = sink_.packets;
        sink_.clear();
        for (const auto &req : reads) {
            if (req.op != CoherenceOp::Read &&
                req.op != CoherenceOp::ReadExcl) {
                sink_.packets.push_back(req); // keep non-reads
                continue;
            }
            Packet fill;
            // Coherent store misses (ReadExcl) must always be granted
            // exclusively; `grant` only selects the grant for plain reads.
            fill.op = req.op == CoherenceOp::ReadExcl
                          ? CoherenceOp::DataExcl
                          : grant;
            fill.msgClass = sim::coreTypeOf(req.msgClass) == CoreType::CPU
                                ? MsgClass::RespCpuL2Down
                                : MsgClass::RespGpuL2Down;
            fill.dstUnit = NodeUnit::Cluster;
            fill.src = req.dst;
            fill.dst = 2;
            fill.addr = req.addr;
            fill.sizeBits = sim::kResponseBits;
            cluster_->deliver(fill, now_);
        }
    }

    HierarchyConfig cfg_;
    CapturingSink sink_;
    sim::RouterTelemetry telemetry_;
    std::unique_ptr<ClusterNode> cluster_;
    Cycle now_ = 0;
};

TEST_F(ClusterTest, FirstTouchMissesGoToHomeBank)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(10);
    const auto reads = sink_.withOp(CoherenceOp::Read);
    ASSERT_GT(reads.size(), 0u);
    HomeMap map;
    for (const auto &r : reads) {
        EXPECT_EQ(r.dst, map.homeOf(r.addr));
        EXPECT_EQ(r.dstUnit, NodeUnit::L3Bank);
        EXPECT_EQ(r.msgClass, MsgClass::ReqCpuL2Down);
        EXPECT_EQ(r.sizeBits, sim::kRequestBits);
    }
}

TEST_F(ClusterTest, StreamingIsL1Filtered)
{
    // Eight word accesses per line: once the fill lands, the remaining
    // accesses to the line hit the L1.
    auto prof = firehoseProfile(CoreType::CPU);
    prof.accessRateOn = prof.accessRateOff = 0.2;
    makeCluster(prof, silentProfile(CoreType::GPU));
    for (int i = 0; i < 600; ++i) {
        runCycles(1);
        answerReads();
    }
    const auto &s = cluster_->stats();
    EXPECT_GT(s.l1Hits[0], s.l1Misses[0]);
}

TEST_F(ClusterTest, SecondaryMissesMergeInMshr)
{
    // All accesses stream through the same lines; with no responses the
    // requests pile onto existing MSHR entries instead of the network.
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(30);
    const auto reads = sink_.withOp(CoherenceOp::Read);
    // Far fewer network reads than accesses: one per distinct line.
    EXPECT_LE(reads.size(), 10u);
    EXPECT_GT(cluster_->mshrOccupancy(CoreType::CPU), 0u);
}

TEST_F(ClusterTest, CpuStoreMissesUseReadExclusive)
{
    // Coherent CPU store misses must request ownership, not a plain read.
    makeCluster(firehoseProfile(CoreType::CPU, /*write=*/1.0),
                silentProfile(CoreType::GPU));
    runCycles(5);
    EXPECT_GT(sink_.countOp(CoherenceOp::ReadExcl), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::Read), 0u);
}

TEST_F(ClusterTest, MixedLoadStoreWaiters)
{
    // Loads and stores to the same streamed lines: loads create the MSHR
    // entry (op Read), stores join as waiters; a shared grant then forces
    // an upgrade ReadExcl for the stores.
    makeCluster(firehoseProfile(CoreType::CPU, /*write=*/0.5),
                silentProfile(CoreType::GPU));
    runCycles(20);
    answerReads(CoherenceOp::Data); // shared grants
    runCycles(5);
    EXPECT_GT(sink_.countOp(CoherenceOp::ReadExcl), 0u);
}

TEST_F(ClusterTest, GpuPrivateStoresAreNonCoherent)
{
    // GPU stores to private data use plain reads (N-state fill), not RFO.
    makeCluster(silentProfile(CoreType::CPU),
                firehoseProfile(CoreType::GPU, /*write=*/1.0));
    runCycles(10);
    EXPECT_GT(sink_.countOp(CoherenceOp::Read), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::ReadExcl), 0u);
}

TEST_F(ClusterTest, ProbeInvalidateAcksAndInvalidates)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(4);
    answerReads();
    runCycles(4);
    sink_.clear();

    // Probe an address the cluster now holds.
    Packet probe;
    probe.op = CoherenceOp::ProbeInv;
    probe.msgClass = MsgClass::ReqCpuL2Down;
    probe.src = 9; // bank node
    probe.dst = 2;
    probe.addr = traffic::AddressSpace::privateBase(2 * 64) + 0;
    cluster_->deliver(probe, now_);

    ASSERT_EQ(sink_.packets.size(), 1u);
    const Packet &reply = sink_.packets[0];
    EXPECT_EQ(reply.dst, 9); // back to the probing bank
    EXPECT_EQ(reply.dstUnit, NodeUnit::L3Bank);
    EXPECT_TRUE(reply.op == CoherenceOp::Ack ||
                reply.op == CoherenceOp::Data);
    EXPECT_EQ(cluster_->stats().probesReceived, 1u);

    // A second probe for a line we never had: plain Ack.
    sink_.clear();
    probe.addr = 0xDEAD0000;
    cluster_->deliver(probe, now_);
    ASSERT_EQ(sink_.packets.size(), 1u);
    EXPECT_EQ(sink_.packets[0].op, CoherenceOp::Ack);
}

TEST_F(ClusterTest, OutstandingLimitStallsCore)
{
    cfg_.cpuCoreMaxOutstanding = 2;
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(50); // no responses -> outstanding saturates
    const auto &s = cluster_->stats();
    EXPECT_GT(s.stalled[0], 0u);
}

TEST_F(ClusterTest, TelemetryCountsLocalTraffic)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(10);
    // L1 miss requests were recorded as local core traffic.
    EXPECT_GT(telemetry_.incomingFromCores, 0u);
    EXPECT_GT(telemetry_.classCounts[static_cast<int>(
                  MsgClass::ReqCpuL1D)], 0u);
}

TEST_F(ClusterTest, FillDeliversToL1AndReleasesOutstanding)
{
    makeCluster(firehoseProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(4);
    answerReads();
    runCycles(4);
    EXPECT_GT(telemetry_.packetsToCore, 0u); // L2->L1 fills happened
    EXPECT_EQ(cluster_->mshrOccupancy(CoreType::CPU), 0u);
}

TEST_F(ClusterTest, WritebacksOnCapacityEviction)
{
    // Tiny L2 so dirty lines get evicted quickly.
    cfg_.cpuL2Lines = 32;
    cfg_.l2Ways = 2;
    cfg_.cpuL2MshrEntries = 8;
    makeCluster(firehoseProfile(CoreType::CPU, /*write=*/1.0, 512),
                silentProfile(CoreType::GPU));
    for (int i = 0; i < 300; ++i) {
        runCycles(1);
        answerReads(CoherenceOp::DataExcl);
    }
    EXPECT_GT(sink_.countOp(CoherenceOp::Writeback), 0u);
    EXPECT_GT(cluster_->stats().writebacks[0], 0u);
}

TEST_F(ClusterTest, MshrFullAccessesWaitAndWakeInSlotSeqOrder)
{
    // One CPU MSHR entry and a 4-cycle poll period (2 * l2AccessCycles).
    // A takes the entry; B, C and D find it full and wait, polling at
    // 6, 10, ... (B), 8, 12, ... (C) and 10, 14, ... (D).  Each answer
    // frees the entry for the waiter whose next poll comes first, ties
    // broken by seq: C at 8 before the older B, then B before D at 10.
    cfg_.cpuL2MshrEntries = 1;
    cfg_.l2AccessCycles = 2;
    makeCluster(silentProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    const std::uint64_t a = 0x1000, b = 0x2000, c = 0x3000, d = 0x4000;
    auto load = [](std::uint64_t line) {
        traffic::MemAccess acc;
        acc.lineAddr = line;
        return acc;
    };
    auto answer = [&](std::uint64_t line) {
        Packet fill;
        fill.op = CoherenceOp::DataExcl;
        fill.msgClass = MsgClass::RespCpuL2Down;
        fill.dstUnit = NodeUnit::Cluster;
        fill.src = 9;
        fill.dst = 2;
        fill.addr = line;
        fill.sizeBits = sim::kResponseBits;
        // After this cycle's tick, as HeteroSystem delivers.
        cluster_->deliver(fill, now_ - 1);
    };

    cluster_->issue(CoreType::CPU, 0, load(a), now_); // seq 1, L2 at 1
    runCycles(1);
    cluster_->issue(CoreType::CPU, 0, load(b), now_); // seq 2, L2 at 2
    runCycles(2);
    cluster_->issue(CoreType::CPU, 0, load(c), now_); // seq 3, L2 at 4
    runCycles(2);
    cluster_->issue(CoreType::CPU, 0, load(d), now_); // seq 4, L2 at 6
    runCycles(2); // ticked 0..6
    EXPECT_EQ(cluster_->stats().mshrWaits[0], 3u);
    EXPECT_EQ(cluster_->stats().l2Misses[0], 1u);
    EXPECT_EQ(cluster_->mshrOccupancy(CoreType::CPU), 1u);
    EXPECT_FALSE(cluster_->quiescent());

    answer(a); // after tick 6: next polls C 8, B 10, D 10
    runCycles(3); // ticked 7..9
    answer(c); // after tick 9: B and D both poll at 10
    runCycles(1);
    answer(b); // after tick 10: D polls at 14
    runCycles(4);
    EXPECT_FALSE(cluster_->quiescent());
    answer(d);
    runCycles(4);

    const auto reads = sink_.withOp(CoherenceOp::Read);
    ASSERT_EQ(reads.size(), 4u);
    const std::uint64_t want_addr[] = {a, c, b, d};
    const Cycle want_cycle[] = {1, 8, 10, 14};
    for (std::size_t i = 0; i < reads.size(); ++i) {
        EXPECT_EQ(reads[i].addr, want_addr[i]) << "read " << i;
        EXPECT_EQ(reads[i].cycleCreated, want_cycle[i]) << "read " << i;
    }
    // Waits are not misses: every access missed exactly once.
    EXPECT_EQ(cluster_->stats().mshrWaits[0], 3u);
    EXPECT_EQ(cluster_->stats().l2Misses[0], 4u);
    EXPECT_EQ(cluster_->mshrOccupancy(CoreType::CPU), 0u);
    EXPECT_TRUE(cluster_->quiescent());
}

TEST_F(ClusterTest, QuiescentWhenIdle)
{
    makeCluster(silentProfile(CoreType::CPU), silentProfile(CoreType::GPU));
    runCycles(10);
    EXPECT_TRUE(cluster_->quiescent());
    EXPECT_EQ(sink_.packets.size(), 0u);
}

} // namespace
} // namespace cache
} // namespace pearl
