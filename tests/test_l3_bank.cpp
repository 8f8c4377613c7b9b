/**
 * @file
 * Behavioural tests of the L3 bank + directory: fills, sharing, probes,
 * invalidations, writebacks, memory fetches and per-line serialisation.
 */

#include <gtest/gtest.h>

#include "cache/l3.hpp"
#include "fakes.hpp"

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

class L3BankTest : public ::testing::Test
{
  protected:
    L3BankTest()
    {
        cfg_.l3AccessCycles = 2;
        cfg_.memoryCycles = 10;
        map_.numBanks = 16;
        map_.memoryNode = 16;
        bank_ = std::make_unique<L3Bank>(/*node=*/3, /*clusters=*/16,
                                         cfg_, map_);
        bank_->attach(&sink_);
    }

    /** Run the bank forward to `cycle`. */
    void
    tickTo(Cycle cycle)
    {
        for (; now_ <= cycle; ++now_)
            bank_->tick(now_);
    }

    Packet
    request(int cluster, CoherenceOp op, std::uint64_t addr,
            CoreType type = CoreType::CPU)
    {
        Packet p;
        p.id = ++seq_;
        p.op = op;
        p.msgClass = type == CoreType::CPU ? MsgClass::ReqCpuL2Down
                                           : MsgClass::ReqGpuL2Down;
        p.dstUnit = NodeUnit::L3Bank;
        p.src = cluster;
        p.dst = 3;
        p.addr = addr;
        p.sizeBits = sim::kRequestBits;
        return p;
    }

    /** Feed the memory node's data response for `addr`. */
    void
    memResponse(std::uint64_t addr)
    {
        Packet p;
        p.id = ++seq_;
        p.op = CoherenceOp::Data;
        p.msgClass = MsgClass::RespL3;
        p.dstUnit = NodeUnit::L3Bank;
        p.src = 16;
        p.dst = 3;
        p.addr = addr;
        p.sizeBits = sim::kResponseBits;
        bank_->deliver(p, now_);
    }

    /** Drive a cold read for `cluster` to completion. */
    void
    coldRead(int cluster, std::uint64_t addr,
             CoreType type = CoreType::CPU)
    {
        bank_->deliver(request(cluster, CoherenceOp::Read, addr, type),
                       now_);
        tickTo(now_ + cfg_.l3AccessCycles + 1);
        memResponse(addr);
    }

    HierarchyConfig cfg_;
    HomeMap map_;
    CapturingSink sink_;
    std::unique_ptr<L3Bank> bank_;
    Cycle now_ = 0;
    std::uint64_t seq_ = 0;
};

TEST_F(L3BankTest, LookupsMustBeQueuedInCycleOrder)
{
    // Lookups queue in order, which is due order only while every new
    // address arrives no earlier than the last.
    bank_->deliver(request(1, CoherenceOp::Read, 0x42), 5);
    EXPECT_DEATH(bank_->deliver(request(2, CoherenceOp::Read, 0x43), 4),
                 "L3 lookup queued at an earlier cycle");
}

TEST_F(L3BankTest, ColdReadFetchesFromMemory)
{
    bank_->deliver(request(1, CoherenceOp::Read, 0x42), now_);
    EXPECT_EQ(sink_.packets.size(), 0u); // lookup latency first
    tickTo(cfg_.l3AccessCycles + 1);
    ASSERT_EQ(sink_.countOp(CoherenceOp::Read), 1u);
    const Packet mem_req = sink_.withOp(CoherenceOp::Read)[0];
    EXPECT_EQ(mem_req.dst, 16);
    EXPECT_EQ(mem_req.msgClass, MsgClass::ReqL3);
    EXPECT_EQ(mem_req.dstUnit, NodeUnit::Memory);
    EXPECT_EQ(bank_->stats().misses, 1u);
}

TEST_F(L3BankTest, SoleReaderGetsExclusive)
{
    coldRead(1, 0x42);
    ASSERT_EQ(sink_.countOp(CoherenceOp::DataExcl), 1u);
    const Packet fill = sink_.withOp(CoherenceOp::DataExcl)[0];
    EXPECT_EQ(fill.dst, 1);
    EXPECT_EQ(fill.dstUnit, NodeUnit::Cluster);
    EXPECT_EQ(fill.msgClass, MsgClass::RespCpuL2Down);
    EXPECT_EQ(fill.sizeBits, sim::kResponseBits);
}

TEST_F(L3BankTest, SecondReaderTriggersShareProbe)
{
    coldRead(1, 0x42);
    sink_.clear();

    // Cluster 2 reads the same line: cluster 1 holds it E (owner).
    bank_->deliver(request(2, CoherenceOp::Read, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    ASSERT_EQ(sink_.countOp(CoherenceOp::ProbeShare), 1u);
    EXPECT_EQ(sink_.withOp(CoherenceOp::ProbeShare)[0].dst, 1);
    EXPECT_EQ(bank_->stats().hits, 1u);

    // Owner replies with data; requester then gets a shared copy.
    Packet reply;
    reply.op = CoherenceOp::Data;
    reply.msgClass = MsgClass::RespCpuL2Down;
    reply.src = 1;
    reply.dst = 3;
    reply.addr = 0x42;
    bank_->deliver(reply, now_);
    // The requester now gets its shared copy.
    ASSERT_EQ(sink_.countOp(CoherenceOp::Data), 1u);
    const Packet fill = sink_.withOp(CoherenceOp::Data)[0];
    EXPECT_EQ(fill.dst, 2);
}

TEST_F(L3BankTest, ThirdReaderServedWithoutProbe)
{
    // After the owner's data is reflected at the bank, later readers must
    // not probe again (the probe-storm regression test).
    coldRead(1, 0x42);
    sink_.clear();
    bank_->deliver(request(2, CoherenceOp::Read, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    Packet reply;
    reply.op = CoherenceOp::Data;
    reply.msgClass = MsgClass::RespCpuL2Down;
    reply.src = 1;
    reply.dst = 3;
    reply.addr = 0x42;
    bank_->deliver(reply, now_);
    sink_.clear();

    bank_->deliver(request(5, CoherenceOp::Read, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    EXPECT_EQ(sink_.countOp(CoherenceOp::ProbeShare), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::Data), 1u);
}

TEST_F(L3BankTest, RfoInvalidatesAllSharers)
{
    coldRead(1, 0x42);
    // Silent-owner case: make cluster 1 a plain sharer by absorbing its
    // probe, then add sharer 2.
    bank_->deliver(request(2, CoherenceOp::Read, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    Packet reply;
    reply.op = CoherenceOp::Data;
    reply.msgClass = MsgClass::RespCpuL2Down;
    reply.src = 1;
    reply.dst = 3;
    reply.addr = 0x42;
    bank_->deliver(reply, now_);
    sink_.clear();

    // Cluster 7 wants ownership: clusters 1 and 2 must be invalidated.
    bank_->deliver(request(7, CoherenceOp::ReadExcl, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    ASSERT_EQ(sink_.countOp(CoherenceOp::ProbeInv), 2u);

    // Both acks arrive; only then is the exclusive grant sent.
    for (int c : {1, 2}) {
        EXPECT_EQ(sink_.countOp(CoherenceOp::DataExcl), 0u);
        Packet ack;
        ack.op = CoherenceOp::Ack;
        ack.msgClass = MsgClass::RespCpuL2Down;
        ack.src = c;
        ack.dst = 3;
        ack.addr = 0x42;
        bank_->deliver(ack, now_);
    }
    ASSERT_EQ(sink_.countOp(CoherenceOp::DataExcl), 1u);
    EXPECT_EQ(sink_.withOp(CoherenceOp::DataExcl)[0].dst, 7);
}

TEST_F(L3BankTest, WriterIsNotInvalidatedItself)
{
    coldRead(4, 0x99);
    sink_.clear();
    // The current holder upgrades: no probes needed.
    bank_->deliver(request(4, CoherenceOp::ReadExcl, 0x99), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    EXPECT_EQ(sink_.countOp(CoherenceOp::ProbeInv), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::DataExcl), 1u);
}

TEST_F(L3BankTest, WritebackMarksDirtyAndClearsHolder)
{
    coldRead(1, 0x42);
    sink_.clear();

    Packet wb;
    wb.op = CoherenceOp::Writeback;
    wb.msgClass = MsgClass::ReqCpuL2Down;
    wb.src = 1;
    wb.dst = 3;
    wb.addr = 0x42;
    wb.sizeBits = sim::kResponseBits;
    bank_->deliver(wb, now_);
    EXPECT_EQ(bank_->stats().writebacks, 1u);

    // A later read from another cluster is served without probing the
    // (gone) writer; with no holders left the grant is even exclusive.
    bank_->deliver(request(2, CoherenceOp::Read, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    EXPECT_EQ(sink_.countOp(CoherenceOp::ProbeShare), 0u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::DataExcl), 1u);
}

TEST_F(L3BankTest, WritebackToAbsentLineForwardsToMemory)
{
    Packet wb;
    wb.op = CoherenceOp::Writeback;
    wb.msgClass = MsgClass::ReqCpuL2Down;
    wb.src = 1;
    wb.dst = 3;
    wb.addr = 0x777;
    wb.sizeBits = sim::kResponseBits;
    bank_->deliver(wb, now_);
    ASSERT_EQ(sink_.countOp(CoherenceOp::Writeback), 1u);
    EXPECT_EQ(sink_.withOp(CoherenceOp::Writeback)[0].dst, 16);
    EXPECT_EQ(sink_.withOp(CoherenceOp::Writeback)[0].msgClass,
              MsgClass::ReqL3);
}

TEST_F(L3BankTest, SameLineRequestsAreSerialised)
{
    bank_->deliver(request(1, CoherenceOp::Read, 0x42), now_);
    bank_->deliver(request(2, CoherenceOp::Read, 0x42), now_);
    EXPECT_EQ(bank_->mshrOccupancy(), 1u); // one transaction, two queued
    tickTo(cfg_.l3AccessCycles + 1);
    // Only one memory fetch for both requests.
    EXPECT_EQ(sink_.countOp(CoherenceOp::Read), 1u);
    memResponse(0x42);
    // First requester served immediately; second after a fresh lookup.
    EXPECT_EQ(sink_.countOp(CoherenceOp::DataExcl), 1u);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    EXPECT_EQ(sink_.countOp(CoherenceOp::ProbeShare), 1u);
}

TEST_F(L3BankTest, HitAfterFill)
{
    coldRead(1, 0x42);
    sink_.clear();
    // Same cluster reads again (e.g. after an L2 eviction): pure hit.
    bank_->deliver(request(1, CoherenceOp::Read, 0x42), now_);
    tickTo(now_ + cfg_.l3AccessCycles + 1);
    EXPECT_EQ(bank_->stats().hits, 1u);
    EXPECT_EQ(sink_.countOp(CoherenceOp::Read), 0u); // no memory traffic
}

TEST_F(L3BankTest, QuiescentAfterAllTransactions)
{
    EXPECT_TRUE(bank_->quiescent());
    bank_->deliver(request(1, CoherenceOp::Read, 0x42), now_);
    EXPECT_FALSE(bank_->quiescent());
    tickTo(cfg_.l3AccessCycles + 1);
    memResponse(0x42);
    tickTo(now_ + 5);
    EXPECT_TRUE(bank_->quiescent());
}

TEST_F(L3BankTest, GpuRequestsGetGpuClasses)
{
    coldRead(2, 0x55, CoreType::GPU);
    ASSERT_EQ(sink_.countOp(CoherenceOp::DataExcl), 1u);
    EXPECT_EQ(sink_.withOp(CoherenceOp::DataExcl)[0].msgClass,
              MsgClass::RespGpuL2Down);
}

TEST_F(L3BankTest, BankSizeIsSliceOfTotal)
{
    // 131072 lines / 16 banks = 8192 lines per bank; the bank must be
    // constructible and serve addresses beyond its nominal share.
    for (std::uint64_t a = 0; a < 64; ++a)
        coldRead(static_cast<int>(a % 16), 0x1000 + a * 16);
    EXPECT_EQ(bank_->stats().misses, 64u);
}

} // namespace
} // namespace cache
} // namespace pearl
