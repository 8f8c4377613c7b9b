/**
 * @file
 * Tests for the memory-controller node and the home-bank address map.
 */

#include <gtest/gtest.h>

#include <array>

#include "cache/home_map.hpp"
#include "cache/memory.hpp"
#include "fakes.hpp"

namespace pearl {
namespace cache {
namespace {

using sim::CoherenceOp;
using sim::Cycle;
using sim::MsgClass;
using sim::NodeUnit;
using sim::Packet;
using test::CapturingSink;

Packet
memRead(int bank, std::uint64_t addr)
{
    Packet p;
    p.op = CoherenceOp::Read;
    p.msgClass = MsgClass::ReqL3;
    p.dstUnit = NodeUnit::Memory;
    p.src = bank;
    p.dst = 16;
    p.addr = addr;
    p.sizeBits = sim::kRequestBits;
    return p;
}

TEST(MemoryNode, RespondsAfterLatency)
{
    HierarchyConfig cfg;
    cfg.memoryCycles = 20;
    CapturingSink sink;
    MemoryNode mem(16, cfg, /*responses_per_cycle=*/2.0);
    mem.attach(&sink);

    mem.deliver(memRead(3, 0x42), /*now=*/5);
    for (Cycle t = 5; t < 24; ++t)
        mem.tick(t);
    EXPECT_EQ(sink.packets.size(), 0u); // not yet due
    mem.tick(25);
    ASSERT_EQ(sink.packets.size(), 1u);
    const Packet &resp = sink.packets[0];
    EXPECT_EQ(resp.op, CoherenceOp::Data);
    EXPECT_EQ(resp.msgClass, MsgClass::RespL3);
    EXPECT_EQ(resp.dst, 3);
    EXPECT_EQ(resp.dstUnit, NodeUnit::L3Bank);
    EXPECT_EQ(resp.addr, 0x42u);
    EXPECT_EQ(resp.sizeBits, sim::kResponseBits);
}

TEST(MemoryNode, AbsorbsWritebacks)
{
    HierarchyConfig cfg;
    CapturingSink sink;
    MemoryNode mem(16, cfg, 2.0);
    mem.attach(&sink);

    Packet wb = memRead(4, 0x99);
    wb.op = CoherenceOp::Writeback;
    wb.sizeBits = sim::kResponseBits;
    mem.deliver(wb, 0);
    for (Cycle t = 0; t < 300; ++t)
        mem.tick(t);
    EXPECT_EQ(sink.packets.size(), 0u);
    EXPECT_EQ(mem.stats().writes, 1u);
    EXPECT_TRUE(mem.quiescent());
}

TEST(MemoryNode, BandwidthCapThrottlesResponses)
{
    HierarchyConfig cfg;
    cfg.memoryCycles = 1;
    CapturingSink sink;
    MemoryNode mem(16, cfg, /*responses_per_cycle=*/0.5);
    mem.attach(&sink);

    // 40 requests all due immediately: at 0.5 responses/cycle they take
    // about 80 cycles to drain.
    for (int i = 0; i < 40; ++i)
        mem.deliver(memRead(i % 16, 0x1000 + i), 0);
    Cycle t = 0;
    for (; t < 200 && sink.packets.size() < 40; ++t)
        mem.tick(t);
    EXPECT_GE(t, 70u);
    ASSERT_EQ(sink.packets.size(), 40u);
    EXPECT_GT(mem.stats().busyStallCycles, 0u);
    // Reads due in the same cycle leave in arrival order.
    for (std::size_t i = 0; i < sink.packets.size(); ++i)
        EXPECT_EQ(sink.packets[i].addr, 0x1000u + i) << "response " << i;
}

TEST(MemoryNode, ReadsMustArriveInCycleOrder)
{
    // Reads queue in arrival order, which is due order only while every
    // read arrives no earlier than the last.
    HierarchyConfig cfg;
    CapturingSink sink;
    MemoryNode mem(16, cfg);
    mem.attach(&sink);
    mem.deliver(memRead(0, 0x10), 5);
    mem.deliver(memRead(1, 0x20), 5);
    EXPECT_DEATH(mem.deliver(memRead(2, 0x30), 4),
                 "memory read delivered at an earlier cycle");
}

TEST(MemoryNode, ReadsCounted)
{
    HierarchyConfig cfg;
    CapturingSink sink;
    MemoryNode mem(16, cfg, 2.0);
    mem.attach(&sink);
    mem.deliver(memRead(0, 1), 0);
    mem.deliver(memRead(1, 2), 0);
    EXPECT_EQ(mem.stats().reads, 2u);
}

TEST(HomeMap, Deterministic)
{
    HomeMap map;
    for (std::uint64_t a : {0ULL, 17ULL, 1ULL << 40, 1ULL << 60})
        EXPECT_EQ(map.homeOf(a), map.homeOf(a));
}

TEST(HomeMap, WithinRange)
{
    HomeMap map;
    for (std::uint64_t a = 0; a < 10000; ++a) {
        const auto h = map.homeOf(a * 977 + (1ULL << 33));
        EXPECT_GE(h, 0);
        EXPECT_LT(h, map.numBanks);
    }
}

TEST(HomeMap, RoughlyBalanced)
{
    HomeMap map;
    std::array<int, 16> counts = {};
    const int n = 16000;
    for (int i = 0; i < n; ++i)
        ++counts[static_cast<std::size_t>(
            map.homeOf((1ULL << 33) + static_cast<std::uint64_t>(i)))];
    for (int c : counts) {
        EXPECT_GT(c, n / 16 / 2);
        EXPECT_LT(c, n / 16 * 2);
    }
}

TEST(HomeMap, StridedAddressesSpread)
{
    // Private regions are strided by 2^32; the hash must not alias them
    // onto one bank.
    HomeMap map;
    std::array<int, 16> counts = {};
    for (int core = 0; core < 96; ++core) {
        ++counts[static_cast<std::size_t>(map.homeOf(
            (static_cast<std::uint64_t>(core) + 1) << 32))];
    }
    int max_count = 0;
    for (int c : counts)
        max_count = std::max(max_count, c);
    EXPECT_LT(max_count, 20);
}

} // namespace
} // namespace cache
} // namespace pearl
