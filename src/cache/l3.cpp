#include "cache/l3.hpp"

#include "common/log.hpp"

namespace pearl {
namespace cache {

using sim::CoherenceOp;
using sim::CoreType;
using sim::Cycle;
using sim::MsgClass;
using sim::NodeUnit;
using sim::Packet;

namespace {

MsgClass
probeClass(CoreType t)
{
    return t == CoreType::CPU ? MsgClass::ReqCpuL2Down
                              : MsgClass::ReqGpuL2Down;
}

MsgClass
fillClass(CoreType t)
{
    return t == CoreType::CPU ? MsgClass::RespCpuL2Down
                              : MsgClass::RespGpuL2Down;
}

} // namespace

L3Bank::L3Bank(sim::NodeId node_id, int num_clusters,
               const HierarchyConfig &cfg, const HomeMap &map)
    : nodeId_(node_id), numClusters_(num_clusters), cfg_(cfg),
      memoryNode_(map.memoryNode),
      l3_(cfg.l3Lines / static_cast<std::uint64_t>(map.numBanks),
          cfg.l3Ways)
{
    PEARL_ASSERT(num_clusters <= kMaxClusters,
                 "directory mask is kMaxClusters bits wide");
    mshr_.reserve(64);
    events_.reserve(64);
}

void
L3Bank::sendToCluster(int cluster, CoreType type, CoherenceOp op,
                      std::uint64_t addr, Cycle now)
{
    PEARL_ASSERT(sink_, "L3 bank not attached to a packet sink");
    Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(nodeId_ + 1) << 52) | ++packetSeq_;
    pkt.op = op;
    pkt.msgClass = (op == CoherenceOp::ProbeShare ||
                    op == CoherenceOp::ProbeInv)
                       ? probeClass(type)
                       : fillClass(type);
    pkt.dstUnit = NodeUnit::Cluster;
    pkt.src = nodeId_;
    pkt.dst = cluster;
    pkt.sizeBits =
        sim::carriesData(op) ? sim::kResponseBits : sim::kRequestBits;
    pkt.addr = addr;
    pkt.cycleCreated = now;
    sink_->send(std::move(pkt));
}

void
L3Bank::sendToMemory(CoherenceOp op, std::uint64_t addr, Cycle now)
{
    PEARL_ASSERT(sink_, "L3 bank not attached to a packet sink");
    if (op == CoherenceOp::Read)
        ++stats_.memoryReads;
    else
        ++stats_.memoryWrites;
    Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(nodeId_ + 1) << 52) | ++packetSeq_;
    pkt.op = op;
    pkt.msgClass = MsgClass::ReqL3;
    pkt.dstUnit = NodeUnit::Memory;
    pkt.src = nodeId_;
    pkt.dst = memoryNode_;
    pkt.sizeBits =
        sim::carriesData(op) ? sim::kResponseBits : sim::kRequestBits;
    pkt.addr = addr;
    pkt.cycleCreated = now;
    sink_->send(std::move(pkt));
}

void
L3Bank::runDue(Cycle now)
{
    while (!events_.empty() && events_.top().due <= now) {
        const TimedEvent ev = events_.top();
        events_.pop();
        runLookup(ev.addr, now);
    }
}

void
L3Bank::startLookup(std::uint64_t addr, Cycle now)
{
    events_.push(TimedEvent{now + cfg_.l3AccessCycles, ++eventSeq_, addr});
}

void
L3Bank::runLookup(std::uint64_t addr, Cycle now)
{
    Transaction *tx = mshr_.find(addr);
    if (!tx)
        return;
    if (tx->phase != Transaction::Phase::Lookup)
        return; // a probe or memory fetch is already in flight
    if (tx->requests.empty()) {
        mshr_.erase(addr);
        return;
    }

    auto *line = l3_.find(addr);
    if (!line) {
        ++stats_.misses;
        tx->phase = Transaction::Phase::MemFetch;
        sendToMemory(CoherenceOp::Read, addr, now);
        return;
    }
    ++stats_.hits;
    l3_.touch(*line);
    serviceHead(addr, *line, now);
}

void
L3Bank::handleMemResponse(const Packet &pkt, Cycle now)
{
    Transaction *tx = mshr_.find(pkt.addr);
    if (!tx) {
        warn("L3 bank ", nodeId_, ": stray memory response for addr ",
             pkt.addr);
        return;
    }
    auto *line = l3_.find(pkt.addr);
    if (!line) {
        // Avoid evicting a line another transaction is still working on.
        auto &victim = l3_.victimWhere(pkt.addr, [this](std::uint64_t t) {
            return mshr_.contains(t);
        });
        evictVictim(victim, now);
        l3_.install(victim, pkt.addr, CacheState::S);
        line = &victim;
    }
    tx->phase = Transaction::Phase::Lookup;
    serviceHead(pkt.addr, *line, now);
}

void
L3Bank::serviceHead(std::uint64_t addr, L3Array::Line &line, Cycle now)
{
    Transaction *txp = mshr_.find(addr);
    PEARL_ASSERT(txp);
    Transaction &tx = *txp;
    PEARL_ASSERT(!tx.requests.empty());
    const PendingReq &head = tx.requests.front();

    if (head.op == CoherenceOp::Read) {
        if (line.meta.owner >= 0 && line.meta.owner != head.cluster) {
            tx.phase = Transaction::Phase::ProbeOwner;
            tx.pendingAcks = 1;
            ++stats_.probesSent;
            sendToCluster(line.meta.owner, head.type,
                          CoherenceOp::ProbeShare, addr, now);
            return;
        }
        const bool exclusive =
            line.meta.owner < 0 &&
            line.meta.sharers.noneExcept(head.cluster);
        finishHead(addr, line, exclusive, now);
        return;
    }

    // ReadExcl: every other holder must be invalidated first.
    PEARL_ASSERT(head.op == CoherenceOp::ReadExcl);
    SharerMask holders = line.meta.sharers;
    holders.clear(head.cluster);
    if (line.meta.owner >= 0 && line.meta.owner != head.cluster)
        holders.set(line.meta.owner);

    if (holders.any()) {
        tx.phase = Transaction::Phase::Invalidating;
        tx.pendingAcks = 0;
        for (int c = 0; c < numClusters_; ++c) {
            if (holders.test(c)) {
                ++tx.pendingAcks;
                ++stats_.invalidationsSent;
                sendToCluster(c, head.type, CoherenceOp::ProbeInv, addr,
                              now);
            }
        }
        return;
    }
    finishHead(addr, line, /*exclusive=*/true, now);
}

void
L3Bank::finishHead(std::uint64_t addr, L3Array::Line &line, bool exclusive,
                   Cycle now)
{
    Transaction *txp = mshr_.find(addr);
    PEARL_ASSERT(txp);
    Transaction &tx = *txp;
    const PendingReq head = tx.requests.front();
    tx.requests.erase(tx.requests.begin());

    // Directory update.
    if (head.op == CoherenceOp::ReadExcl) {
        line.meta.sharers = SharerMask::bit(head.cluster);
        line.meta.owner = static_cast<std::int16_t>(head.cluster);
    } else {
        line.meta.sharers.set(head.cluster);
        if (exclusive)
            line.meta.owner = static_cast<std::int16_t>(head.cluster);
    }

    sendToCluster(head.cluster, head.type,
                  exclusive ? CoherenceOp::DataExcl : CoherenceOp::Data,
                  addr, now);

    if (tx.requests.empty()) {
        mshr_.erase(addr);
    } else {
        tx.phase = Transaction::Phase::Lookup;
        startLookup(addr, now);
    }
}

void
L3Bank::handleProbeReply(const Packet &pkt, Cycle now)
{
    Transaction *txp = mshr_.find(pkt.addr);
    auto *line = l3_.find(pkt.addr);

    if (!txp) {
        // Ack/data from a fire-and-forget back-invalidation; flush any
        // dirty data to memory (the line is already gone from the bank).
        if (pkt.op == CoherenceOp::Data)
            sendToMemory(CoherenceOp::Writeback, pkt.addr, now);
        return;
    }
    Transaction &tx = *txp;
    if (!line) {
        // The line was evicted between the probe and its reply (possible
        // when a memory response installed into its way).  Restart the
        // transaction from the lookup so the queued requesters are not
        // stranded.
        warn("L3 bank ", nodeId_, ": probe reply for a line evicted "
             "mid-transaction, addr ", pkt.addr, "; restarting lookup");
        if (pkt.op == CoherenceOp::Data)
            sendToMemory(CoherenceOp::Writeback, pkt.addr, now);
        tx.phase = Transaction::Phase::Lookup;
        startLookup(pkt.addr, now);
        return;
    }

    if (tx.phase == Transaction::Phase::ProbeOwner) {
        if (pkt.op == CoherenceOp::Data) {
            // Owner supplied fresh data (demoting M->O locally).  The
            // bank's copy is now current and stays current until the
            // next write, so the directory demotes the owner to a plain
            // sharer — later reads are served from the bank without
            // re-probing.  Without this, every read of a shared line
            // would probe the first toucher forever (a probe storm).
            line->meta.dirty = true;
            line->meta.sharers.set(line->meta.owner);
            line->meta.owner = -1;
        } else {
            // The owner no longer holds the line (silent eviction or a
            // racing writeback): clear ownership.
            line->meta.owner = -1;
        }
        tx.phase = Transaction::Phase::Lookup;
        serviceHead(pkt.addr, *line, now);
        return;
    }

    if (tx.phase == Transaction::Phase::Invalidating) {
        if (pkt.op == CoherenceOp::Data)
            line->meta.dirty = true;
        const int src_cluster = pkt.src;
        line->meta.sharers.clear(src_cluster);
        if (line->meta.owner == src_cluster)
            line->meta.owner = -1;
        if (--tx.pendingAcks == 0) {
            tx.phase = Transaction::Phase::Lookup;
            serviceHead(pkt.addr, *line, now);
        }
        return;
    }

    warn("L3 bank ", nodeId_, ": unexpected probe reply in phase ",
         static_cast<int>(tx.phase));
}

void
L3Bank::handleWriteback(const Packet &pkt, Cycle now)
{
    ++stats_.writebacks;
    auto *line = l3_.find(pkt.addr);
    if (!line) {
        // The bank already evicted its copy: the data goes straight to
        // the memory node.
        sendToMemory(CoherenceOp::Writeback, pkt.addr, now);
        return;
    }
    line->meta.dirty = true;
    const int src = pkt.src;
    line->meta.sharers.clear(src);
    if (line->meta.owner == src)
        line->meta.owner = -1;
}

void
L3Bank::evictVictim(L3Array::Line &victim, Cycle now)
{
    if (!isValid(victim.state))
        return;
    // Back-invalidate remote holders (fire and forget; their acks are
    // absorbed by handleProbeReply's no-transaction path).
    SharerMask holders = victim.meta.sharers;
    if (victim.meta.owner >= 0)
        holders.set(victim.meta.owner);
    for (int c = 0; c < numClusters_; ++c) {
        if (holders.test(c)) {
            ++stats_.invalidationsSent;
            // Core type is unknown at eviction; CPU class is used for the
            // accounting label.
            sendToCluster(c, CoreType::CPU, CoherenceOp::ProbeInv,
                          victim.tag, now);
        }
    }
    if (victim.meta.dirty)
        sendToMemory(CoherenceOp::Writeback, victim.tag, now);
    victim.state = CacheState::I;
    victim.meta = DirMeta{};
}

void
L3Bank::deliver(const Packet &pkt, Cycle now)
{
    switch (pkt.op) {
      case CoherenceOp::Read:
      case CoherenceOp::ReadExcl: {
        if (pkt.msgClass == MsgClass::RespL3) {
            warn("L3 bank: misrouted memory-class request");
            return;
        }
        if (pkt.op == CoherenceOp::Read)
            ++stats_.reads;
        else
            ++stats_.readExcls;
        auto [tx, fresh] = mshr_.tryEmplace(pkt.addr);
        tx->requests.push_back(PendingReq{
            pkt.src, pkt.op, sim::coreTypeOf(pkt.msgClass), pkt.id});
        if (fresh) {
            tx->phase = Transaction::Phase::Lookup;
            startLookup(pkt.addr, now);
        }
        break;
      }
      case CoherenceOp::Writeback:
        handleWriteback(pkt, now);
        break;
      case CoherenceOp::Data:
        if (pkt.msgClass == MsgClass::RespL3) {
            handleMemResponse(pkt, now);
        } else {
            handleProbeReply(pkt, now);
        }
        break;
      case CoherenceOp::Ack:
        handleProbeReply(pkt, now);
        break;
      default:
        warn("L3 bank: unexpected op ", sim::toString(pkt.op));
        break;
    }
}

} // namespace cache
} // namespace pearl
