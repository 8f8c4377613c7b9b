#include "cache/cluster.hpp"

#include "common/log.hpp"

namespace pearl {
namespace cache {

using sim::CoherenceOp;
using sim::CoreType;
using sim::Cycle;
using sim::MsgClass;
using sim::Packet;

namespace {

/** L1-miss request class for an L1 slot. */
MsgClass
l1RequestClass(CoreType t, bool instr)
{
    if (t == CoreType::GPU)
        return MsgClass::ReqGpuL1;
    return instr ? MsgClass::ReqCpuL1I : MsgClass::ReqCpuL1D;
}

/** L2->L1 fill response class. */
MsgClass
l1ResponseClass(CoreType t, bool instr)
{
    if (t == CoreType::GPU)
        return MsgClass::RespGpuL1;
    return instr ? MsgClass::RespCpuL1I : MsgClass::RespCpuL1D;
}

MsgClass
l2DownRequestClass(CoreType t)
{
    return t == CoreType::CPU ? MsgClass::ReqCpuL2Down
                              : MsgClass::ReqGpuL2Down;
}

MsgClass
l2DownResponseClass(CoreType t)
{
    return t == CoreType::CPU ? MsgClass::RespCpuL2Down
                              : MsgClass::RespGpuL2Down;
}

MsgClass
l2UpRequestClass(CoreType t)
{
    return t == CoreType::CPU ? MsgClass::ReqCpuL2Up : MsgClass::ReqGpuL2Up;
}

MsgClass
l2UpResponseClass(CoreType t)
{
    return t == CoreType::CPU ? MsgClass::RespCpuL2Up
                              : MsgClass::RespGpuL2Up;
}

} // namespace

ClusterNode::ClusterNode(int id, const HomeMap &home,
                         const HierarchyConfig &cfg,
                         const traffic::BenchmarkProfile &cpu_prof,
                         const traffic::BenchmarkProfile &gpu_prof, Rng rng,
                         const traffic::GlobalPhase *cpu_phase,
                         const traffic::GlobalPhase *gpu_phase)
    : id_(id), home_(home), cfg_(cfg),
      cpuL2_(cfg.cpuL2Lines, cfg.l2Ways), gpuL2_(cfg.gpuL2Lines, cfg.l2Ways)
{
    const int cpu_cores = cfg.cpuCoresPerCluster;
    const int gpu_cus = cfg.gpuCusPerCluster;

    // Global core ids keep private address regions disjoint across the
    // whole chip.
    for (int c = 0; c < cpu_cores; ++c) {
        cpuCores_.emplace_back(cpu_prof, id * 64 + c, rng.fork(),
                               cpu_phase, cfg.sharedLines);
    }
    for (int g = 0; g < gpu_cus; ++g) {
        gpuCores_.emplace_back(gpu_prof, id * 64 + 32 + g, rng.fork(),
                               gpu_phase, cfg.sharedLines);
    }

    outstanding_[static_cast<int>(CoreType::CPU)].assign(cpu_cores, 0);
    outstanding_[static_cast<int>(CoreType::GPU)].assign(gpu_cus, 0);

    // L1 layout: [0..cpu) CPU L1I, [cpu..2cpu) CPU L1D, then GPU L1s.
    for (int c = 0; c < cpu_cores; ++c)
        l1s_.emplace_back(cfg.cpuL1ILines, cfg.l1Ways);
    for (int c = 0; c < cpu_cores; ++c)
        l1s_.emplace_back(cfg.cpuL1DLines, cfg.l1Ways);
    for (int g = 0; g < gpu_cus; ++g)
        l1s_.emplace_back(cfg.gpuL1Lines, cfg.l1Ways);

    mshr_[static_cast<int>(CoreType::CPU)].reserve(
        static_cast<std::size_t>(cfg.cpuL2MshrEntries));
    mshr_[static_cast<int>(CoreType::GPU)].reserve(
        static_cast<std::size_t>(cfg.gpuL2MshrEntries));
    events_.reserve(256);
}

ClusterNode::L1Array &
ClusterNode::l1Array(int l1_index)
{
    PEARL_ASSERT(l1_index >= 0 &&
                 l1_index < static_cast<int>(l1s_.size()));
    return l1s_[static_cast<std::size_t>(l1_index)];
}

ClusterNode::L2Array &
ClusterNode::l2Array(CoreType t)
{
    return t == CoreType::CPU ? cpuL2_ : gpuL2_;
}

int
ClusterNode::l1IndexFor(CoreType t, int core_slot, bool instr) const
{
    const int cpu_cores = cfg_.cpuCoresPerCluster;
    if (t == CoreType::GPU)
        return 2 * cpu_cores + core_slot;
    return instr ? core_slot : cpu_cores + core_slot;
}

bool
ClusterNode::isSharedAddr(std::uint64_t line_addr) const
{
    return line_addr >= (1ULL << 60);
}

std::uint64_t
ClusterNode::nextPacketId()
{
    // Cluster-unique ids: high bits carry the cluster, low bits a counter.
    return (static_cast<std::uint64_t>(id_ + 1) << 48) | ++packetSeq_;
}

void
ClusterNode::noteLocalRequest(MsgClass cls)
{
    if (!telemetry_)
        return;
    telemetry_->noteClass(cls);
    ++telemetry_->requestsSent;
    ++telemetry_->incomingFromCores;
}

void
ClusterNode::noteLocalResponse(MsgClass cls)
{
    if (!telemetry_)
        return;
    telemetry_->noteClass(cls);
    ++telemetry_->responsesSent;
    ++telemetry_->packetsToCore;
}

void
ClusterNode::sendNetwork(MsgClass cls, CoherenceOp op, std::uint64_t addr,
                         sim::NodeId dst, Cycle now)
{
    PEARL_ASSERT(sink_, "cluster not attached to a packet sink");
    Packet pkt;
    pkt.id = nextPacketId();
    pkt.msgClass = cls;
    pkt.op = op;
    pkt.dstUnit = sim::NodeUnit::L3Bank;
    pkt.src = id_;
    pkt.dst = dst;
    pkt.sizeBits =
        sim::carriesData(op) ? sim::kResponseBits : sim::kRequestBits;
    pkt.addr = addr;
    pkt.cycleCreated = now;
    sink_->send(std::move(pkt));
}

void
ClusterNode::tick(Cycle now)
{
    // Batch the issue draws before acting on them: the six xoshiro
    // streams are independent, so running the draws back to back lets
    // the out-of-order core overlap their serial state-update chains.
    // Per-generator draw order (and thus every stream) is unchanged,
    // and accesses are still serviced in core-index order.
    std::uint32_t fired = 0;
    for (std::size_t c = 0; c < cpuCores_.size(); ++c)
        fired |= static_cast<std::uint32_t>(cpuCores_[c].draw()) << c;
    for (std::size_t g = 0; g < gpuCores_.size(); ++g)
        fired |= static_cast<std::uint32_t>(gpuCores_[g].draw()) << (16 + g);
    if (fired) [[unlikely]] {
        for (std::size_t c = 0; c < cpuCores_.size(); ++c) {
            if (fired & (1u << c)) {
                const traffic::MemAccess acc = cpuCores_[c].generate();
                coreAccess(CoreType::CPU, static_cast<int>(c), acc, now);
            }
        }
        for (std::size_t g = 0; g < gpuCores_.size(); ++g) {
            if (fired & (1u << (16 + g))) {
                const traffic::MemAccess acc = gpuCores_[g].generate();
                coreAccess(CoreType::GPU, static_cast<int>(g), acc, now);
            }
        }
    }

    posCycle_ = now;
    posSeq_ = 0;
    while (!events_.empty() && events_.top().due <= now) {
        const LocalEvent ev = events_.top();
        events_.pop();
        posSeq_ = ev.seq;
        if (ev.kind == LocalEvent::Kind::L2Access)
            l2Access(ev, now);
        else
            completeFill(ev, now);
    }
    posSeq_ = kDrained;
}

int
ClusterNode::mshrCapacity(CoreType t) const
{
    return t == CoreType::CPU ? cfg_.cpuL2MshrEntries
                              : cfg_.gpuL2MshrEntries;
}

void
ClusterNode::park(LocalEvent ev, Cycle now)
{
    ev.due = now + pollPeriod();
    ev.woken = true;
    parked_[static_cast<int>(ev.type)].push_back(ev);
}

Cycle
ClusterNode::nextPoll(const LocalEvent &parked) const
{
    // A parked access polls at due, due + P, due + 2P, ...; its next poll
    // is the first of those the event loop has not passed yet.
    if (parked.due > posCycle_)
        return parked.due;
    const Cycle period = pollPeriod();
    Cycle slot = parked.due +
                 (posCycle_ - parked.due + period - 1) / period * period;
    if (slot == posCycle_ && parked.seq < posSeq_)
        slot += period;
    return slot;
}

void
ClusterNode::wakeNext(int ti)
{
    auto &parked = parked_[ti];
    if (parked.empty())
        return;
    std::size_t best = 0;
    Cycle best_slot = nextPoll(parked[0]);
    for (std::size_t i = 1; i < parked.size(); ++i) {
        const Cycle slot = nextPoll(parked[i]);
        if (slot < best_slot ||
            (slot == best_slot && parked[i].seq < parked[best].seq)) {
            best = i;
            best_slot = slot;
        }
    }
    unpark(ti, best, best_slot);
}

void
ClusterNode::wakeAddr(int ti, std::uint64_t addr)
{
    auto &parked = parked_[ti];
    for (std::size_t i = 0; i < parked.size();) {
        if (parked[i].addr == addr)
            unpark(ti, i, nextPoll(parked[i]));
        else
            ++i;
    }
}

void
ClusterNode::unpark(int ti, std::size_t i, Cycle slot)
{
    auto &parked = parked_[ti];
    LocalEvent ev = parked[i];
    parked[i] = parked.back();
    parked.pop_back();
    ev.due = slot;
    events_.push(ev);
}

void
ClusterNode::coreAccess(CoreType type, int core_slot,
                        const traffic::MemAccess &acc, Cycle now)
{
    const int ti = static_cast<int>(type);
    ++stats_.accesses[ti];

    auto &outstanding = outstanding_[ti][static_cast<std::size_t>(core_slot)];
    const int limit = type == CoreType::CPU ? cfg_.cpuCoreMaxOutstanding
                                            : cfg_.gpuCoreMaxOutstanding;
    if (outstanding >= limit) {
        ++stats_.stalled[ti];
        return;
    }

    const int l1_index = l1IndexFor(type, core_slot, acc.instr);
    L1Array &l1 = l1Array(l1_index);
    auto *line = l1.find(acc.lineAddr);

    if (!acc.write) {
        if (line) {
            ++stats_.l1Hits[ti];
            l1.touch(*line);
            return;
        }
        ++stats_.l1Misses[ti];
    } else {
        // Write-through L1: the store always visits the L2; a present L1
        // copy is updated in place and stays valid.
        if (line) {
            ++stats_.l1Hits[ti];
            l1.touch(*line);
        } else {
            ++stats_.l1Misses[ti];
        }
    }

    ++outstanding;
    noteLocalRequest(l1RequestClass(type, acc.instr));
    events_.push(LocalEvent{now + cfg_.l1ToL2Cycles, acc.lineAddr,
                            ++eventSeq_, type, LocalEvent::Kind::L2Access,
                            static_cast<std::int8_t>(l1_index),
                            static_cast<std::int8_t>(core_slot), acc.write,
                            acc.instr, false});
}

void
ClusterNode::l2Access(const LocalEvent &ev, Cycle now)
{
    const int ti = static_cast<int>(ev.type);
    auto &mshr = mshr_[ti];
    const int capacity = mshrCapacity(ev.type);
    if (ev.woken && static_cast<int>(mshr.size()) >= capacity &&
        !mshr.contains(ev.addr)) {
        // Woken, but the table refilled first: wait again, exactly
        // where a polled retry requeued.  Polling skipped the L2 lookup
        // here too (its memo, kept in verify::RefCluster).  The lookup
        // could only hit if this address's fill came and went within
        // one poll period, which the L3 round trip rules out at the
        // paper's latencies.
        park(ev, now);
        return;
    }

    L2Array &l2 = l2Array(ev.type);
    auto *line = l2.find(ev.addr);

    if (line) {
        const AccessOutcome outcome = classifyAccess(line->state, ev.write);
        if (outcome == AccessOutcome::Hit) {
            ++stats_.l2Hits[ti];
            line->state = stateAfterHit(line->state, ev.write);
            l2.touch(*line);
            if (ev.write) {
                // Write-through stores complete at the L2; no L1 fill.
                --outstanding_[ti][static_cast<std::size_t>(ev.coreSlot)];
            } else {
                line->meta.l1Mask |=
                    static_cast<std::uint8_t>(1u << (ev.l1Index % 8));
                LocalEvent fill = ev;
                fill.kind = LocalEvent::Kind::Fill;
                fill.due = now + cfg_.l2AccessCycles;
                fill.seq = ++eventSeq_;
                events_.push(fill);
            }
            // A woken access that took no entry leaves room for the next.
            if (ev.woken && static_cast<int>(mshr.size()) < capacity)
                wakeNext(ti);
            return;
        }
        // UpgradeNeeded falls through to the miss path (keeps the data,
        // needs exclusivity).
    }

    if (MshrEntry *attach = mshr.find(ev.addr)) {
        ++stats_.l2Misses[ti];
        attach->waiters.push_back(
            Waiter{ev.l1Index, ev.coreSlot, ev.write, ev.instr});
        if (ev.woken && static_cast<int>(mshr.size()) < capacity)
            wakeNext(ti);
        return;
    }

    if (static_cast<int>(mshr.size()) >= capacity) {
        // MSHR full: wait for an entry.  Waits are not counted as
        // additional misses.
        ++stats_.mshrWaits[ti];
        park(ev, now);
        return;
    }
    ++stats_.l2Misses[ti];

    MshrEntry entry;
    entry.write = ev.write;
    entry.nonCoherent = ev.type == CoreType::GPU && ev.write &&
                        !isSharedAddr(ev.addr);
    const bool non_coherent = entry.nonCoherent;
    entry.waiters.push_back(
        Waiter{ev.l1Index, ev.coreSlot, ev.write, ev.instr});
    mshr.insertNew(ev.addr, std::move(entry));
    // Accesses waiting for this address can attach now.
    wakeAddr(ti, ev.addr);

    const CoherenceOp op = (ev.write && !non_coherent)
                               ? CoherenceOp::ReadExcl
                               : CoherenceOp::Read;
    sendNetwork(l2DownRequestClass(ev.type), op, ev.addr,
                home_.homeOf(ev.addr), now);
}

void
ClusterNode::completeFill(const LocalEvent &ev, Cycle now)
{
    (void)now;
    L1Array &l1 = l1Array(ev.l1Index);
    if (!l1.find(ev.addr)) {
        auto &victim = l1.victim(ev.addr);
        l1.install(victim, ev.addr, CacheState::S);
    }
    noteLocalResponse(l1ResponseClass(ev.type, ev.instr));
    --outstanding_[static_cast<int>(ev.type)]
                  [static_cast<std::size_t>(ev.coreSlot)];
}

void
ClusterNode::evictL2Victim(CoreType type, L2Array::Line &victim, Cycle now)
{
    if (!isValid(victim.state))
        return;

    // Invalidate local L1 copies via L2-up probes (local packets).
    if (victim.meta.l1Mask) {
        for (int bit = 0; bit < 8; ++bit) {
            if (!(victim.meta.l1Mask & (1u << bit)))
                continue;
            const int l1_index = bit;
            if (l1_index >= static_cast<int>(l1s_.size()))
                continue;
            if (auto *l1_line = l1Array(l1_index).find(victim.tag))
                l1_line->state = CacheState::I;
            noteLocalRequest(l2UpRequestClass(type));
            noteLocalResponse(l2UpResponseClass(type));
        }
        victim.meta.l1Mask = 0;
    }

    if (writebackNeeded(victim.state)) {
        ++stats_.writebacks[static_cast<int>(type)];
        sendNetwork(l2DownRequestClass(type), CoherenceOp::Writeback,
                    victim.tag, home_.homeOf(victim.tag), now);
    }
    victim.state = CacheState::I;
}

void
ClusterNode::handleFillResponse(const Packet &pkt, Cycle now)
{
    const CoreType type = sim::coreTypeOf(pkt.msgClass);
    const int ti = static_cast<int>(type);
    auto &mshr = mshr_[ti];
    MshrEntry *found = mshr.find(pkt.addr);
    if (!found) {
        warn("cluster ", id_, ": stray fill for addr ", pkt.addr);
        return;
    }
    MshrEntry entry = std::move(*found);
    mshr.erase(pkt.addr);
    wakeNext(ti);

    const bool exclusive = pkt.op == CoherenceOp::DataExcl;
    if (entry.write && !entry.nonCoherent) {
        PEARL_ASSERT(exclusive, "coherent store fill must grant exclusivity");
    }

    const CacheState fill = fillState(entry.write, exclusive,
                                      entry.nonCoherent);
    L2Array &l2 = l2Array(type);
    auto *line = l2.find(pkt.addr);
    if (line) {
        // Upgrade completion: the data was already here; only the
        // permission changes.
        line->state = fill;
        l2.touch(*line);
    } else {
        auto &victim = l2.victim(pkt.addr);
        evictL2Victim(type, victim, now);
        l2.install(victim, pkt.addr, fill);
        line = &victim;
    }

    for (const Waiter &w : entry.waiters) {
        if (w.write) {
            if (!exclusive && !entry.nonCoherent) {
                // The grant was shared but a store is waiting: retry the
                // store, which will raise an upgrade (ReadExcl) — this is
                // exactly the extra coherence traffic real NMOESI incurs.
                events_.push(LocalEvent{now + cfg_.l2AccessCycles, pkt.addr,
                                        ++eventSeq_, type,
                                        LocalEvent::Kind::L2Access,
                                        static_cast<std::int8_t>(w.l1Index),
                                        static_cast<std::int8_t>(w.coreSlot),
                                        true, w.instr, false});
            } else {
                --outstanding_[ti][static_cast<std::size_t>(w.coreSlot)];
            }
        } else {
            line->meta.l1Mask |=
                static_cast<std::uint8_t>(1u << (w.l1Index % 8));
            events_.push(LocalEvent{now + cfg_.l2AccessCycles, pkt.addr,
                                    ++eventSeq_, type,
                                    LocalEvent::Kind::Fill,
                                    static_cast<std::int8_t>(w.l1Index),
                                    static_cast<std::int8_t>(w.coreSlot),
                                    false, w.instr, false});
        }
    }
}

void
ClusterNode::handleProbe(const Packet &pkt, Cycle now)
{
    ++stats_.probesReceived;
    const CoreType type = sim::coreTypeOf(pkt.msgClass);
    const ProbeType probe = pkt.op == CoherenceOp::ProbeShare
                                ? ProbeType::Share
                                : ProbeType::Invalidate;
    L2Array &l2 = l2Array(type);
    auto *line = l2.find(pkt.addr);

    bool supply = false;
    if (line) {
        const ProbeOutcome outcome = applyProbe(line->state, probe);
        supply = outcome.supplyData;
        if (probe == ProbeType::Invalidate && line->meta.l1Mask) {
            for (int bit = 0; bit < 8; ++bit) {
                if (!(line->meta.l1Mask & (1u << bit)))
                    continue;
                if (bit < static_cast<int>(l1s_.size())) {
                    if (auto *l1_line = l1Array(bit).find(pkt.addr))
                        l1_line->state = CacheState::I;
                }
                noteLocalRequest(l2UpRequestClass(type));
                noteLocalResponse(l2UpResponseClass(type));
            }
            line->meta.l1Mask = 0;
        }
        line->state = outcome.next;
    }

    // The probe reply goes back to the bank that issued the probe.
    sendNetwork(l2DownResponseClass(type),
                supply ? CoherenceOp::Data : CoherenceOp::Ack, pkt.addr,
                pkt.src, now);
}

void
ClusterNode::deliver(const Packet &pkt, Cycle now)
{
    switch (pkt.op) {
      case CoherenceOp::Data:
      case CoherenceOp::DataExcl:
        handleFillResponse(pkt, now);
        break;
      case CoherenceOp::ProbeShare:
      case CoherenceOp::ProbeInv:
        handleProbe(pkt, now);
        break;
      default:
        warn("cluster ", id_, ": unexpected op ", sim::toString(pkt.op));
        break;
    }
}

} // namespace cache
} // namespace pearl
