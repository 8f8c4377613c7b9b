#include "verify/ref_cluster.hpp"

#include "cache/nmoesi.hpp"
#include "common/log.hpp"

namespace pearl {
namespace verify {

using cache::AccessOutcome;
using cache::CacheState;
using cache::fillState;
using cache::ProbeOutcome;
using cache::ProbeType;
using sim::CoherenceOp;
using sim::CoreType;
using sim::Cycle;
using sim::MsgClass;
using sim::Packet;

namespace {

MsgClass
l1RequestClass(CoreType t, bool instr)
{
    if (t == CoreType::GPU)
        return MsgClass::ReqGpuL1;
    return instr ? MsgClass::ReqCpuL1I : MsgClass::ReqCpuL1D;
}

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

RefCluster::RefCluster(int id, const cache::HomeMap &home,
                       const cache::HierarchyConfig &cfg,
                       const traffic::BenchmarkProfile &cpu_prof,
                       const traffic::BenchmarkProfile &gpu_prof, Rng rng,
                       traffic::GlobalPhase *cpu_phase,
                       traffic::GlobalPhase *gpu_phase)
    : id_(id), home_(home), cfg_(cfg),
      cpuL2_(cfg.cpuL2Lines, cfg.l2Ways), gpuL2_(cfg.gpuL2Lines, cfg.l2Ways)
{
    const int cpu_cores = cfg.cpuCoresPerCluster;
    const int gpu_cus = cfg.gpuCusPerCluster;
    for (int c = 0; c < cpu_cores; ++c) {
        cpuCores_.emplace_back(cpu_prof, id * 64 + c, rng.fork(), cpu_phase,
                               cfg.sharedLines);
    }
    for (int g = 0; g < gpu_cus; ++g) {
        gpuCores_.emplace_back(gpu_prof, id * 64 + 32 + g, rng.fork(),
                               gpu_phase, cfg.sharedLines);
    }
    outstanding_[static_cast<int>(CoreType::CPU)].assign(cpu_cores, 0);
    outstanding_[static_cast<int>(CoreType::GPU)].assign(gpu_cus, 0);

    for (int c = 0; c < cpu_cores; ++c)
        l1s_.emplace_back(cfg.cpuL1ILines, cfg.l1Ways);
    for (int c = 0; c < cpu_cores; ++c)
        l1s_.emplace_back(cfg.cpuL1DLines, cfg.l1Ways);
    for (int g = 0; g < gpu_cus; ++g)
        l1s_.emplace_back(cfg.gpuL1Lines, cfg.l1Ways);
}

RefCluster::L1Array &
RefCluster::l1Array(int l1_index)
{
    return l1s_.at(static_cast<std::size_t>(l1_index));
}

RefCluster::L2Array &
RefCluster::l2Array(CoreType t)
{
    return t == CoreType::CPU ? cpuL2_ : gpuL2_;
}

int
RefCluster::l1IndexFor(CoreType t, int core_slot, bool instr) const
{
    const int cpu_cores = cfg_.cpuCoresPerCluster;
    if (t == CoreType::GPU)
        return 2 * cpu_cores + core_slot;
    return instr ? core_slot : cpu_cores + core_slot;
}

int
RefCluster::mshrCapacity(CoreType t) const
{
    return t == CoreType::CPU ? cfg_.cpuL2MshrEntries
                              : cfg_.gpuL2MshrEntries;
}

void
RefCluster::noteLocalRequest(MsgClass cls)
{
    if (!telemetry_)
        return;
    telemetry_->noteClass(cls);
    ++telemetry_->requestsSent;
    ++telemetry_->incomingFromCores;
}

void
RefCluster::noteLocalResponse(MsgClass cls)
{
    if (!telemetry_)
        return;
    telemetry_->noteClass(cls);
    ++telemetry_->responsesSent;
    ++telemetry_->packetsToCore;
}

void
RefCluster::sendNetwork(MsgClass cls, CoherenceOp op, std::uint64_t addr,
                        sim::NodeId dst, Cycle now)
{
    PEARL_ASSERT(sink_, "reference cluster not attached to a packet sink");
    Packet pkt;
    pkt.id = (static_cast<std::uint64_t>(id_ + 1) << 48) | ++packetSeq_;
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
RefCluster::tick(Cycle now)
{
    // One issue draw per core per cycle, every core's first, then the
    // accesses in core order.
    std::vector<bool> cpu_fired(cpuCores_.size());
    std::vector<bool> gpu_fired(gpuCores_.size());
    for (std::size_t c = 0; c < cpuCores_.size(); ++c)
        cpu_fired[c] = cpuCores_[c].draw();
    for (std::size_t g = 0; g < gpuCores_.size(); ++g)
        gpu_fired[g] = gpuCores_[g].draw();
    for (std::size_t c = 0; c < cpuCores_.size(); ++c) {
        if (cpu_fired[c])
            coreAccess(CoreType::CPU, static_cast<int>(c),
                       cpuCores_[c].generate(), now);
    }
    for (std::size_t g = 0; g < gpuCores_.size(); ++g) {
        if (gpu_fired[g])
            coreAccess(CoreType::GPU, static_cast<int>(g),
                       gpuCores_[g].generate(), now);
    }

    while (!events_.empty() && events_.begin()->due <= now) {
        const LocalEvent ev = *events_.begin();
        events_.erase(events_.begin());
        if (ev.kind == LocalEvent::Kind::Fill) {
            completeFill(ev);
            continue;
        }
        if (ev.isRetry) {
            // Unchanged version: no erase since the retry was queued, so
            // the table is still full and this address still absent.
            // Changed version but still full and absent: requeue without
            // the lookup too, which could only differ if this address's
            // fill came and went since the last poll (DESIGN.md, "Event
            // order").
            const int ti = static_cast<int>(ev.type);
            if (ev.mshrVersion == mshrVersion_[ti] ||
                (static_cast<int>(mshr_[ti].size()) >=
                     mshrCapacity(ev.type) &&
                 !mshr_[ti].contains(ev.addr))) {
                LocalEvent retry = ev;
                retry.due = now + 2 * cfg_.l2AccessCycles;
                retry.mshrVersion = mshrVersion_[ti];
                events_.insert(retry);
                continue;
            }
        }
        l2Access(ev, now);
    }
}

void
RefCluster::coreAccess(CoreType type, int core_slot,
                       const traffic::MemAccess &acc, Cycle now)
{
    const int ti = static_cast<int>(type);
    ++stats_.accesses[ti];

    int &outstanding = outstanding_[ti][static_cast<std::size_t>(core_slot)];
    const int limit = type == CoreType::CPU ? cfg_.cpuCoreMaxOutstanding
                                            : cfg_.gpuCoreMaxOutstanding;
    if (outstanding >= limit) {
        ++stats_.stalled[ti];
        return;
    }

    const int l1_index = l1IndexFor(type, core_slot, acc.instr);
    L1Array &l1 = l1Array(l1_index);
    auto *line = l1.find(acc.lineAddr);
    if (line) {
        ++stats_.l1Hits[ti];
        l1.touch(*line);
        if (!acc.write)
            return;
    } else {
        ++stats_.l1Misses[ti];
    }

    ++outstanding;
    noteLocalRequest(l1RequestClass(type, acc.instr));
    events_.insert(LocalEvent{now + cfg_.l1ToL2Cycles, acc.lineAddr,
                              ++eventSeq_, 0, type,
                              LocalEvent::Kind::L2Access, l1_index,
                              core_slot, acc.write, acc.instr, false});
}

void
RefCluster::l2Access(const LocalEvent &ev, Cycle now)
{
    const int ti = static_cast<int>(ev.type);
    L2Array &l2 = l2Array(ev.type);
    auto *line = l2.find(ev.addr);

    if (line) {
        const AccessOutcome outcome = classifyAccess(line->state, ev.write);
        if (outcome == AccessOutcome::Hit) {
            ++stats_.l2Hits[ti];
            line->state = stateAfterHit(line->state, ev.write);
            l2.touch(*line);
            if (ev.write) {
                --outstanding_[ti][static_cast<std::size_t>(ev.coreSlot)];
            } else {
                line->meta.l1Mask |=
                    static_cast<std::uint8_t>(1u << (ev.l1Index % 8));
                LocalEvent fill = ev;
                fill.kind = LocalEvent::Kind::Fill;
                fill.due = now + cfg_.l2AccessCycles;
                fill.seq = ++eventSeq_;
                events_.insert(fill);
            }
            return;
        }
    }

    auto &mshr = mshr_[ti];
    if (MshrEntry *attach = mshr.find(ev.addr)) {
        ++stats_.l2Misses[ti];
        attach->waiters.push_back(
            Waiter{ev.l1Index, ev.coreSlot, ev.write, ev.instr});
        return;
    }

    if (static_cast<int>(mshr.size()) >= mshrCapacity(ev.type)) {
        // MSHR full: poll again shortly, keeping the access's seq.
        ++stats_.mshrWaits[ti];
        LocalEvent retry = ev;
        retry.due = now + 2 * cfg_.l2AccessCycles;
        retry.mshrVersion = mshrVersion_[ti];
        retry.isRetry = true;
        events_.insert(retry);
        return;
    }
    ++stats_.l2Misses[ti];

    MshrEntry entry;
    entry.write = ev.write;
    entry.nonCoherent = ev.type == CoreType::GPU && ev.write &&
                        ev.addr < (1ULL << 60);
    const bool non_coherent = entry.nonCoherent;
    entry.waiters.push_back(
        Waiter{ev.l1Index, ev.coreSlot, ev.write, ev.instr});
    mshr.insertNew(ev.addr, std::move(entry));

    const CoherenceOp op = (ev.write && !non_coherent)
                               ? CoherenceOp::ReadExcl
                               : CoherenceOp::Read;
    sendNetwork(l2DownRequestClass(ev.type), op, ev.addr,
                home_.homeOf(ev.addr), now);
}

void
RefCluster::completeFill(const LocalEvent &ev)
{
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
RefCluster::evictL2Victim(CoreType type, L2Array::Line &victim, Cycle now)
{
    if (!isValid(victim.state))
        return;
    for (int bit = 0; bit < 8; ++bit) {
        if (!(victim.meta.l1Mask & (1u << bit)) ||
            bit >= static_cast<int>(l1s_.size()))
            continue;
        if (auto *l1_line = l1Array(bit).find(victim.tag))
            l1_line->state = CacheState::I;
        noteLocalRequest(l2UpRequestClass(type));
        noteLocalResponse(l2UpResponseClass(type));
    }
    victim.meta.l1Mask = 0;

    if (writebackNeeded(victim.state)) {
        ++stats_.writebacks[static_cast<int>(type)];
        sendNetwork(l2DownRequestClass(type), CoherenceOp::Writeback,
                    victim.tag, home_.homeOf(victim.tag), now);
    }
    victim.state = CacheState::I;
}

void
RefCluster::handleFillResponse(const Packet &pkt, Cycle now)
{
    const CoreType type = sim::coreTypeOf(pkt.msgClass);
    const int ti = static_cast<int>(type);
    auto &mshr = mshr_[ti];
    MshrEntry *found = mshr.find(pkt.addr);
    if (!found) {
        warn("reference cluster ", id_, ": stray fill for addr ", pkt.addr);
        return;
    }
    MshrEntry entry = std::move(*found);
    mshr.erase(pkt.addr);
    ++mshrVersion_[ti];

    const bool exclusive = pkt.op == CoherenceOp::DataExcl;
    const CacheState fill =
        fillState(entry.write, exclusive, entry.nonCoherent);
    L2Array &l2 = l2Array(type);
    auto *line = l2.find(pkt.addr);
    if (line) {
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
                // Shared grant under a waiting store: retry it as an
                // upgrade.
                events_.insert(LocalEvent{
                    now + cfg_.l2AccessCycles, pkt.addr, ++eventSeq_, 0,
                    type, LocalEvent::Kind::L2Access, w.l1Index,
                    w.coreSlot, true, w.instr, false});
            } else {
                --outstanding_[ti][static_cast<std::size_t>(w.coreSlot)];
            }
        } else {
            line->meta.l1Mask |=
                static_cast<std::uint8_t>(1u << (w.l1Index % 8));
            events_.insert(LocalEvent{
                now + cfg_.l2AccessCycles, pkt.addr, ++eventSeq_, 0, type,
                LocalEvent::Kind::Fill, w.l1Index, w.coreSlot, false,
                w.instr, false});
        }
    }
}

void
RefCluster::handleProbe(const Packet &pkt, Cycle now)
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
        if (probe == ProbeType::Invalidate) {
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
    sendNetwork(l2DownResponseClass(type),
                supply ? CoherenceOp::Data : CoherenceOp::Ack, pkt.addr,
                pkt.src, now);
}

void
RefCluster::deliver(const Packet &pkt, Cycle now)
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
        warn("reference cluster ", id_, ": unexpected op ",
             sim::toString(pkt.op));
        break;
    }
}

} // namespace verify
} // namespace pearl
