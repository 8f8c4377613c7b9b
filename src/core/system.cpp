#include "core/system.hpp"

#include "common/log.hpp"

namespace pearl {
namespace core {

using sim::Cycle;
using sim::NodeUnit;
using sim::Packet;

HeteroSystem::HeteroSystem(sim::Network &network,
                           const traffic::BenchmarkPair &pair,
                           const SystemConfig &cfg,
                           TelemetryLookup telemetry)
    : network_(network), cfg_(cfg), telemetry_(std::move(telemetry))
{
    // Cluster count decouples from L3 banking: cfg.clusters == 0 keeps
    // the legacy one-bank-per-cluster coupling; banks always sit at the
    // first `numBanks` cluster routers.
    const int clusters = cfg.clusters > 0 ? cfg.clusters
                                          : cfg.home.numBanks;
    const int banks = cfg.home.numBanks;
    PEARL_ASSERT(banks <= clusters,
                 "more L3 banks than cluster routers to host them");
    PEARL_ASSERT(network.numNodes() >= clusters + 1,
                 "network too small for the cluster count");
    // The phases and every core's scan are keyed on the network cycle,
    // which is the cycle count of this system's own loop only from 0.
    PEARL_ASSERT(network.cycle() == 0,
                 "HeteroSystem needs a network that has not stepped");
    Rng rng(cfg.seed);

    // Chip-wide program phases: every CPU core shares one, every GPU CU
    // shares the other (kernel launches and barriers are global).  The
    // clusters read them ahead (GlobalPhase::at), so the loop never
    // ticks them.
    cpuPhase_ = std::make_unique<traffic::GlobalPhase>(pair.cpu, rng.fork());
    gpuPhase_ = std::make_unique<traffic::GlobalPhase>(pair.gpu, rng.fork());

    outbox_.resize(static_cast<std::size_t>(clusters + 1));
    clusters_.reserve(static_cast<std::size_t>(clusters));
    banks_.reserve(static_cast<std::size_t>(banks));
    for (int c = 0; c < clusters; ++c) {
        auto *tel = telemetry_ ? telemetry_(c) : nullptr;
        clusters_.push_back(std::make_unique<cache::ClusterNode>(
            c, cfg.home, cfg.hierarchy, pair.cpu, pair.gpu, rng.fork(),
            cpuPhase_.get(), gpuPhase_.get()));
        clusters_.back()->attach(this, tel);
    }
    for (int b = 0; b < banks; ++b) {
        banks_.push_back(std::make_unique<cache::L3Bank>(
            b, clusters, cfg.hierarchy, cfg.home));
        banks_.back()->attach(this, telemetry_ ? telemetry_(b) : nullptr);
    }
    memory_ = std::make_unique<cache::MemoryNode>(
        cfg.home.memoryNode, cfg.hierarchy, cfg.memResponsesPerCycle);
    memory_->attach(this);
}

void
HeteroSystem::send(Packet &&pkt)
{
    PEARL_ASSERT(pkt.src >= 0 &&
                 pkt.src < static_cast<int>(outbox_.size()));
    if (pkt.dst == pkt.src) {
        // Same-router traffic (a cluster and its own L3 bank) crosses
        // only the local crossbar: fixed latency, no optical link.  It
        // still shows up in the router's telemetry.
        if (telemetry_) {
            if (auto *tel = telemetry_(pkt.src)) {
                tel->noteClass(pkt.msgClass);
                if (pkt.request())
                    ++tel->requestsSent;
                else
                    ++tel->responsesSent;
            }
        }
        const Cycle now = network_.cycle();
        localHops_.push(LocalHop{now + cfg_.localHopCycles, ++localHopSeq_,
                                 std::move(pkt)});
        return;
    }
    outbox_[static_cast<std::size_t>(pkt.src)].push_back(std::move(pkt));
}

void
HeteroSystem::dispatch(const Packet &pkt, Cycle now)
{
    switch (pkt.dstUnit) {
      case NodeUnit::Cluster:
        PEARL_ASSERT(pkt.dst < static_cast<int>(clusters_.size()));
        clusters_[static_cast<std::size_t>(pkt.dst)]->deliver(pkt, now);
        break;
      case NodeUnit::L3Bank:
        PEARL_ASSERT(pkt.dst < static_cast<int>(banks_.size()));
        banks_[static_cast<std::size_t>(pkt.dst)]->deliver(pkt, now);
        break;
      case NodeUnit::Memory:
        PEARL_ASSERT(pkt.dst == cfg_.home.memoryNode);
        memory_->deliver(pkt, now);
        break;
    }
}

void
HeteroSystem::stepOnce()
{
    const Cycle now = network_.cycle();

    // 1. Node models generate demand and process due internal events.
    for (auto &cluster : clusters_)
        cluster->tick(now);
    for (auto &bank : banks_)
        bank->tick(now);
    memory_->tick(now);

    // 2. Due local (same-router) hops.
    while (!localHops_.empty() && localHops_.top().due <= now) {
        const Packet pkt = localHops_.top().pkt;
        localHops_.pop();
        dispatch(pkt, now);
    }

    // 3. Drain outboxes into the network until buffers push back.
    for (auto &box : outbox_) {
        while (!box.empty() && network_.inject(box.front()))
            box.pop_front();
    }

    // 4. One network cycle.
    network_.step();

    // 5. Hand deliveries to their node models.
    auto &delivered = network_.delivered();
    for (const Packet &pkt : delivered)
        dispatch(pkt, now);
    delivered.clear();
}

void
HeteroSystem::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        stepOnce();
}

cache::ClusterStats
HeteroSystem::aggregateClusterStats() const
{
    cache::ClusterStats total;
    for (const auto &cluster : clusters_) {
        const cache::ClusterStats &s = cluster->stats();
        for (int t = 0; t < sim::kNumCoreTypes; ++t) {
            total.accesses[t] += s.accesses[t];
            total.stalled[t] += s.stalled[t];
            total.l1Hits[t] += s.l1Hits[t];
            total.l1Misses[t] += s.l1Misses[t];
            total.l2Hits[t] += s.l2Hits[t];
            total.l2Misses[t] += s.l2Misses[t];
            total.writebacks[t] += s.writebacks[t];
            total.mshrWaits[t] += s.mshrWaits[t];
        }
        total.probesReceived += s.probesReceived;
    }
    return total;
}

cache::L3Stats
HeteroSystem::aggregateL3Stats() const
{
    cache::L3Stats total;
    for (const auto &bank : banks_)
        total += bank->stats();
    return total;
}

} // namespace core
} // namespace pearl
