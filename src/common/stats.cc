/**
 * @file
 * Event counter facade implementation (storage lives in obs::Registry).
 */
#include "common/stats.h"

#include <sstream>

namespace incll {

const char *
statName(Stat s)
{
    switch (s) {
      case Stat::kClwb:           return "clwb";
      case Stat::kSfence:         return "sfence";
      case Stat::kWbinvd:         return "wbinvd";
      case Stat::kLinesFlushed:   return "lines_flushed";
      case Stat::kNodesLogged:    return "nodes_logged";
      case Stat::kInCllPerm:      return "incll_perm_uses";
      case Stat::kInCllVal:       return "incll_val_uses";
      case Stat::kLogBytes:       return "log_bytes";
      case Stat::kEpochAdvances:  return "epoch_advances";
      case Stat::kEpochIdleSkips: return "epoch_idle_skips";
      case Stat::kEpochBoundaryNs: return "epoch_boundary_ns";
      case Stat::kGateWaitNs:     return "gate_wait_ns";
      case Stat::kNodeRecoveries: return "node_recoveries";
      case Stat::kAllocs:         return "allocs";
      case Stat::kFrees:          return "frees";
      case Stat::kScans:          return "scans";
      case Stat::kScanShardsEntered: return "scan_shards_entered";
      case Stat::kRebalances:     return "rebalances";
      case Stat::kRebalanceKeysMoved: return "rebalance_keys_moved";
      case Stat::kRebalanceBytesMoved: return "rebalance_bytes_moved";
      case Stat::kRebalancePauseNs: return "rebalance_pause_ns";
      case Stat::kRebalanceGraceNs: return "rebalance_grace_ns";
      case Stat::kTopologyMerges:  return "topology_merges";
      case Stat::kTopologyAdds:    return "topology_adds";
      case Stat::kTopologyRetires: return "topology_retires";
      case Stat::kServerRequests: return "server_requests";
      case Stat::kServerBatches:  return "server_batches";
      case Stat::kServerSends:    return "server_sends";
      case Stat::kServerBatchedOps: return "server_batched_ops";
      case Stat::kServerBatchFallbacks: return "server_batch_fallbacks";
      case Stat::kServerCrashes:  return "server_crashes";
      case Stat::kServerStatsRequests: return "server_stats_requests";
      case Stat::kAllocFastPathHits: return "alloc_fast_path_hits";
      case Stat::kAllocRefills:   return "alloc_refills";
      case Stat::kAllocSpills:    return "alloc_spills";
      case Stat::kAllocCasRetries: return "alloc_cas_retries";
      case Stat::kAllocLockPath:  return "alloc_lock_path";
      case Stat::kNumStats:       break;
    }
    return "unknown";
}

void
StatSet::registerAll()
{
    // Registration order == enum order, so the global facade owns
    // registry ids [0, kNumStats) and the exposition lists counters in
    // the familiar statName() order.
    for (unsigned i = 0; i < kNumStatsU; ++i)
        ids_[i] = reg_->counter(statName(static_cast<Stat>(i)));
}

StatSet::StatSet()
    : owned_(std::make_unique<obs::Registry>()), reg_(owned_.get())
{
    registerAll();
}

StatSet::StatSet(obs::Registry &reg) : reg_(&reg)
{
    registerAll();
}

void
StatSet::addShard(Stat s, unsigned shard, std::uint64_t n)
{
    add(s, n);
    if (shard >= kMaxShardLabel)
        return;
    auto &cache = shardIds_[static_cast<unsigned>(s)][shard];
    obs::CounterId idPlus1 = cache.load(std::memory_order_acquire);
    if (idPlus1 == 0) {
        const obs::CounterId id =
            reg_->counter(statName(s), static_cast<int>(shard));
        idPlus1 = id + 1;
        cache.store(idPlus1, std::memory_order_release);
    }
    reg_->add(idPlus1 - 1, n);
}

void
StatSet::reset()
{
    reg_->resetCounters();
}

std::string
StatSet::toString() const
{
    std::ostringstream out;
    for (unsigned i = 0; i < kNumStatsU; ++i) {
        const auto v = get(static_cast<Stat>(i));
        if (v != 0)
            out << statName(static_cast<Stat>(i)) << " " << v << "\n";
    }
    return out.str();
}

StatSet &
globalStats()
{
    static StatSet stats(obs::registry());
    return stats;
}

} // namespace incll
