/**
 * @file
 * Lightweight event counters.
 *
 * The paper explains its overheads with hardware performance counters;
 * this reproduction exposes the analogous causal quantities — how many
 * synchronous NVM operations (flushes, fences) each configuration issued,
 * how many nodes were externally logged, and how often the InCLLs were
 * used — via these counters (see DESIGN.md, substitutions table).
 *
 * Since the obs layer landed, StatSet is a compatibility facade over
 * obs::Registry: the Stat enum, add()/get()/reset()/toString() and
 * globalStats() keep their exact historical semantics, but the storage
 * behind them is the registry's per-thread cache-line-padded slabs, so
 * hot-path add() no longer bounces a shared cache line across threads
 * and the counters show up in the kStats wire exposition. addShard()
 * is the one new verb: it additionally attributes the increment to a
 * `name{shard="N"}` labeled child counter.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.h"

namespace incll {

/** Counter identifiers; keep in sync with statName(). */
enum class Stat : unsigned {
    kClwb = 0,          ///< cache-line write-back instructions issued
    kSfence,            ///< persist fences issued
    kWbinvd,            ///< global cache flushes (epoch boundaries)
    kLinesFlushed,      ///< dirty lines copied by a global flush
    kNodesLogged,       ///< leaf/internal nodes written to the external log
    kInCllPerm,         ///< permutation InCLL uses
    kInCllVal,          ///< value InCLL uses
    kLogBytes,          ///< bytes appended to the external log
    kEpochAdvances,     ///< completed epoch boundaries
    kEpochIdleSkips,    ///< scheduled boundaries elided (epoch unwritten)
    kEpochBoundaryNs,   ///< ns spent under the exclusive gate at boundaries
    kGateWaitNs,        ///< ns workers stalled at the gate behind advances
    kNodeRecoveries,    ///< lazy per-node recoveries executed
    kAllocs,            ///< durable allocator allocations
    kFrees,             ///< durable allocator frees
    kScans,             ///< cross-shard scan calls (multi-shard stores)
    kScanShardsEntered, ///< shard gates entered by cross-shard scans
    kRebalances,        ///< completed key-move migrations
    kRebalanceKeysMoved,  ///< keys streamed between shards by migrations
    kRebalanceBytesMoved, ///< key+value bytes streamed by migrations
    kRebalancePauseNs,  ///< ns writers to the moving interval were paused
    kRebalanceGraceNs,  ///< ns migration GC waited out retired-table pins
    kTopologyMerges,    ///< committed shard merges (member set shrank)
    kTopologyAdds,      ///< committed shard adds (member set grew)
    kTopologyRetires,   ///< drained shards destroyed by retireShard
    kServerRequests,    ///< wire requests admitted by the server front-end
    kServerBatches,     ///< shard batches flushed to the store
    kServerSends,       ///< send(2) calls on client sockets
    kServerBatchedOps,  ///< ops executed through flushed shard batches
    kServerBatchFallbacks, ///< batches demoted to per-op routing (stale table)
    kServerCrashes,     ///< admin-triggered crash/recovery cycles served
    kServerStatsRequests, ///< kStats exposition requests served
    kAllocFastPathHits, ///< allocations served from a thread cache
    kAllocRefills,      ///< segment pops from a shared free list
    kAllocSpills,       ///< chain pushes onto a shared list (batch/drain)
    kAllocCasRetries,   ///< failed shared-list head CASes
    kAllocLockPath,     ///< thread-cache try-lock misses (shared fallback)
    kNumStats,
};

/** Human-readable name for a counter. */
const char *statName(Stat s);

/**
 * A set of relaxed counters. One global instance serves the whole
 * process; benchmarks snapshot/delta it around measured regions.
 *
 * A default-constructed StatSet owns a private obs::Registry, so local
 * instances (tests) start at zero and stay isolated, matching the
 * historical flat-array behavior. globalStats() binds to the shared
 * obs::registry(), which is what the kStats exposition serves.
 */
class StatSet
{
  public:
    /** Private-registry instance (isolated; for tests/local counting). */
    StatSet();
    /** Facade over an existing registry (what globalStats() uses). */
    explicit StatSet(obs::Registry &reg);

    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    void
    add(Stat s, std::uint64_t n = 1)
    {
        reg_->add(ids_[static_cast<unsigned>(s)], n);
    }

    /**
     * add(), plus attribution to the `statName(s){shard="N"}` labeled
     * child. Cold-path only (epoch boundaries, migrations, batch
     * flushes): the child id is looked up lazily and cached.
     */
    void addShard(Stat s, unsigned shard, std::uint64_t n = 1);

    std::uint64_t
    get(Stat s) const
    {
        return reg_->value(ids_[static_cast<unsigned>(s)]);
    }

    void reset();

    /** Multi-line "name value" dump of all nonzero counters. */
    std::string toString() const;

    /** The registry this facade records into. */
    obs::Registry &registry() { return *reg_; }

  private:
    static constexpr unsigned kNumStatsU =
        static_cast<unsigned>(Stat::kNumStats);
    /** Labeled children beyond this shard id fall back to add(). */
    static constexpr unsigned kMaxShardLabel = 64;

    void registerAll();

    std::unique_ptr<obs::Registry> owned_; ///< null for the facade ctor
    obs::Registry *reg_;
    obs::CounterId ids_[kNumStatsU];
    /** Lazy cache of labeled-child ids; 0 = not yet looked up
     *  (stored value is id + 1). */
    std::array<std::array<std::atomic<obs::CounterId>, kMaxShardLabel>,
               kNumStatsU>
        shardIds_{};
};

/** Process-wide counter instance. */
StatSet &globalStats();

} // namespace incll
