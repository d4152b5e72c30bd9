/**
 * @file
 * Event counters: the one counter store of the process.
 *
 * The paper explains its overheads with hardware performance counters;
 * this reproduction exposes the analogous causal quantities — how many
 * synchronous NVM operations (flushes, fences) each configuration issued,
 * how many nodes were externally logged, and how often the InCLLs were
 * used — via these counters (see DESIGN.md, substitutions table).
 *
 * A counter is named by its Stat; there is no other identity. Each
 * thread adds into its own 64-byte-aligned slab of kNumStats slots, so a
 * hot-path add() is one uncontended relaxed fetch_add on a line no other
 * thread writes, and readers merge the slabs (plus the fold-in of exited
 * threads) under a mutex on the cold read path. addShard() additionally
 * attributes an increment to the `(Stat, pool id)` labelled child that
 * the exposition renders as `name{shard="N"}`. Children live in one
 * mutex-guarded ordered map with no cap: pool ids are never reused, and
 * a retired pool's child stays at its last value. Only cold paths write
 * them (epoch boundaries, migration commits, retires).
 *
 * Lifetime: a StatSet must outlive any thread actively recording into
 * it. Threads that merely *exited* are safe in either order — slab
 * retirement at thread exit goes through a weak_ptr to the store's
 * core, so a thread outliving a (test-local) StatSet folds into nothing
 * rather than into freed memory.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/compiler.h"

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

/** One merged counter value: a Stat's total or one labelled child. */
struct CounterValue
{
    std::string_view name; ///< statName() of the family
    int shard;             ///< pool id of a labelled child; -1 = total
    std::uint64_t value;
};

/**
 * A set of relaxed counters. One global instance serves the whole
 * process; benchmarks snapshot/delta it around measured regions. A
 * locally constructed StatSet starts at zero and stays isolated from
 * the global one (tests, local counting).
 */
class StatSet
{
  public:
    StatSet();
    ~StatSet();
    StatSet(const StatSet &) = delete;
    StatSet &operator=(const StatSet &) = delete;

    /** Hot path: uncontended relaxed add on this thread's slab. */
    INCLL_INLINE void
    add(Stat s, std::uint64_t n = 1)
    {
        slab()[static_cast<unsigned>(s)].fetch_add(
            n, std::memory_order_relaxed);
    }

    /**
     * add(), plus attribution to the `(s, shard)` labelled child.
     * Cold-path only: the child is updated under the store's mutex.
     */
    void addShard(Stat s, unsigned shard, std::uint64_t n = 1);

    /** Merge-on-read total of @p s (live slabs + exited threads). */
    std::uint64_t get(Stat s) const;

    /** Zero every total and child (racy-lossy against concurrent adds;
     *  a child seen before stays listed, at zero). */
    void reset();

    /**
     * Every counter in Stat order, each total followed by its labelled
     * children in pool-id order — the exposition's family grouping.
     */
    std::vector<CounterValue> counters() const;

    /** Multi-line "name value" dump of all nonzero totals. */
    std::string toString() const;

    /**
     * Address of the calling thread's slab (allocating it if needed) —
     * lets tests assert slabs are cache-line-disjoint.
     */
    const void *debugThreadSlab() { return slab(); }

    // Implementation types; public so the thread-exit hook (a
    // namespace-scope thread_local in stats.cc) can name them.
    struct Core;
    struct Slab;

  private:
    INCLL_INLINE std::atomic<std::uint64_t> *slab();
    std::atomic<std::uint64_t> *slabSlow();

    std::shared_ptr<Core> core_;
    std::uint64_t gen_; ///< == core_->gen; cached for the inline path
};

/** Process-wide counter instance (what the kStats exposition serves). */
StatSet &globalStats();

namespace detail {
/**
 * Most-recently-used (StatSet generation, slab) pair for the calling
 * thread. Keyed by a process-unique generation rather than the set's
 * address so a recycled allocation can never match a stale entry.
 */
struct StatsTlsCache
{
    std::uint64_t gen = 0; ///< 0 never matches a live StatSet
    std::atomic<std::uint64_t> *slab = nullptr;
};
// constinit: constant-initialised, so access needs no TLS init wrapper
// (whose null-object call UBSan reports on a thread's first use).
extern thread_local constinit StatsTlsCache statsTls;
} // namespace detail

INCLL_INLINE std::atomic<std::uint64_t> *
StatSet::slab()
{
    // Name the TLS object directly rather than through a reference:
    // UBSan null-checks a reference by testing the flags of the
    // initial-exec `add` that forms the TLS address, and the linker
    // may relax that `add` into a flag-less `lea`, so the check then
    // reads stale flags and reports a null reference that is not there.
    if (INCLL_LIKELY(detail::statsTls.gen == gen_))
        return detail::statsTls.slab;
    return slabSlow();
}

} // namespace incll
