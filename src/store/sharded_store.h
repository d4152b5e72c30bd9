/**
 * @file
 * ShardedStore: N independent INCLL shards behind one store API.
 *
 * The key space is partitioned across N Shards by a pluggable Placement
 * policy (hash or range, see store/placement.h); each shard is a
 * complete pool + epoch manager + external log + durable allocator +
 * tree. Epoch boundaries (the wbinvd-style global flush, the single
 * scalability pressure point of the one-tree design, paper §6)
 * therefore quiesce and flush one shard at a time, never the whole
 * store; crash recovery and failed-epoch rollback likewise run per
 * shard with no cross-shard coordination — one shard may be mid-epoch
 * while its neighbour just checkpointed, and after a crash each shard
 * rolls back exactly its own interrupted epoch.
 *
 * Placement decides scan behaviour: hash routing scatters every key
 * range over all shards, so a scan gathers from each shard and merges;
 * range routing keeps a key range inside the shards whose boundary
 * intervals it intersects, so a scan walks only those shards in order
 * and streams results with no merge at all. Recovery re-derives the
 * policy from the per-pool store manifests, so a recovered store
 * routes exactly as the crashed one did.
 *
 * The API mirrors the DurableMasstree shape the YCSB driver expects
 * (get/put/remove/scan + allocValueFor/freeValueFor), so every scenario
 * runs unchanged against a single tree or a sharded store. Value
 * allocation carries the key: a value buffer must live in the pool of
 * the shard that owns its key, or per-shard allocator rollback would
 * tear values from surviving entries.
 *
 * A single-shard store under the default hash placement is byte-for-
 * byte the old design: shard 0's pool receives exactly the store
 * sequence a standalone DurableMasstree would, and the store layer
 * writes no durable metadata of its own. (A range store writes its
 * manifest into every pool — the durable addition, and the reason
 * recovery can re-derive the routing.)
 *
 * Elastic topology: the routing table AND the shard set now change at
 * runtime. Every routing decision goes through one atomically-published
 * *Topology snapshot* — the placement table, the ordered list of member
 * shards, and the pool-id allocator state, swapped as a unit. Readers
 * pin before they load the snapshot they route by (an RCU-style table
 * epoch, with per-thread-slot pins: common/pin_slots.h): a commit swaps
 * in a new snapshot, and any destructive follow-up (source-side GC of a
 * move, destruction of a retired shard) first waits for every pin
 * taken before it to drain, so a long reader that loaded the table
 * just before a commit can never observe moved keys as absent, nor
 * touch a shard that no longer exists.
 *
 * Cross-shard transitions. The first three only build a plan (the
 * interval to copy, the next topology, whether the destination is a
 * fresh shard, whether the source's copies are swept) for the one
 * transition engine, applyTransition() in src/store/migration.cc, and
 * all three commit by one manifest write to every owned pool:
 *
 *  - moveBoundary() — hand a key interval to an adjacent shard
 *  - mergeBoundary() — stream a whole shard's range into its adjacent
 *    neighbour and collapse the boundary; the emptied shard leaves the
 *    member set
 *  - addShard() — spin up a fresh pool/epochs/log/allocator/tree via
 *    the Shard lifecycle and split a hot interval into it
 *  - retireShard() — destroy a drained, unrouted shard: wait out the
 *    table-epoch grace period, unregister its tracked pool (Pool
 *    teardown), release the memory. No durable write — the
 *    shard already left the durable membership at its merge commit, so
 *    a crash anywhere around retirement recovers to the same topology
 *    and discards the orphan pool wholesale.
 *
 * See ARCHITECTURE.md for the topology state machine and the per-phase
 * crash-point analysis.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/pin_slots.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "store/hotness.h"
#include "store/placement.h"
#include "store/shard.h"

namespace incll::store {

/**
 * Phases of the transition engine (moveBoundary, mergeBoundary and
 * addShard all run this state machine over a [lo, hi) interval; merge
 * and add just pick the interval to be a whole shard's range). The
 * durable commit point is the manifest write inside kCommit: a crash
 * strictly before its first completed copy recovers to exactly the old
 * placement and member set (copies already in the destination are
 * swept or discarded as orphans), a crash after it recovers to exactly
 * the new — never a mix.
 *
 *   kPrepare  manifest {old table, intent} flushed to every owned pool,
 *             window published, in-flight ops drained; writers to the
 *             moving interval now dual-apply to source and destination.
 *             (addShard creates the destination shard first, so the
 *             manifest carries its id before any table can name it.)
 *   kCopy     the interval streams into the destination in chunks
 *   kCommit   short pause of interval writers: destination epoch
 *             advance, manifest {new table, intent} (THE commit),
 *             topology swap
 *   kGc       old snapshot retired; once every reader pinning it
 *             releases (the table-epoch grace period) the source-side
 *             leftovers are swept (move/add; a merge's source dies
 *             wholesale at retirement instead), then manifest
 *             {new table, no intent}; lookups that miss dual-route to
 *             the peer shard
 *   kDone     migration complete, window retired
 */
enum class MovePhase { kPrepare = 0, kCopy, kCommit, kGc, kDone };

/** Knobs for one moveBoundary()/mergeBoundary()/addShard() call. */
struct MoveOptions
{
    /**
     * The store's uniform value-buffer size: moved values are copied
     * into buffers of this size allocated from the destination pool,
     * and swept source buffers are freed with it. 0 means values are
     * opaque pointers (never dereferenced, never pool memory) and are
     * installed verbatim. Mixing sizes within one store is outside the
     * protocol's contract.
     */
    std::size_t valueBytes = 0;
    /** Keys copied per chunk (one source-gate hold + one batch). */
    std::size_t chunkKeys = 256;
    /**
     * Crash-injection hook: invoked before each phase starts (and once
     * per kCopy chunk). Returning false abandons the migration exactly
     * as a crash at that point would — durable state is left as-is and
     * the in-memory window stays active; the store remains serviceable
     * and is expected to be torn down and recovered. Null = run to
     * completion.
     */
    std::function<bool(MovePhase)> phaseGate;
    /**
     * How to checkpoint a shard (by current position) at the boundary
     * points. Null = inline advanceEpoch(); installs an EpochService-
     * routed advance when one is attached so the inline advance does
     * not contend with the service scheduler. addShard's brand-new
     * destination is always advanced inline — it has no position until
     * the commit and no service state until the next sync.
     */
    std::function<void(unsigned)> advanceShard;
};

/** What one moveBoundary()/mergeBoundary()/addShard() call did. */
struct MoveResult
{
    bool completed = false;     ///< reached kDone (no abandon)
    MovePhase reached = MovePhase::kPrepare; ///< last phase entered
    std::uint64_t version = 0;  ///< placement version this commits
    std::uint64_t keysMoved = 0;
    std::uint64_t bytesMoved = 0; ///< key + value bytes streamed
    std::uint64_t pauseNs = 0;  ///< kCommit writer-pause duration
    /** kGc table-epoch grace wait: how long the GC stalled for scans
     *  still pinning retired routing snapshots. */
    std::uint64_t graceNs = 0;
};

/** What one retireShard() call did. */
struct RetireResult
{
    bool retired = false;   ///< the shard was found, drained, destroyed
    std::uint64_t graceNs = 0; ///< table-epoch grace wait before teardown
};

/** What whole-store recovery found and repaired (tests/observability). */
struct RecoveryInfo
{
    std::uint64_t placementVersion = 0;
    bool migrationPending = false;   ///< an uncleared intent was found
    bool migrationCommitted = false; ///< its commit manifest was durable
    std::uint64_t sweptKeys = 0;     ///< out-of-range orphans deleted
    /** Pools outside the committed member set, discarded wholesale
     *  (mid-add destinations, merged-out shards awaiting retirement). */
    std::uint64_t orphanPools = 0;
};

class ShardedStore
{
  public:
    struct Options
    {
        unsigned shards = 1;
        std::size_t poolBytesPerShard = std::size_t{64} << 20;
        nvm::Mode mode = nvm::Mode::kDirect;
        /** Shard i's pool is seeded with seed + i (deterministic). */
        std::uint64_t seed = 1;
        /** Per-shard components + placement policy (config.placement). */
        StoreConfig config;
    };

    /**
     * Create a fresh store of options.shards empty shards, routed by
     * options.config.placement. A range store writes its version-0
     * manifest into every pool (synchronously flushed) before
     * returning, so recovery re-derives the routing from a crash at any
     * later point. Throws std::invalid_argument on a malformed
     * configuration (zero shards, bad boundary table, a range store of
     * more than Manifest::kMaxMembers shards).
     */
    explicit ShardedStore(const Options &options);

    /**
     * Whole-store crash recovery: adopt the crashed pools and recover
     * every member shard independently. Any subset of the shards may
     * have a failed epoch in flight. The placement policy AND the
     * member set are re-derived from the pools' manifests — a
     * config's placement fields are ignored here — so routing after
     * recovery is exactly the crashed store's. A range store's pools
     * may arrive in any order (the manifest names members by pool id);
     * a hash store's must arrive in shard order, the order
     * releasePools() returned them. Pools outside the committed member
     * set (a mid-add destination, a merged-out shard) are discarded
     * wholesale. Throws std::runtime_error if the manifests are
     * inconsistent (not one store's shards) or corrupt.
     */
    ShardedStore(std::vector<std::unique_ptr<nvm::Pool>> pools, RecoverTag,
                 const StoreConfig &config);

    ShardedStore(const ShardedStore &) = delete;
    ShardedStore &operator=(const ShardedStore &) = delete;

    // -- topology ----------------------------------------------------

    /** Number of member shards. Fixed for hash stores; a range store's
     *  changes when a merge/add commits — callers holding an index
     *  across such a commit must re-read it. */
    unsigned
    shardCount() const
    {
        return topology_.load(std::memory_order_acquire)->count();
    }

    /** Direct access to the shard at position @p i (i < shardCount());
     *  the store stays usable around it, but anything done to the
     *  shard's components must respect their own locking rules. An
     *  elastic topology commit can re-number positions — do not cache
     *  @p i across one. */
    Shard &
    shard(unsigned i)
    {
        return *topology_.load(std::memory_order_acquire)->shards[i];
    }

    /** shardPoolId() of a position the store does not have. */
    static constexpr std::uint32_t kNoPool = UINT32_MAX;

    /** Durable pool id of the shard at position @p pos, or kNoPool when
     *  @p pos is out of range (the topology shrank since the caller
     *  sampled it). Stable across topology changes (positions are
     *  not); obs series, intent records and the EpochService's
     *  per-shard state name shards by it. */
    std::uint32_t shardPoolId(unsigned pos) const;

    /** Pool ids of the member shards in position order, read from one
     *  snapshot. */
    std::vector<std::uint32_t> memberPoolIds() const;

    /** Pool ids of owned shards that are NOT in the routing topology —
     *  merged-out shards awaiting retireShard(). */
    std::vector<std::uint32_t> unroutedPoolIds() const;

    /**
     * The routing policy in force. Fixed at construction or recovery
     * for hash stores; a range store's policy is *replaced* when a
     * migration or topology transition commits — the returned
     * reference stays valid for the store's lifetime (retired tables
     * are kept), but long-lived callers should re-read it rather than
     * cache across commits.
     */
    const Placement &
    placement() const
    {
        return *topology_.load(std::memory_order_acquire)->placement;
    }

    /** Monotonic placement version: 0 at creation, bumped by every
     *  committed migration AND every committed topology transition
     *  (one counter — recovery relies on the shared monotonic order
     *  to tell which record is newest); recovery restores the highest
     *  committed. */
    std::uint64_t
    placementVersion() const
    {
        return placementVersion_.load(std::memory_order_acquire);
    }

    /**
     * Owning shard position of @p key under the current snapshot. Pure
     * function of the key and the table: safe from any thread, no
     * locks taken. The position is stale the moment a commit lands —
     * single-step callers re-validate (the store's own ops do), and
     * multi-step callers must pin (scan does).
     */
    unsigned
    shardOf(std::string_view key) const
    {
        return topology_.load(std::memory_order_acquire)->route(key);
    }

    /** Per-shard load counters for the shard at position @p i
     *  (all-zero unless config.trackHotness). The counters travel with
     *  the shard when positions re-number. */
    ShardHotness &
    hotness(unsigned i)
    {
        return topology_.load(std::memory_order_acquire)
            ->shards[i]
            ->hotness();
    }

    /** True iff this store maintains hotness counters. */
    bool hotnessTracking() const { return trackHotness_; }

    /** What the last recovery construction found and repaired. */
    const RecoveryInfo &lastRecoveryInfo() const { return recoveryInfo_; }

    /** Run @p f on every member shard, in position order, on the
     *  calling thread, against one pinned topology snapshot. No gates
     *  are taken; @p f observes each shard as-is. */
    template <typename F>
    void
    forEachShard(F &&f)
    {
        TopoGuard pin(*this);
        for (Shard *s : pin.topo().shards)
            f(*s);
    }

    // -- the store API -------------------------------------------------

    /**
     * Point lookup in @p key's owning shard. @p out receives the value
     * pointer on a hit. The pointer stays dereferenceable until the
     * shard's next epoch boundary after a concurrent remove/update
     * frees it (EBR promotion) — hold the shard's gate across any
     * longer use.
     *
     * Dual-route window: while a migration is moving @p key's interval,
     * a miss in the routed shard retries the peer shard of the move
     * (new-then-old around the table swap), so a reader racing the swap
     * or the source GC never misses a present key. A value served by
     * the peer lives on the *peer's* epoch clock; the migration's
     * remove/GC paths are ordered so a fallback can never return a
     * buffer the protocol has already freed, but callers that keep a
     * window key's pointer beyond the immediate dereference should
     * hold both of the move's gates.
     */
    bool
    get(std::string_view key, void *&out)
    {
        obs::ScopedRecordNs rec(recordOpLatency_, obs::Hist::kStoreGetNs);
        TopoGuard pin(*this);
        for (;;) {
            const Topology &t = pin.topo();
            Shard *sh = t.shards[routeOp(t, key)];
            if (sh->tree().get(key, out))
                return true;
            if (!migrationPossible_)
                return false;
            if (const MigrationWindow *w =
                    migration_.load(std::memory_order_acquire);
                w != nullptr && keyInWindow(*w, key)) {
                // In a window the owner is one of the move's two
                // shards; both tried => truly absent. (The window keeps
                // both Shard objects alive: retirement needs the window
                // gone and the pin drained first.)
                if (sh != w->dstShard && w->dstShard->tree().get(key, out))
                    return true;
                if (sh != w->srcShard && w->srcShard->tree().get(key, out))
                    return true;
                return false;
            }
            // A commit may have landed between routing and the lookup
            // (the route was stale); retry against the current owner.
            if (currentShardOf(key) == sh)
                return false;
            pin.repin();
        }
    }

    /**
     * Insert or update @p key in its owning shard. @p val must have
     * been allocated from that shard's pool (use allocValueFor — the
     * key-carrying form exists exactly for this). On update, *oldOut
     * receives the replaced value pointer; the caller frees it via
     * freeValueFor. @return true iff the key was newly inserted.
     *
     * Migration window: a write into an interval being moved takes the
     * slow path (migrationPut) — serialized with the mover and applied
     * to both shards while the copy runs — so no update can be lost
     * between the copy stream and the table swap. The window check
     * happens *inside* the shard's gate: the mover quiesces both gates
     * after publishing the window, so an op that saw no window is
     * guaranteed to complete before the first key is copied.
     */
    bool
    put(std::string_view key, void *val, void **oldOut = nullptr)
    {
        obs::ScopedRecordNs rec(recordOpLatency_, obs::Hist::kStorePutNs);
        TopoGuard pin(*this);
        // Only ordered (range) stores can migrate; every other store
        // keeps the historical single-line fast path.
        if (!migrationPossible_) {
            const Topology &t = pin.topo();
            return t.shards[routeOp(t, key)]->tree().put(key, val, oldOut);
        }
        for (;;) {
            const Topology &t = pin.topo();
            Shard *sh = t.shards[routeOp(t, key)];
            bool inWindow = false;
            {
                EpochGate::Guard gate(gateOf(*sh));
                const MigrationWindow *w =
                    migration_.load(std::memory_order_acquire);
                inWindow = w != nullptr && keyInWindow(*w, key);
                // Direct write is safe only when, observed from inside
                // the gate, no window covers the key AND the route is
                // still current. (No-window-seen means any migration of
                // this key either has not copied a single key yet — its
                // prepare quiesce drains this gate entry first — or is
                // fully done, which the route re-check catches.)
                if (!inWindow && currentShardOf(key) == sh)
                    return sh->tree().put(key, val, oldOut);
            }
            if (inWindow)
                // Re-route under the window mutex (the gate must be
                // dropped first — the mover's commit pause holds the
                // mutex while advancing an epoch, which needs gate
                // drain).
                return migrationPut(key, val, oldOut);
            pin.repin(); // stale route: a commit landed
        }
    }

    /**
     * Remove @p key from its owning shard. On a hit, *oldOut receives
     * the removed value pointer for the caller to free via
     * freeValueFor. @return true iff the key was present. Migration
     * windows are handled exactly as in put().
     */
    bool
    remove(std::string_view key, void **oldOut = nullptr)
    {
        obs::ScopedRecordNs rec(recordOpLatency_,
                                obs::Hist::kStoreRemoveNs);
        TopoGuard pin(*this);
        if (!migrationPossible_) {
            const Topology &t = pin.topo();
            return t.shards[routeOp(t, key)]->tree().remove(key, oldOut);
        }
        for (;;) {
            const Topology &t = pin.topo();
            Shard *sh = t.shards[routeOp(t, key)];
            bool inWindow = false;
            {
                EpochGate::Guard gate(gateOf(*sh));
                const MigrationWindow *w =
                    migration_.load(std::memory_order_acquire);
                inWindow = w != nullptr && keyInWindow(*w, key);
                if (!inWindow && currentShardOf(key) == sh)
                    return sh->tree().remove(key, oldOut);
            }
            if (inWindow)
                return migrationRemove(key, oldOut);
            pin.repin(); // stale route: a commit landed
        }
    }

    /** True iff @p key lies in an interval currently being migrated
     *  (front-ends use this to route installs through the store API
     *  instead of a resolved-shard fast path). */
    bool
    inMigrationWindow(std::string_view key) const
    {
        const MigrationWindow *w =
            migration_.load(std::memory_order_acquire);
        return w != nullptr && keyInWindow(*w, key);
    }

    /** True while a move/merge/add is between kPrepare and kDone. */
    bool
    migrationInProgress() const
    {
        return migration_.load(std::memory_order_acquire) != nullptr;
    }

    /** True iff this store can ever migrate a key interval: range
     *  placement (a single-member range store can addShard). Front-
     *  ends use this to pick between the resolved-shard install fast
     *  path and the gate-checked store API; constant for the store's
     *  lifetime. */
    bool migrationPossible() const { return migrationPossible_; }

    /** Whether per-op latency histograms are being recorded (see
     *  StoreConfig::recordOpLatency). Lets value_util's direct-tree
     *  fast path record what the bypassed put() would have. */
    bool recordOpLatency() const { return recordOpLatency_; }

    /**
     * Ordered scan of up to @p limit keys >= @p start across all
     * shards, with the shard set chosen by the placement policy:
     *
     *  - *Ordered* placements (range): shard indices ascend with key
     *    ranges, so the scan enters only the shards whose ranges
     *    intersect [start, <limit-th hit>] — starting at the owner of
     *    @p start and walking right until the limit is reached —
     *    streaming callbacks in global key order with no gather, no
     *    merge and no transient memory. A scan contained in one
     *    shard's range enters exactly one gate, like a single-tree
     *    scan.
     *
     *  - *Unordered* placements (hash): every shard may own keys in
     *    the range, so the scan gathers up to @p limit hits from each
     *    shard and merges them by key (keys are unique across shards).
     *    The gather materialises per-shard results; scans with very
     *    large limits pay O(total hits) transient memory.
     *
     * Every routing decision (start shard, per-shard clips) comes from
     * ONE pinned topology snapshot (TopoGuard — the RCU table epoch):
     * a commit that lands mid-scan retires the snapshot, and the
     * destructive follow-up (source GC, shard teardown) waits for the
     * pin to drain, so the scan still reads moved keys from the shard
     * its snapshot routes them to and never touches a freed shard.
     *
     * Pointer-stability contract (the single tree's, restored): a
     * shard's epoch gate is held from before its gather until the last
     * callback that can deliver one of its values returns — the gate
     * is re-entrant, so the inner per-shard tree scans (and any store
     * operation a callback issues against a *held* shard) simply
     * nest. No such shard can take an epoch boundary while the scan
     * runs, so a concurrently freed value buffer cannot be recycled
     * (recycling needs the next boundary's EBR promotion) before the
     * callback dereferences it. Shards the scan can prove it will
     * never deliver from are not held: under ordered placement they
     * are never entered at all; under hash, a shard that gathered
     * nothing — or whose hits all fall past the merge window — is
     * released before the callbacks run. The flip side: a long scan
     * delays the advances of exactly the shards it delivers from.
     *
     * Callback re-entrancy caveat (this is where the partial hold
     * differs from the historical all-gates hold): an operation a
     * callback issues against a shard the scan does *not* hold takes
     * a fresh gate entry, which can block behind that shard's pending
     * epoch advance. One scan doing this is safe — a blocked fresh
     * entry holds nothing on the target gate, so the advance drains
     * and the entry proceeds — but two concurrent scans whose
     * callbacks each write into the other's held shards can deadlock
     * with two advances in flight. If a callback must issue writes to
     * arbitrary shards, do it from a scan-external queue drained
     * after the scan returns.
     */
    template <typename F>
    std::size_t
    scan(std::string_view start, std::size_t limit, F &&cb)
    {
        obs::ScopedRecordNs rec(recordOpLatency_,
                                obs::Hist::kStoreScanNs);
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        if (t.count() == 1)
            return t.shards[0]->tree().scan(start, limit,
                                            std::forward<F>(cb));
        if (limit == 0)
            return 0;
        globalStats().add(Stat::kScans);
        if (t.placement->ordered())
            return scanOrdered(t, start, limit, cb);
        // Hash placement cannot migrate: the snapshot never changes.
        return scanMerged(t, start, limit, cb);
    }

    // -- batched operations ---------------------------------------------

    /** One operation of a multiPut() batch. */
    struct PutOp
    {
        std::string_view key;
        void *val = nullptr;
        /** Out: replaced value pointer (nullptr on fresh insert). */
        void *old = nullptr;
        /** Out: true iff the key was newly inserted. */
        bool inserted = false;
    };

    /**
     * Batched point lookups: @p out[i] receives the value of @p keys[i]
     * or nullptr on a miss. Keys are grouped by owning shard and each
     * touched shard's gate is entered once for its whole group — the
     * per-op guards inside the tree collapse to re-entrant depth bumps,
     * so a batch pays one Dekker store per shard instead of one per key.
     *
     * @return number of hits.
     */
    std::size_t
    multiGet(std::span<const std::string_view> keys, void **out)
    {
        obs::ScopedRecordNs rec(recordOpLatency_,
                                obs::Hist::kStoreMultiGetNs);
        std::size_t hits = 0;
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        forEachShardGroup(
            t, keys.size(),
            [&keys](std::size_t i) { return keys[i]; },
            [&](unsigned shardIdx, std::span<const std::uint32_t> idx) {
                Shard *sh = t.shards[shardIdx];
                auto &tree = sh->tree();
                {
                    EpochGate::Guard gate(tree.epochs().gate());
                    if (!groupTouchesMigration(sh) &&
                        topology_.load(std::memory_order_acquire) == &t) {
                        std::size_t keyBytes = 0;
                        for (const std::uint32_t i : idx) {
                            out[i] = nullptr;
                            keyBytes += keys[i].size();
                            if (tree.get(keys[i], out[i]))
                                ++hits;
                        }
                        if (trackHotness_)
                            sh->hotness().recordN(idx.size(), keyBytes);
                        return;
                    }
                }
                // A migration involves this shard (or a commit landed
                // since the batch was grouped, so the grouping may be
                // stale): per-key get()s carry the dual-route fallback
                // and the re-route retry the grouped loop lacks. The
                // gate is dropped first — the fallback enters other
                // shards' gates. Rare (one shard pair, migration-only).
                for (const std::uint32_t i : idx) {
                    out[i] = nullptr;
                    if (get(keys[i], out[i]))
                        ++hits;
                }
            });
        return hits;
    }

    /**
     * Batched inserts/updates. Groups @p ops by owning shard, applies
     * write backpressure once per touched shard (see setWriteThrottle),
     * then enters the shard's gate once for the whole group. Each op's
     * `old`/`inserted` fields report what put() would have. Every
     * op.val must come from its key's owning shard's pool, exactly as
     * for put().
     *
     * @return number of newly inserted keys.
     */
    std::size_t
    multiPut(std::span<PutOp> ops)
    {
        obs::ScopedRecordNs rec(recordOpLatency_,
                                obs::Hist::kStoreMultiPutNs);
        std::size_t inserted = 0;
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        forEachShardGroup(
            t, ops.size(),
            [&ops](std::size_t i) { return ops[i].key; },
            [&](unsigned shardIdx, std::span<const std::uint32_t> idx) {
                Shard *sh = t.shards[shardIdx];
                auto &tree = sh->tree();
                throttleWrites(shardIdx, tree.epochs().gate());
                {
                    EpochGate::Guard gate(tree.epochs().gate());
                    if (!groupTouchesMigration(sh) &&
                        topology_.load(std::memory_order_acquire) == &t) {
                        std::size_t keyBytes = 0;
                        for (const std::uint32_t i : idx) {
                            PutOp &op = ops[i];
                            op.old = nullptr;
                            keyBytes += op.key.size();
                            op.inserted = tree.put(op.key, op.val, &op.old);
                            if (op.inserted)
                                ++inserted;
                        }
                        if (trackHotness_)
                            sh->hotness().recordN(idx.size(), keyBytes);
                        return;
                    }
                }
                // A migration involves this shard: per-key put()s take
                // the dual-write slow path where needed. The gate must
                // be dropped first — migrationPut acquires the window
                // mutex, which the mover's commit pause holds while
                // advancing an epoch (gate-before-mutex would deadlock
                // against it).
                for (const std::uint32_t i : idx) {
                    PutOp &op = ops[i];
                    op.old = nullptr;
                    op.inserted = put(op.key, op.val, &op.old);
                    if (op.inserted)
                        ++inserted;
                }
            });
        return inserted;
    }

    /**
     * Install a write-backpressure hook, called with the shard position
     * before every batched write group enters its gate (never while the
     * calling thread holds that gate — the hook may block on an epoch
     * advance). The EpochService installs its throttle here so a shard
     * whose external log outruns its async advance slows its writers
     * instead of exhausting the log. Set/clear only while quiescent;
     * pass nullptr to clear.
     */
    void
    setWriteThrottle(std::function<void(unsigned)> hook)
    {
        writeThrottle_ = std::move(hook);
    }

    /**
     * Allocate a @p bytes value buffer in the pool of @p key's owning
     * shard — the only pool a value installed under @p key may live
     * in (per-shard allocator rollback would otherwise tear it).
     */
    void *
    allocValueFor(std::string_view key, std::size_t bytes)
    {
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        return t.shards[t.route(key)]->tree().allocValue(bytes);
    }

    /**
     * Return @p p (allocated by allocValueFor for @p key, @p bytes) to
     * its shard's allocator. The buffer becomes reusable at that
     * shard's next epoch boundary (EBR), so concurrent readers that
     * entered before the free stay safe until then.
     *
     * Around a migration the routed shard can differ from the shard
     * the buffer was allocated in (the table moved under the caller);
     * the pool that actually contains @p p wins — including the pool
     * of an unrouted, not-yet-retired shard — so a buffer is always
     * freed into the allocator it came from.
     */
    void
    freeValueFor(std::string_view key, void *p, std::size_t bytes)
    {
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        Shard *sh = t.shards[t.route(key)];
        if (migrationPossible_ && !sh->pool().contains(p)) {
            freeValueInOwningPool(p, bytes);
            return;
        }
        sh->tree().freeValue(p, bytes);
    }

    /**
     * Batched allocValueFor: group @p keys by owning shard and allocate
     * each shard's share with one allocator batch (O(1) shared-list
     * operations per touched shard in the allocator's lock-free mode).
     * out[i] receives the buffer for keys[i]. Routing races with a
     * concurrent migration are the caller's concern, exactly as with
     * per-key allocValueFor (installValueBatch re-checks placement).
     */
    void
    allocValuesFor(std::span<const std::string_view> keys,
                   std::size_t bytes, void **out)
    {
        thread_local std::vector<void *> bufs;
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        forEachShardGroup(
            t, keys.size(), [&keys](std::size_t i) { return keys[i]; },
            [&](unsigned s, std::span<const std::uint32_t> idx) {
                bufs.resize(idx.size());
                t.shards[s]->tree().allocValueMany(bytes, bufs.data(),
                                                   idx.size());
                for (std::size_t j = 0; j < idx.size(); ++j)
                    out[idx[j]] = bufs[j];
            });
    }

    /**
     * Batched freeValueFor: ps[i] (may be nullptr = skip) is returned to
     * the allocator of keys[i]'s shard, one allocator batch per touched
     * shard. Buffers that routing says belong to a shard whose pool does
     * not contain them (migration raced the caller) fall back to the
     * per-key path, which finds the owning pool.
     */
    void
    freeValuesFor(std::span<const std::string_view> keys, void *const *ps,
                  std::size_t bytes)
    {
        thread_local std::vector<void *> bufs;
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        forEachShardGroup(
            t, keys.size(), [&keys](std::size_t i) { return keys[i]; },
            [&](unsigned s, std::span<const std::uint32_t> idx) {
                bufs.clear();
                for (const std::uint32_t i : idx) {
                    void *p = ps[i];
                    if (p == nullptr)
                        continue;
                    if (migrationPossible_ &&
                        !t.shards[s]->pool().contains(p)) {
                        freeValueInOwningPool(p, bytes);
                        continue;
                    }
                    bufs.push_back(p);
                }
                if (!bufs.empty())
                    t.shards[s]->tree().freeValueMany(bufs.data(),
                                                      bufs.size(), bytes);
            });
    }

    // -- online rebalancing ---------------------------------------------

    /**
     * Move the key interval between @p src and its *adjacent* neighbour
     * @p dst: split @p src's range at @p splitKey and hand the piece
     * bordering @p dst over, while the store keeps serving. Blocking;
     * runs the whole MovePhase state machine on the calling thread
     * (the service-layer Rebalancer is the intended caller). Writers
     * anywhere outside the moving interval are never blocked; writers
     * inside it are serialized with the copy stream and paused only for
     * the kCommit window (MoveResult::pauseNs).
     *
     * Durability: the old boundary table stays authoritative until the
     * commit manifest is flushed inside kCommit; a crash at any point
     * recovers to exactly the old or exactly the new placement, with
     * orphan copies swept by recovery (see RecoveryInfo).
     *
     * Requires range placement, adjacent shards, and a split key
     * strictly inside src's range (throws std::invalid_argument), and
     * no other migration in flight (throws std::runtime_error). Only
     * one thread may call this at a time.
     */
    MoveResult moveBoundary(unsigned src, unsigned dst,
                            std::string_view splitKey,
                            const MoveOptions &opts = {});

    // -- elastic topology -----------------------------------------------

    /**
     * Merge the shard at position @p src into its *adjacent* neighbour
     * @p dst: stream src's whole range into dst, collapse the boundary
     * between them, and drop src from the member set — all while the
     * store keeps serving, with the same phase structure and writer
     * guarantees as moveBoundary(). The commit is one manifest
     * (version+1, the shrunken member set) flushed to every owned pool;
     * a crash before the first completed copy recovers the old member
     * set (dst's copies swept as orphans), after it the new (src's pool
     * discarded wholesale as an orphan).
     *
     * The emptied shard is NOT destroyed here: it leaves the routing
     * topology and awaits retireShard() (see unroutedPoolIds()), so
     * in-flight readers drain on their own schedule.
     *
     * Requires a range store, adjacent positions, and >= 2 members
     * (throws std::invalid_argument); throws std::runtime_error when
     * another migration is in flight.
     */
    MoveResult mergeBoundary(unsigned src, unsigned dst,
                             const MoveOptions &opts = {});

    /**
     * Split the shard at position @p src: create a brand-new shard
     * (fresh pool, epochs, log, allocator, tree — the full Shard
     * lifecycle), stream src's tail [@p splitKey, src.upper) into it,
     * and commit it as the member at position src+1. The commit is one
     * manifest (version+1, the grown member set) flushed to every owned
     * pool, the new one included; a crash before the first completed
     * copy recovers the old member set and discards the half-filled new
     * pool wholesale, after it recovers the new set with src's
     * leftovers swept.
     *
     * Requires a range store, @p splitKey strictly inside src's range
     * and persistable, and membership below Manifest::kMaxMembers
     * (throws std::invalid_argument); throws std::runtime_error when
     * another migration is in flight.
     */
    MoveResult addShard(unsigned src, std::string_view splitKey,
                        const MoveOptions &opts = {});

    /**
     * Destroy the unrouted shard with durable pool id @p poolId: wait
     * for every reader pinning a retired topology snapshot to release
     * (they are the only paths that can still reach the shard, an
     * EpochService advance among them), then destroy it — tree torn
     * down, tracked pool
     * unregistered, memory released. Returns retired=false if no owned
     * shard has that id. No durable write happens: the shard already
     * left the durable membership at its merge commit, so recovery
     * after a crash anywhere around retirement discards the pool
     * wholesale as an orphan — retirement is the in-memory half of a
     * transition the manifest already committed.
     *
     * Throws std::invalid_argument if the shard is still routed, and
     * std::runtime_error when a migration is in flight.
     */
    RetireResult retireShard(std::uint32_t poolId);

    // -- epochs ---------------------------------------------------------

    /**
     * Checkpoint every member shard once, inline on the calling thread.
     * Boundaries are taken shard-by-shard: each advance quiesces and
     * flushes only its own shard. Must not be called by a thread
     * holding any shard's gate (self-deadlock; see
     * EpochGate::lockExclusive).
     */
    void advanceEpoch();

    /**
     * Checkpoint the member shard at position @p pos, inline; a no-op
     * when @p pos is out of range (the topology shrank since the
     * caller sampled it).
     */
    void advanceShardEpoch(unsigned pos);

    /**
     * True while the member at @p pos has an epoch boundary holding or
     * draining its gate (EpochGate::advancePending); false when @p pos
     * is out of range. A scheduling hint that enters no gate: the
     * boundary may begin or end right after it returns.
     */
    bool
    shardAdvancePending(unsigned pos) const
    {
        TopoGuard pin(*this);
        const Topology &t = pin.topo();
        return pos < t.count() && gateOf(*t.shards[pos]).advancePending();
    }

    // The EpochService's maintenance calls name a member by durable
    // pool id, not position: a topology commit re-numbers positions
    // between the service picking a shard and acting on it, and a pool
    // id always names the same shard. Each is a no-op (false, 0) when
    // no member has the id any more (merged away).

    /** Checkpoint the member with pool id @p poolId, inline; false when
     *  there is none. */
    bool advanceMemberEpoch(std::uint32_t poolId);

    /** Bytes appended to the external log of the member with pool id
     *  @p poolId. */
    std::uint64_t memberLogBytes(std::uint32_t poolId) const;

    /**
     * Elide the scheduled boundary of the member with pool id
     * @p poolId when its open epoch took no durable store
     * (EpochManager::skipIfIdle): true when skipped, false when the
     * boundary must run or there is no such member.
     */
    bool skipIdleMemberEpoch(std::uint32_t poolId);

    // -- recovery / teardown --------------------------------------------

    /** Log images applied by the last recovery, summed over shards. */
    std::uint64_t lastRecoveryLogApplied() const;

    /**
     * Drop every owned shard's transient tree object (process death)
     * and hand back the pools — members first in position order, then
     * unrouted shards — ready to be crash()ed and fed to the recovery
     * constructor. Requires quiescence (no operations, no service
     * attached). The store is unusable afterwards.
     */
    std::vector<std::unique_ptr<nvm::Pool>> releasePools();

  private:
    /**
     * One immutable routing snapshot: the placement table, the member
     * shards in position order, and the pool-id allocator state. The
     * current snapshot is published through topology_; a commit swaps
     * the pointer and keeps every retired snapshot alive for the
     * store's lifetime, so an operation that loaded the pointer just
     * before a swap finishes safely. A snapshot carries no pin state:
     * readers pin the store's topoPins_ (TopoGuard), whose memory is
     * fixed however many snapshots retire.
     */
    struct Topology
    {
        const Placement *placement = nullptr; ///< owned by placementHistory_
        std::vector<Shard *> shards;          ///< owned by owned_
        std::uint32_t nextPoolId = 0;

        unsigned
        count() const
        {
            return static_cast<unsigned>(shards.size());
        }

        unsigned
        route(std::string_view key) const
        {
            if (shards.size() == 1)
                return 0;
            // Hash routing is the point-op common case; keep it inline
            // and free of virtual dispatch. Other policies pay one
            // virtual call.
            if (placement->kind() == PlacementKind::kHash)
                return HashPlacement::route(key, shards.size());
            return placement->shardOf(key);
        }
    };

    /**
     * RAII pin of the current topology snapshot — the store-internal
     * reader side of the RCU table epoch. The pin goes on the calling
     * thread's own line of topoPins_ (pin-then-recheck, see
     * GracePins), and the snapshot is loaded after it: a reader that
     * loads a snapshot a commit has since retired is waited for by
     * that commit's grace drain (drainRetiredPins). Hash stores skip
     * the pin entirely — their snapshot never changes.
     */
    class TopoGuard
    {
      public:
        explicit TopoGuard(const ShardedStore &store) : store_(store)
        {
            acquire();
        }

        ~TopoGuard() { release(); }

        const Topology &topo() const { return *topo_; }

        /** Drop the pin and re-pin the (possibly newer) current
         *  snapshot — the retry step of stale-route loops. */
        void
        repin()
        {
            release();
            acquire();
        }

        TopoGuard(const TopoGuard &) = delete;
        TopoGuard &operator=(const TopoGuard &) = delete;

      private:
        void
        acquire()
        {
            if (store_.migrationPossible_)
                pin_ = store_.topoPins_.enter();
            topo_ = store_.topology_.load(std::memory_order_acquire);
        }

        void
        release()
        {
            if (store_.migrationPossible_)
                store_.topoPins_.exit(pin_);
        }

        const ShardedStore &store_;
        const Topology *topo_ = nullptr;
        GracePins::Pin pin_;
    };

    /**
     * One in-flight migration (move/merge/add), published to every
     * thread via the migration_ pointer. The protocol names its two
     * parties by Shard identity, not position — positions re-number at
     * the very commit the window spans. The mutex serializes writers
     * targeting the moving interval with the mover's copy chunks and
     * the commit pause; it is always acquired *before* any epoch gate
     * (the commit pause holds it across an epoch advance, which waits
     * for gate drain). Retired windows are kept alive for the store's
     * lifetime so a racing reader's loaded pointer never dangles — and
     * a window keeps its two Shard objects reachable, so retireShard
     * refuses to run while any window is active.
     */
    struct MigrationWindow
    {
        Shard *srcShard = nullptr;
        Shard *dstShard = nullptr;
        std::string lo; ///< first moving key
        /** One past the last moving key; empty = +infinity (a merge of
         *  the last member moves an above-unbounded range). */
        std::string hi;
        std::size_t valueBytes = 0;
        std::atomic<int> phase{static_cast<int>(MovePhase::kPrepare)};
        std::mutex mu;
    };

    static bool
    keyInWindow(const MigrationWindow &w, std::string_view key)
    {
        return key >= w.lo && (w.hi.empty() || key < w.hi);
    }

    /** An owned shard and whether the current topology routes to it.
     *  Unrouted shards (merged out, awaiting retireShard) stay owned
     *  so late value frees still find their pool. */
    struct OwnedShard
    {
        std::unique_ptr<Shard> shard;
        bool routed = true;
    };

    /** Route @p key under snapshot @p t and feed the hotness counters
     *  (user-facing ops only; the mover's internal traffic is not
     *  load). */
    unsigned
    routeOp(const Topology &t, std::string_view key)
    {
        const unsigned s = t.route(key);
        if (trackHotness_)
            t.shards[s]->hotness().record(key.size());
        return s;
    }

    /** The shard the *current* snapshot owns @p key with — the
     *  staleness re-check of the point-op loops. Shard identity, not
     *  position: positions shift across topology commits, the owning
     *  Shard object is what the comparison needs. */
    Shard *
    currentShardOf(std::string_view key) const
    {
        const Topology *t = topology_.load(std::memory_order_acquire);
        return t->shards[t->route(key)];
    }

    /** The member of @p t with durable pool id @p poolId, or nullptr.
     *  A store that never changed its member set keeps pool id ==
     *  position, so that slot is tried first. */
    static Shard *
    memberWithPoolId(const Topology &t, std::uint32_t poolId)
    {
        if (poolId < t.count() && t.shards[poolId]->poolId() == poolId)
            return t.shards[poolId];
        for (Shard *s : t.shards)
            if (s->poolId() == poolId)
                return s;
        return nullptr;
    }

    /** True iff a migration involving shard @p sh is in flight — the
     *  batched paths bail to per-op handling for such groups. */
    bool
    groupTouchesMigration(const Shard *sh) const
    {
        if (!migrationPossible_)
            return false;
        const MigrationWindow *w =
            migration_.load(std::memory_order_acquire);
        return w != nullptr && (w->srcShard == sh || w->dstShard == sh);
    }

    /**
     * One validated transition: the interval [lo, hi) moving from the
     * member at position @p src to the member at position @p dst, and
     * the topology its commit installs. A fresh destination (addShard)
     * is created by the engine at kPrepare and fills the nullptr slot
     * of @p nextShards; @p dst is unused then.
     */
    struct TransitionPlan
    {
        unsigned src = 0;
        unsigned dst = 0;
        bool freshShard = false;
        /** Sweep [lo, hi) out of the source after the commit (a
         *  merge's source instead leaves the topology whole). */
        bool gcSource = true;
        std::string lo;
        std::string hi; ///< empty = +infinity
        std::vector<std::string> nextBoundaries;
        std::vector<Shard *> nextShards;
        Stat doneStat = Stat::kRebalances;
    };

    // Transition planning (src/store/topology.cc) and the engine with
    // its parts (src/store/migration.cc).
    std::unique_lock<std::mutex> lockTransitions();
    MoveResult applyTransition(TransitionPlan plan, const MoveOptions &opts);
    void writeManifests(const Topology &t, std::uint64_t version,
                        const MigrationIntent *intent);
    bool migrationPut(std::string_view key, void *val, void **oldOut);
    bool migrationRemove(std::string_view key, void **oldOut);
    void freeValueInOwningPool(void *p, std::size_t bytes);
    std::uint64_t eraseRange(Shard &sh, std::string_view lo,
                             std::string_view hi, std::size_t valueBytes);
    std::uint64_t sweepOutOfRangeKeys(const MigrationIntent &pending);
    MigrationWindow *publishWindow(Shard *src, Shard *dst,
                                   const MigrationIntent &intent);
    std::uint64_t drainRetiredPins(std::uint64_t version);
    bool copyInterval(const MigrationIntent &intent, Shard &src, Shard &dst,
                      MigrationWindow &w, const MoveOptions &opts,
                      MoveResult &res);

    /**
     * RAII hold over a per-shard subset of the gates, releasable early
     * shard-by-shard — the merged scan enters every shard and drops the
     * ones the merge proves it will never deliver from.
     */
    class GateHold
    {
      public:
        explicit GateHold(std::size_t shards) : held_(shards, nullptr) {}

        ~GateHold()
        {
            for (EpochGate *g : held_)
                if (g != nullptr)
                    g->exit();
        }

        void
        enter(unsigned s, EpochGate &g)
        {
            g.enter();
            held_[s] = &g;
        }

        void
        exit(unsigned s)
        {
            held_[s]->exit();
            held_[s] = nullptr;
        }

        bool held(unsigned s) const { return held_[s] != nullptr; }

        GateHold(const GateHold &) = delete;
        GateHold &operator=(const GateHold &) = delete;

      private:
        std::vector<EpochGate *> held_;
    };

    static EpochGate &
    gateOf(Shard &s)
    {
        return s.tree().epochs().gate();
    }

    /**
     * RAII hold over the gates of one contiguous run of shards
     * [first, end), extended to the right one shard at a time — all an
     * ordered scan ever holds, so two indices replace GateHold's
     * per-shard table and the scan allocates nothing.
     */
    class GateRun
    {
      public:
        GateRun(const Topology &t, unsigned first)
            : t_(t), first_(first), end_(first)
        {
        }

        ~GateRun()
        {
            for (unsigned s = first_; s < end_; ++s)
                gateOf(*t_.shards[s]).exit();
        }

        /** Enter the gate of the shard at end() and return it. */
        Shard &
        extend()
        {
            Shard &sh = *t_.shards[end_];
            gateOf(sh).enter();
            ++end_;
            return sh;
        }

        unsigned end() const { return end_; }

        GateRun(const GateRun &) = delete;
        GateRun &operator=(const GateRun &) = delete;

      private:
        const Topology &t_;
        const unsigned first_;
        unsigned end_;
    };

    /**
     * Scan under an ordered placement: shard indices ascend with key
     * ranges, so walk shards left-to-right from the owner of @p start,
     * streaming callbacks straight out of each per-shard tree scan
     * (already in key order), and stop — without entering further
     * gates — once the limit is reached. Visited shards' gates stay
     * held until return (their values were delivered).
     *
     * Each shard's contribution is *clipped to the key range the
     * snapshot assigns it*: the per-shard scan starts no lower than the
     * shard's lower bound and stops (early-abort callback) at its upper
     * bound. While no migration is in flight the clip never fires —
     * every key in a shard's tree is in its range — but during one, a
     * moved key transiently exists in two trees (destination copies
     * under the old table, source leftovers under the new), and the
     * clip is what keeps the scan exactly-once: whichever snapshot this
     * scan pinned, each key is delivered only from the shard that owns
     * it under that snapshot.
     *
     * @p t is the snapshot the caller pinned (see TopoGuard): the pin
     * is what entitles this scan to keep using a snapshot a commit may
     * retire mid-scan — the commit's GC cannot delete the source
     * copies this snapshot still routes to, nor can a retiring shard
     * be destroyed, until the pin releases.
     */
    template <typename F>
    std::size_t
    scanOrdered(const Topology &t, std::string_view start,
                std::size_t limit, F &cb)
    {
        const auto *pl = static_cast<const RangePlacement *>(t.placement);
        GateRun gates(t, pl->shardOf(start));
        std::size_t n = 0;
        while (gates.end() < t.count() && n < limit) {
            const unsigned s = gates.end();
            Shard &sh = gates.extend();
            globalStats().add(Stat::kScanShardsEntered);
            if (trackHotness_)
                sh.hotness().record(0);
            const std::string_view lower = pl->lowerBoundOf(s);
            std::string_view upper;
            const bool hasUpper = pl->upperBoundOf(s, upper);
            const std::string_view from = start < lower ? lower : start;
            n += sh.tree().scan(
                from, limit - n, [&](std::string_view k, void *v) {
                    if (hasUpper && k >= upper)
                        return false; // next shard owns it: clip here
                    cb(k, v);
                    return true;
                });
        }
        return n;
    }

    /**
     * Scan under an unordered placement (hash): gather up to @p limit
     * hits from every shard, merge by key, deliver the first @p limit.
     * A shard that gathered nothing is released as soon as its gather
     * ends; a shard whose hits all fall past the merge window is
     * released after the sort, before the callbacks — in both cases
     * the merge can prove none of its values will be delivered.
     */
    template <typename F>
    std::size_t
    scanMerged(const Topology &t, std::string_view start, std::size_t limit,
               F &cb)
    {
        struct Hit
        {
            std::string key;
            void *val;
            unsigned shard;
        };
        std::vector<Hit> hits;
        GateHold gates(t.count());
        for (unsigned s = 0; s < t.count(); ++s) {
            gates.enter(s, gateOf(*t.shards[s]));
            globalStats().add(Stat::kScanShardsEntered);
            if (trackHotness_)
                t.shards[s]->hotness().record(0);
            const std::size_t before = hits.size();
            t.shards[s]->tree().scan(
                start, limit, [&hits, s](std::string_view k, void *v) {
                    hits.push_back({std::string(k), v, s});
                });
            if (hits.size() == before)
                gates.exit(s);
        }
        std::sort(hits.begin(), hits.end(),
                  [](const Hit &a, const Hit &b) { return a.key < b.key; });
        const std::size_t n = std::min(limit, hits.size());
        std::vector<bool> delivers(t.count(), false);
        for (std::size_t i = 0; i < n; ++i)
            delivers[hits[i].shard] = true;
        for (unsigned s = 0; s < t.count(); ++s)
            if (gates.held(s) && !delivers[s])
                gates.exit(s);
        for (std::size_t i = 0; i < n; ++i)
            cb(std::string_view(hits[i].key), hits[i].val);
        return n;
    }

    /** Per-thread scratch for batch grouping: reused across calls so
     *  the batched hot path allocates nothing after warm-up. */
    struct GroupScratch
    {
        std::vector<std::uint32_t> shardOfPos;
        std::vector<std::uint32_t> counts;
        std::vector<std::uint32_t> sorted;
        std::vector<std::uint32_t> cursor;
    };

    static GroupScratch &
    groupScratch()
    {
        thread_local GroupScratch scratch;
        return scratch;
    }

    /**
     * Group batch positions [0, n) by owning shard under snapshot @p t
     * and invoke @p group(shardIdx, positions) once per touched shard,
     * in shard order. @p keyAt maps a position to its key. Single-shard
     * snapshots skip the grouping entirely.
     */
    template <typename KeyAt, typename Group>
    void
    forEachShardGroup(const Topology &t, std::size_t n, KeyAt &&keyAt,
                      Group &&group)
    {
        if (n == 0)
            return;
        GroupScratch &scratch = groupScratch();
        if (t.count() == 1) {
            auto &idx = scratch.sorted;
            idx.resize(n);
            for (std::size_t i = 0; i < n; ++i)
                idx[i] = static_cast<std::uint32_t>(i);
            group(0u, std::span<const std::uint32_t>(idx.data(), n));
            return;
        }
        // Counting sort of positions by shard: one pass to size the
        // buckets, one to fill — no per-shard vectors, no comparisons.
        auto &shardOfPos = scratch.shardOfPos;
        auto &counts = scratch.counts;
        auto &sorted = scratch.sorted;
        auto &cursor = scratch.cursor;
        shardOfPos.resize(n);
        counts.assign(t.count() + 1, 0);
        // Hotness is NOT recorded here: the grouped fast paths record
        // one batch per shard, and the migration fallback paths go
        // through the per-op get()/put(), which record themselves —
        // recording at grouping time too would double-count fallback
        // groups and make a freshly split shard look spuriously hot.
        for (std::size_t i = 0; i < n; ++i) {
            shardOfPos[i] = t.route(keyAt(i));
            ++counts[shardOfPos[i] + 1];
        }
        for (std::size_t s = 1; s <= t.count(); ++s)
            counts[s] += counts[s - 1];
        sorted.resize(n);
        cursor.assign(counts.begin(), counts.end() - 1);
        for (std::size_t i = 0; i < n; ++i)
            sorted[cursor[shardOfPos[i]]++] = static_cast<std::uint32_t>(i);
        for (unsigned s = 0; s < t.count(); ++s) {
            const std::uint32_t begin = counts[s], end = counts[s + 1];
            if (begin == end)
                continue;
            group(s, std::span<const std::uint32_t>(sorted.data() + begin,
                                                    end - begin));
        }
    }

    /**
     * Apply write backpressure for @p shardIdx. Skipped when the calling
     * thread already holds the shard's gate: the hook may block on an
     * epoch advance, and an advance cannot run while we hold the gate.
     */
    void
    throttleWrites(unsigned shardIdx, const EpochGate &gate)
    {
        if (writeThrottle_ && !gate.heldByThisThread())
            writeThrottle_(shardIdx);
    }

    /** Keep @p placement alive for the store's lifetime (readers
     *  holding a snapshot that references it stay valid). */
    Placement *adoptPlacement(std::unique_ptr<Placement> placement);

    /** Publish @p next as the current snapshot and, when @p version is
     *  non-zero, bump the placement version to it. Retired snapshots
     *  are kept alive in topologyHistory_; the next drainRetiredPins
     *  waits out their readers. */
    Topology *adoptTopology(std::unique_ptr<Topology> next,
                            std::uint64_t version);

    /** Register @p shard in the owned set; returns its raw pointer. */
    Shard *adoptShard(std::unique_ptr<Shard> shard, bool routed);

    /**
     * The current snapshot plus every retired one — retired snapshots
     * stay allocated so an operation that loaded the pointer just
     * before a swap finishes safely. Bounded by the number of
     * committed transitions.
     */
    std::atomic<Topology *> topology_{nullptr};
    std::vector<std::unique_ptr<Topology>> topologyHistory_;
    /**
     * The RCU table epoch's reader pins: two sets of per-thread-slot
     * pins, each on its thread slot's own line (8 KiB per store,
     * however many snapshots retire). Every grace drain flips between
     * the sets; swaps and drains both run under moveMu_.
     */
    mutable GracePins topoPins_;
    /** A snapshot retired since the last grace drain (under moveMu_):
     *  with none, every pin routes by the current snapshot and a drain
     *  has nothing to wait for. */
    bool undrainedRetire_ = false;
    std::vector<std::unique_ptr<Placement>> placementHistory_;
    mutable std::mutex placementMu_; ///< guards the history vectors
    std::atomic<std::uint64_t> placementVersion_{0};

    /**
     * Every shard this store owns: the topology members plus unrouted
     * shards awaiting retirement. ownedMu_ serializes registry changes
     * (add, retire) against the late-free fallback that searches
     * unrouted pools — the one reader path that may touch a shard no
     * snapshot references.
     */
    std::vector<OwnedShard> owned_;
    mutable std::mutex ownedMu_;

    /** True only for stores that can migrate or change topology;
     *  everything else skips every migration check. */
    bool migrationPossible_ = false;
    std::atomic<MigrationWindow *> migration_{nullptr};
    std::vector<std::unique_ptr<MigrationWindow>> migrationHistory_;
    std::mutex moveMu_; ///< one move/merge/add/retire at a time
    /** Sequence number of the last manifest written (under moveMu_,
     *  or during construction/recovery). */
    std::uint64_t manifestSeq_ = 0;

    bool trackHotness_ = false;
    /** config.recordOpLatency: per-op store_*_ns histogram recording. */
    bool recordOpLatency_ = false;
    RecoveryInfo recoveryInfo_;

    // What addShard needs to build a member like the existing ones.
    std::size_t poolBytes_ = 0;
    nvm::Mode mode_ = nvm::Mode::kDirect;
    std::uint64_t seed_ = 1;
    StoreConfig config_;

    std::function<void(unsigned)> writeThrottle_;
};

} // namespace incll::store
