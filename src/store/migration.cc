/**
 * @file
 * The transition engine (ShardedStore::applyTransition) and its parts:
 * the manifest writes, the window publish, the interval copy, the
 * dual-write paths, the table-epoch grace drain, the source GC and the
 * recovery-side orphan sweep. moveBoundary, mergeBoundary and addShard
 * (src/store/topology.cc) only validate and plan; every one of them
 * reaches the protocol through applyTransition.
 *
 * State machine (MovePhase; the durable commit point is marked *):
 *
 *   kPrepare   (addShard: create the fresh destination shard), write
 *              manifest {old table, intent} to every owned pool,
 *              publish the in-memory window, quiesce both gates so
 *              every subsequent op observes it
 *   kCopy      stream [lo, hi) from source to destination in chunks;
 *              concurrent writers into the interval dual-apply (source
 *              authoritative, destination mirrored) under the window
 *              mutex, so the copy can never lose an update
 *   kCommit    pause interval writers (window mutex): destination
 *              epoch advance, manifest {new table, intent} (*),
 *              snapshot swap
 *   kGc        old snapshot retired; once every reader pinning a
 *              retired snapshot releases (the table-epoch grace
 *              period) the source-side copies are deleted and their
 *              value buffers freed (unless the source leaves the
 *              topology whole), source epoch advance, then manifest
 *              {new table, no intent}; lookups that miss dual-route to
 *              the peer
 *   kDone      transition complete, window retired
 *
 * Crash at any point recovers to exactly one side of (*): recovery takes
 * the highest-sequence manifest, so the first completed commit write
 * decides, and whichever tree still holds keys outside its recovered
 * range — the destination before (*), the source after — is swept by
 * sweepOutOfRangeKeys() during recovery construction; pools outside the
 * recovered member set are discarded whole.
 */
#include "store/sharded_store.h"

#include <algorithm>
#include <cstdio>

#include "common/compiler.h"

namespace incll::store {

namespace {

constexpr std::size_t kDefaultChunk = 256;

std::size_t
chunkSize(const MoveOptions &opts)
{
    return opts.chunkKeys > 0 ? opts.chunkKeys : kDefaultChunk;
}

/**
 * Visit the keys of @p tree in [lo, hi) (hi empty = +infinity) in
 * chunks of at most @p chunk, each collected by a bounded scan and
 * handed to @p apply, which may copy or remove them (no scan position
 * is held across chunks). Every scan's result reaches @p apply, the
 * last one possibly empty, so @p apply runs at least once. @p apply
 * returning false stops the walk; returns false iff it did.
 */
template <typename Apply>
bool
forEachChunk(mt::DurableMasstree &tree, std::string_view lo,
             std::string_view hi, std::size_t chunk, Apply &&apply)
{
    std::string cursor(lo);
    std::vector<std::string> keys;
    for (;;) {
        keys.clear();
        tree.scan(cursor, chunk, [&](std::string_view k, void *) {
            if (!hi.empty() && k >= hi)
                return false;
            keys.emplace_back(k);
            return true;
        });
        if (!apply(keys))
            return false;
        if (keys.size() < chunk)
            return true; // the scan reached hi or the end of the tree
        cursor = std::move(keys.back());
        cursor.push_back('\0');
    }
}

} // namespace

void
ShardedStore::freeValueInOwningPool(void *p, std::size_t bytes)
{
    if (p == nullptr)
        return;
    {
        // Fast path: the pool is a current member's — no lock needed,
        // the pin keeps every member alive.
        TopoGuard pin(*this);
        for (Shard *s : pin.topo().shards) {
            if (s->pool().contains(p)) {
                s->tree().freeValue(p, bytes);
                return;
            }
        }
    }
    // Slow path: an unrouted shard's pool (merged out, awaiting
    // retirement — a racing writer's buffer can land there) or a
    // mid-add destination not yet routed. The free runs UNDER the
    // ownership lock so retireShard's erase-and-destroy cannot pull
    // the shard out from between the contains() check and the free.
    {
        std::lock_guard lk(ownedMu_);
        for (OwnedShard &o : owned_) {
            if (o.shard->pool().contains(p)) {
                o.shard->tree().freeValue(p, bytes);
                return;
            }
        }
    }
    // Not pool memory (an opaque tag value): nothing to free.
}

// The migration slow paths below are called with the caller's TopoGuard
// pin still held (put()/get()/remove() keep theirs across the call) —
// that pin is what keeps every shard reached here alive: a retireShard
// cannot complete while any retired snapshot is pinned, and a window
// being active blocks it outright.

bool
ShardedStore::migrationPut(std::string_view key, void *val, void **oldOut)
{
    MigrationWindow *w = migration_.load(std::memory_order_acquire);
    if (w == nullptr || !keyInWindow(*w, key))
        return currentShardOf(key)->tree().put(key, val, oldOut);
    std::lock_guard lk(w->mu);
    const auto phase =
        static_cast<MovePhase>(w->phase.load(std::memory_order_acquire));
    if (phase == MovePhase::kGc || phase == MovePhase::kDone) {
        // Snapshot already swapped: the destination owns the key. A
        // value buffer allocated before the swap may live in the old
        // owner's pool — re-home it, or the destination tree would
        // reference memory another shard's crash rollback can tear.
        Shard *sh = currentShardOf(key);
        if (w->valueBytes > 0 && val != nullptr &&
            !sh->pool().contains(val)) {
            void *homed = sh->tree().allocValue(w->valueBytes);
            nvm::pmemcpy(homed, val, w->valueBytes);
            freeValueInOwningPool(val, w->valueBytes);
            val = homed;
        }
        return sh->tree().put(key, val, oldOut);
    }
    // kPrepare/kCopy (kCommit is unobservable — the mover holds the
    // mutex throughout): the source stays authoritative, and the write
    // is mirrored into the destination so a chunk the copy stream has
    // already passed still ends up current at commit time.
    auto &srcTree = w->srcShard->tree();
    auto &dstTree = w->dstShard->tree();
    if (w->valueBytes > 0 && val != nullptr &&
        !w->srcShard->pool().contains(val)) {
        void *homed = srcTree.allocValue(w->valueBytes);
        nvm::pmemcpy(homed, val, w->valueBytes);
        freeValueInOwningPool(val, w->valueBytes);
        val = homed;
    }
    const bool inserted = srcTree.put(key, val, oldOut);
    void *dstVal = val;
    if (w->valueBytes > 0) {
        dstVal = dstTree.allocValue(w->valueBytes);
        nvm::pmemcpy(dstVal, val, w->valueBytes);
    }
    void *replaced = nullptr;
    dstTree.put(key, dstVal, &replaced);
    if (w->valueBytes > 0 && replaced != nullptr)
        freeValueInOwningPool(replaced, w->valueBytes);
    return inserted;
}

bool
ShardedStore::migrationRemove(std::string_view key, void **oldOut)
{
    MigrationWindow *w = migration_.load(std::memory_order_acquire);
    if (w == nullptr || !keyInWindow(*w, key))
        return currentShardOf(key)->tree().remove(key, oldOut);
    std::lock_guard lk(w->mu);
    const auto phase =
        static_cast<MovePhase>(w->phase.load(std::memory_order_acquire));
    if (phase == MovePhase::kGc || phase == MovePhase::kDone) {
        // Snapshot already swapped: remove the source's not-yet-GC'd
        // copy too, or get()'s dual-route fallback would resurrect the
        // key from the leftover (and the later GC would free a buffer
        // a resurrected read may hold). Leftover first: a reader that
        // misses the new owner then provably misses the leftover as
        // well, so no reader is ever served the buffer freed here.
        void *leftover = nullptr;
        if (w->srcShard->tree().remove(key, &leftover) &&
            w->valueBytes > 0)
            freeValueInOwningPool(leftover, w->valueBytes);
        return currentShardOf(key)->tree().remove(key, oldOut);
    }
    // Dual-remove, destination mirror FIRST: a racing get() that
    // misses in the source falls back to the destination, and must
    // never be served the mirror we are about to free — the mirror's
    // buffer lives on the destination's epoch clock (recyclable at its
    // commit-time advance), not on the clock of the shard the reader's
    // contract names. Removing the mirror first means the fallback
    // either sees the source copy (still present, source lifetime) or
    // a clean miss. The caller owns the source's old value (reported
    // via oldOut, freed through freeValueFor as usual); the mirror is
    // the protocol's own copy, freed here.
    void *mirror = nullptr;
    if (w->dstShard->tree().remove(key, &mirror) && w->valueBytes > 0)
        freeValueInOwningPool(mirror, w->valueBytes);
    return w->srcShard->tree().remove(key, oldOut);
}

void
ShardedStore::writeManifests(const Topology &t, std::uint64_t version,
                             const MigrationIntent *intent)
{
    Manifest m;
    m.seq = ++manifestSeq_;
    m.version = version;
    m.nextPoolId = t.nextPoolId;
    m.boundaries =
        static_cast<const RangePlacement *>(t.placement)->boundaries();
    for (const Shard *s : t.shards)
        m.members.push_back(s->poolId());
    if (intent != nullptr)
        m.intent = *intent;
    // Every pool the store owns carries the manifest, members of @p t
    // first: a pool leaving the topology is never the only carrier of
    // the newest one. The caller holds moveMu_, so the owned set cannot
    // shrink underneath (only retireShard removes, under moveMu_).
    std::vector<Shard *> pools = t.shards;
    {
        std::lock_guard lk(ownedMu_);
        for (const OwnedShard &o : owned_)
            if (std::find(pools.begin(), pools.end(), o.shard.get()) ==
                pools.end())
                pools.push_back(o.shard.get());
    }
    for (Shard *s : pools) {
        m.poolId = s->poolId();
        writeManifest(s->pool(), m);
    }
}

ShardedStore::MigrationWindow *
ShardedStore::publishWindow(Shard *src, Shard *dst,
                            const MigrationIntent &intent)
{
    auto owned = std::make_unique<MigrationWindow>();
    MigrationWindow *w = owned.get();
    w->srcShard = src;
    w->dstShard = dst;
    w->lo = intent.lo;
    w->hi = intent.hi;
    w->valueBytes = intent.valueBytes;
    {
        std::lock_guard lk(placementMu_);
        migrationHistory_.push_back(std::move(owned));
    }
    migration_.store(w, std::memory_order_release);
    // Quiesce both gates: operations check the window from inside their
    // shard's gate, so once these exclusive sections drain, every op
    // that routed before the publish has completed (its writes are
    // ahead of the copy stream) and every later op sees the window.
    for (Shard *s : {src, dst}) {
        gateOf(*s).lockExclusive();
        gateOf(*s).unlockExclusive();
    }
    return w;
}

std::uint64_t
ShardedStore::drainRetiredPins(std::uint64_t version)
{
    // Grace period of the RCU table epoch: every reader routing by a
    // retired snapshot pinned topoPins_ before loading it (TopoGuard),
    // and such a reader may not have reached the shard its snapshot
    // routes a moved key to — GC'ing (or destroying a shard) now would
    // make present keys vanish from its view, or worse. Wait for every
    // pin taken before now; readers that pin later load the current
    // snapshot, which never depends on what the caller is about to
    // destroy. Readers never wait on the caller, so the drain cannot
    // deadlock; it can only wait out real scans. With no snapshot
    // retired since the last drain, every pin routes by the current
    // snapshot, and waiting would only stall behind live readers.
    if (!undrainedRetire_)
        return 0;
    // The wait is unbounded by design (GC under a live pin is a
    // use-after-free), but a wedged scan must be diagnosable, not a
    // silent hang: the elapsed wait lands in rebalance_grace_ns and a
    // pathological stall is reported to stderr periodically.
    constexpr auto kGraceWarnEvery = std::chrono::seconds(5);
    const auto g0 = std::chrono::steady_clock::now();
    auto nextWarn = g0 + kGraceWarnEvery;
    Backoff backoff;
    unsigned iter = 0;
    topoPins_.synchronize([&] {
        backoff.pause();
        if ((++iter & 0x3FF) != 0)
            return; // amortize the clock read over the spin
        const auto now = std::chrono::steady_clock::now();
        if (now < nextWarn)
            return;
        std::fprintf(
            stderr,
            "incll: table-epoch grace wait: %llu pin(s) still hold a "
            "retired routing snapshot after %lld s (a parked scan is "
            "stalling transition v%llu)\n",
            static_cast<unsigned long long>(topoPins_.draining()),
            static_cast<long long>(
                std::chrono::duration_cast<std::chrono::seconds>(now - g0)
                    .count()),
            static_cast<unsigned long long>(version));
        nextWarn = now + kGraceWarnEvery;
    });
    undrainedRetire_ = false;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - g0)
            .count());
}

bool
ShardedStore::copyInterval(const MigrationIntent &intent, Shard &src,
                           Shard &dst, MigrationWindow &w,
                           const MoveOptions &opts, MoveResult &res)
{
    auto &srcTree = src.tree();
    auto &dstTree = dst.tree();
    return forEachChunk(
        srcTree, intent.lo, intent.hi, chunkSize(opts),
        [&](const std::vector<std::string> &chunk) {
            if (opts.phaseGate && !opts.phaseGate(MovePhase::kCopy))
                return false; // crash model: abandoned mid-copy
            if (chunk.empty())
                return true;
            // Apply under the window mutex (serial with dual-writers)
            // and the source gate (value pointers stay dereferenceable:
            // a concurrent update's freed buffer cannot be recycled
            // before the source's next boundary, which the held gate
            // blocks).
            std::lock_guard lk(w.mu);
            EpochGate::Guard srcGate(gateOf(src));
            for (const std::string &key : chunk) {
                void *val = nullptr;
                if (!srcTree.get(key, val))
                    continue; // removed since the chunk was collected
                void *dstVal = val;
                if (opts.valueBytes > 0) {
                    dstVal = dstTree.allocValue(opts.valueBytes);
                    nvm::pmemcpy(dstVal, val, opts.valueBytes);
                }
                void *replaced = nullptr;
                dstTree.put(key, dstVal, &replaced);
                if (opts.valueBytes > 0 && replaced != nullptr)
                    freeValueInOwningPool(replaced, opts.valueBytes);
                ++res.keysMoved;
                res.bytesMoved += key.size() + opts.valueBytes;
            }
            return true;
        });
}

std::uint64_t
ShardedStore::eraseRange(Shard &sh, std::string_view lo, std::string_view hi,
                         std::size_t valueBytes)
{
    auto &tree = sh.tree();
    std::uint64_t erased = 0;
    forEachChunk(tree, lo, hi, kDefaultChunk,
                 [&](const std::vector<std::string> &keys) {
                     for (const std::string &key : keys) {
                         void *old = nullptr;
                         if (!tree.remove(key, &old))
                             continue;
                         ++erased;
                         if (valueBytes > 0)
                             freeValueInOwningPool(old, valueBytes);
                     }
                     return true;
                 });
    return erased;
}

std::uint64_t
ShardedStore::sweepOutOfRangeKeys(const MigrationIntent &pending)
{
    // Keys outside their tree's recovered range can only be the
    // interrupted transition's copies or leftovers — every earlier
    // transition swept its own before its intent was dropped — so all
    // lie in the intent's interval, and its value size frees them.
    const Topology *t = topology_.load(std::memory_order_acquire);
    const auto *rp = static_cast<const RangePlacement *>(t->placement);
    std::uint64_t swept = 0;
    for (unsigned s = 0; s < t->count(); ++s) {
        if (s > 0)
            swept += eraseRange(*t->shards[s], {}, rp->lowerBoundOf(s),
                                pending.valueBytes);
        std::string_view upper;
        if (rp->upperBoundOf(s, upper))
            swept += eraseRange(*t->shards[s], upper, {}, pending.valueBytes);
    }
    return swept;
}

MoveResult
ShardedStore::applyTransition(TransitionPlan plan, const MoveOptions &opts)
{
    // The caller holds moveMu_ (lockTransitions): the topology cannot
    // change underneath, so positions are stable for the whole run.
    const Topology *cur = topology_.load(std::memory_order_acquire);
    const std::uint64_t version =
        placementVersion_.load(std::memory_order_acquire);
    MigrationIntent intent;
    intent.version = version + 1;
    intent.valueBytes = static_cast<std::uint32_t>(opts.valueBytes);
    intent.lo = std::move(plan.lo);
    intent.hi = std::move(plan.hi);
    MoveResult res;
    res.version = intent.version;
    auto gateOk = [&opts](MovePhase p) {
        return !opts.phaseGate || opts.phaseGate(p);
    };
    auto advance = [&opts](unsigned pos, Shard &sh) {
        if (opts.advanceShard)
            opts.advanceShard(pos);
        else
            sh.tree().advanceEpoch();
    };

    // ---- kPrepare ----------------------------------------------------
    if (!gateOk(MovePhase::kPrepare))
        return res; // crash model: nothing durable, nothing published
    Shard *srcSh = cur->shards[plan.src];
    Shard *dstSh = plan.freshShard ? nullptr : cur->shards[plan.dst];
    if (plan.freshShard) {
        // The full Shard lifecycle: fresh pool, epoch manager, external
        // log, durable allocator, tree. Unrouted until the commit; the
        // prepare manifest below makes its id durable before any table
        // can name it, so a crash until then discards it as an orphan.
        const std::uint32_t id = cur->nextPoolId;
        auto fresh =
            std::make_unique<Shard>(poolBytes_, mode_, seed_ + id, config_);
        fresh->setPoolId(id);
        fresh->tree().epochs().setStatShard(static_cast<int>(id));
        dstSh = adoptShard(std::move(fresh), /*routed=*/false);
        std::replace(plan.nextShards.begin(), plan.nextShards.end(),
                     static_cast<Shard *>(nullptr), dstSh);
    }
    intent.src = srcSh->poolId();
    intent.dst = dstSh->poolId();
    // The durable intent precedes anything landing in the destination,
    // so recovery always knows the interval (and value size) of
    // whatever orphans it finds.
    writeManifests(*cur, version, &intent);
    MigrationWindow *w = publishWindow(srcSh, dstSh, intent);
    w->phase.store(static_cast<int>(MovePhase::kCopy),
                   std::memory_order_release);
    res.reached = MovePhase::kCopy;

    // ---- kCopy -------------------------------------------------------
    if (!copyInterval(intent, *srcSh, *dstSh, *w, opts, res))
        return res; // crash model: abandoned mid-copy

    // ---- kCommit -----------------------------------------------------
    if (!gateOk(MovePhase::kCommit))
        return res; // crash model: copied but never committed
    res.reached = MovePhase::kCommit;
    {
        std::lock_guard lk(w->mu);
        w->phase.store(static_cast<int>(MovePhase::kCommit),
                       std::memory_order_release);
        const auto t0 = std::chrono::steady_clock::now();
        // Every copy and mirror becomes durable before the manifest
        // names the destination as the owner. A fresh destination has
        // no position a service could advance, so it goes inline.
        if (plan.freshShard)
            dstSh->tree().advanceEpoch();
        else
            advance(plan.dst, *dstSh);
        auto next = std::make_unique<Topology>();
        next->placement = adoptPlacement(std::make_unique<RangePlacement>(
            static_cast<unsigned>(plan.nextShards.size()),
            std::move(plan.nextBoundaries)));
        next->shards = std::move(plan.nextShards);
        next->nextPoolId = std::max(cur->nextPoolId, dstSh->poolId() + 1);
        // THE commit: the first completed manifest write decides.
        writeManifests(*next, intent.version, &intent);
        const Topology *t = adoptTopology(std::move(next), intent.version);
        {
            std::lock_guard ol(ownedMu_);
            for (OwnedShard &o : owned_)
                o.routed = std::find(t->shards.begin(), t->shards.end(),
                                     o.shard.get()) != t->shards.end();
        }
        w->phase.store(static_cast<int>(MovePhase::kGc),
                       std::memory_order_release);
        res.pauseNs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    }
    globalStats().addShard(Stat::kRebalancePauseNs, srcSh->poolId(),
                           res.pauseNs);
    obs::recordNs(obs::Hist::kMigrationPauseNs, res.pauseNs);

    // ---- kGc ---------------------------------------------------------
    if (!gateOk(MovePhase::kGc))
        return res; // crash model: committed, source not yet swept
    res.reached = MovePhase::kGc;
    // Grace period before deleting anything (see drainRetiredPins):
    // scans that pinned the retired snapshot may still route the moved
    // keys to the source.
    res.graceNs = drainRetiredPins(intent.version);
    globalStats().addShard(Stat::kRebalanceGraceNs, srcSh->poolId(),
                           res.graceNs);
    obs::recordNs(obs::Hist::kMigrationGraceNs, res.graceNs);
    if (plan.gcSource) {
        // Then the source gate: any point op already inside it (which
        // routed before the swap) finishes before the first delete.
        gateOf(*srcSh).lockExclusive();
        gateOf(*srcSh).unlockExclusive();
        eraseRange(*srcSh, w->lo, w->hi, w->valueBytes);
        // Deletions + frees durable before the intent drops; the
        // source keeps its position in the next topology.
        advance(plan.src, *srcSh);
    }
    writeManifests(*topology_.load(std::memory_order_acquire),
                   intent.version, nullptr);

    w->phase.store(static_cast<int>(MovePhase::kDone),
                   std::memory_order_release);
    migration_.store(nullptr, std::memory_order_release);
    res.reached = MovePhase::kDone;
    res.completed = true;
    globalStats().addShard(plan.doneStat, plan.freshShard ? dstSh->poolId()
                                                          : srcSh->poolId());
    globalStats().addShard(Stat::kRebalanceKeysMoved, srcSh->poolId(),
                           res.keysMoved);
    globalStats().addShard(Stat::kRebalanceBytesMoved, srcSh->poolId(),
                           res.bytesMoved);
    return res;
}

} // namespace incll::store
