/**
 * @file
 * Elastic topology transitions: mergeBoundary (collapse a boundary,
 * drop the emptied member), addShard (grow the member set with a fresh
 * Shard and split a range into it), retireShard (destroy a drained,
 * unrouted shard). All three build on the migration machinery in
 * src/store/migration.cc — the same window/copy/dual-write protocol —
 * and commit with one versioned TopologyRecord flushed to every pool of
 * the NEW member set (the first flush is the commit point; recovery
 * takes the globally highest version, so a crash at any phase yields
 * byte-exact old-or-new topology, never a mix).
 *
 * Crash-point summary (the matrix test_topology drives):
 *
 *   merge  before commit: old members recover; dst's partial copies are
 *          swept via the still-present intent. at/after commit: new
 *          members recover; src's pool is outside the membership and is
 *          discarded wholesale (no per-key GC ever runs for a merge).
 *   add    before commit: old members recover; the half-filled new pool
 *          has a PoolIdRecord but no membership — discarded wholesale.
 *          at/after commit: new members recover; src's leftover tail is
 *          swept via the intent.
 *   retire no durable write at all — the shard left the durable
 *          membership at its merge commit, so a crash anywhere around
 *          retirement recovers the same topology and re-discards the
 *          orphan pool. Retirement is idempotent in-memory teardown.
 */
#include "store/sharded_store.h"

#include <cstring>

namespace incll::store {

void
ShardedStore::ensureTopologyGoverned()
{
    // Caller holds moveMu_: the member set cannot change underneath.
    if (topologyGoverned_.load(std::memory_order_acquire))
        return;
    const Topology *t = topology_.load(std::memory_order_acquire);
    if (!t->placement->ordered())
        throw std::invalid_argument(
            "topology transitions require range placement");
    if (t->count() > TopologyRecord::kMaxMembers)
        throw std::invalid_argument(
            "store exceeds the elastic membership cap");
    // Upgrade a recovered legacy range store in place: persist each
    // member's identity (ids == legacy positions, assigned at
    // recovery), then the membership itself, at the current placement
    // version so later commits version strictly above every record the
    // legacy image already carries. A crash mid-upgrade is benign:
    // recovery treats a partial id/record set exactly like the legacy
    // image (any flushed TopologyRecord names all members, and ids
    // match positions).
    TopologyRecord rec{};
    rec.version = placementVersion_.load(std::memory_order_acquire);
    rec.memberCount = t->count();
    rec.nextPoolId = t->nextPoolId;
    rec.affectedPoolId = TopologyRecord::kNoAffected;
    rec.affectedLowerLen = 0;
    for (unsigned i = 0; i < t->count(); ++i)
        rec.memberIds[i] = t->shards[i]->poolId();
    for (Shard *s : t->shards)
        writePoolIdRecord(s->pool(), s->poolId());
    for (Shard *s : t->shards)
        writeTopologyRecord(s->pool(), rec);
    topologyGoverned_.store(true, std::memory_order_release);
}

void
ShardedStore::commitTopologyRecord(const Topology &next,
                                   std::uint64_t version,
                                   std::uint32_t affectedPoolId,
                                   std::string_view affectedLower)
{
    TopologyRecord rec{};
    rec.version = version;
    rec.memberCount = next.count();
    rec.nextPoolId = next.nextPoolId;
    rec.affectedPoolId = affectedPoolId;
    rec.affectedLowerLen = static_cast<std::uint32_t>(affectedLower.size());
    if (!affectedLower.empty()) // an empty view's data() may be null
        std::memcpy(rec.affectedLower, affectedLower.data(),
                    affectedLower.size());
    for (unsigned i = 0; i < next.count(); ++i)
        rec.memberIds[i] = next.shards[i]->poolId();
    // Every pool of the NEW member set carries the record: the first
    // flush is the commit point, and no retiring pool is ever the sole
    // carrier of the latest membership.
    for (Shard *s : next.shards)
        writeTopologyRecord(s->pool(), rec);
    // Re-persist the changed bound as the affected pool's own
    // BoundaryRecord so it survives the topology slots' two-slot
    // rotation aging this record out. Recovery is correct either way
    // (the bound rides inline in the winning record); this only keeps
    // the *next* transition from orphaning it.
    if (affectedPoolId != TopologyRecord::kNoAffected) {
        for (Shard *s : next.shards)
            if (s->poolId() == affectedPoolId) {
                writeBoundaryRecord(s->pool(), version, affectedLower);
                break;
            }
    }
}

MoveResult
ShardedStore::mergeBoundary(unsigned src, unsigned dst,
                            const MoveOptions &opts)
{
    if (!migrationPossible_)
        throw std::invalid_argument(
            "mergeBoundary requires a multi-shard range-placed store");
    std::unique_lock moveLk(moveMu_, std::try_to_lock);
    if (!moveLk.owns_lock() ||
        migration_.load(std::memory_order_acquire) != nullptr)
        throw std::runtime_error("another migration is in flight");
    ensureTopologyGoverned();

    const Topology *cur = topology_.load(std::memory_order_acquire);
    const unsigned n = cur->count();
    if (src >= n || dst >= n || (src + 1 != dst && dst + 1 != src))
        throw std::invalid_argument(
            "mergeBoundary source and destination must be adjacent shards");

    const auto *rp = static_cast<const RangePlacement *>(cur->placement);
    Shard *srcSh = cur->shards[src];
    Shard *dstSh = cur->shards[dst];
    // The moving interval is src's WHOLE range; hi empty = unbounded
    // above (src was the last member).
    MigrationIntent intent;
    intent.version = placementVersion_.load(std::memory_order_acquire) + 1;
    intent.src = srcSh->poolId();
    intent.dst = dstSh->poolId();
    intent.valueBytes = static_cast<std::uint32_t>(opts.valueBytes);
    intent.lo = std::string(rp->lowerBoundOf(src));
    std::string_view srcUpper;
    if (rp->upperBoundOf(src, srcUpper))
        intent.hi = std::string(srcUpper);
    // The collapsed boundary changes at most one surviving bound: a
    // rightward merge (dst == src+1) lowers dst's lower bound to src's;
    // a leftward merge leaves dst's lower bound alone. And a bound of
    // "" is position 0's implicit edge — nothing to record.
    const bool affectsDst = dst == src + 1 && !intent.lo.empty();
    const std::uint32_t affectedPoolId =
        affectsDst ? dstSh->poolId() : TopologyRecord::kNoAffected;

    MoveResult res;
    res.version = intent.version;
    auto gateOk = [&opts](MovePhase p) {
        return !opts.phaseGate || opts.phaseGate(p);
    };
    auto advance = [&](unsigned pos) {
        if (opts.advanceShard)
            opts.advanceShard(pos);
        else
            cur->shards[pos]->tree().advanceEpoch();
    };

    // ---- kPrepare ----------------------------------------------------
    if (!gateOk(MovePhase::kPrepare))
        return res;
    writeMigrationIntent(dstSh->pool(), intent);
    writeMigrationIntent(srcSh->pool(), intent);
    MigrationWindow *w = publishWindow(srcSh, dstSh, intent, opts.valueBytes);
    w->phase.store(static_cast<int>(MovePhase::kCopy),
                   std::memory_order_release);
    res.reached = MovePhase::kCopy;

    // ---- kCopy -------------------------------------------------------
    if (!copyInterval(intent, *srcSh, *dstSh, *w, opts, res))
        return res;

    // ---- kCommit -----------------------------------------------------
    if (!gateOk(MovePhase::kCommit))
        return res;
    res.reached = MovePhase::kCommit;
    {
        std::lock_guard lk(w->mu);
        w->phase.store(static_cast<int>(MovePhase::kCommit),
                       std::memory_order_release);
        const auto t0 = std::chrono::steady_clock::now();
        // Copies + mirrors durable in the destination first...
        advance(dst);
        // ...then the new member set: boundaries minus the collapsed
        // one, shards minus src.
        auto boundaries = rp->boundaries();
        boundaries.erase(boundaries.begin() + std::min(src, dst));
        Placement *pl = adoptPlacement(std::make_unique<RangePlacement>(
            n - 1, std::move(boundaries)));
        auto next = std::make_unique<Topology>();
        next->placement = pl;
        next->shards = cur->shards;
        next->shards.erase(next->shards.begin() + src);
        next->nextPoolId = cur->nextPoolId;
        // THE commit: the first of these flushes decides.
        commitTopologyRecord(*next, intent.version, affectedPoolId,
                             affectsDst ? intent.lo : std::string_view{});
        adoptTopology(std::move(next), intent.version);
        {
            std::lock_guard ol(ownedMu_);
            for (OwnedShard &o : owned_)
                if (o.shard.get() == srcSh)
                    o.routed = false;
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
    // No per-key GC for a merge: the emptied source leaves the routing
    // topology wholesale and its pool dies at retireShard() (or is
    // discarded as an orphan by recovery). The phase only waits out
    // readers still routing by a retired snapshot, then drops the
    // intents — after which recovery no longer knows (or needs to know)
    // a merge happened here.
    if (!gateOk(MovePhase::kGc))
        return res;
    res.reached = MovePhase::kGc;
    res.graceNs = drainRetiredPins(intent.version);
    globalStats().addShard(Stat::kRebalanceGraceNs, srcSh->poolId(),
                           res.graceNs);
    obs::recordNs(obs::Hist::kMigrationGraceNs, res.graceNs);
    clearMigrationIntent(srcSh->pool());
    clearMigrationIntent(dstSh->pool());

    retireWindow(*w);
    res.reached = MovePhase::kDone;
    res.completed = true;
    globalStats().addShard(Stat::kTopologyMerges, srcSh->poolId());
    globalStats().addShard(Stat::kRebalanceKeysMoved, srcSh->poolId(),
                           res.keysMoved);
    globalStats().addShard(Stat::kRebalanceBytesMoved, srcSh->poolId(),
                           res.bytesMoved);
    return res;
}

MoveResult
ShardedStore::addShard(unsigned src, std::string_view splitKey,
                       const MoveOptions &opts)
{
    if (!migrationPossible_)
        throw std::invalid_argument(
            "addShard requires a range-placed elastic store");
    std::unique_lock moveLk(moveMu_, std::try_to_lock);
    if (!moveLk.owns_lock() ||
        migration_.load(std::memory_order_acquire) != nullptr)
        throw std::runtime_error("another migration is in flight");
    ensureTopologyGoverned();

    const Topology *cur = topology_.load(std::memory_order_acquire);
    const unsigned n = cur->count();
    if (src >= n)
        throw std::invalid_argument("addShard source out of range");
    if (n + 1 > TopologyRecord::kMaxMembers)
        throw std::invalid_argument(
            "store is at the elastic membership cap");
    if (splitKey.empty() ||
        splitKey.size() > PlacementRecord::kMaxBoundaryBytes)
        throw std::invalid_argument(
            "split key must be non-empty and persistable");
    const auto *rp = static_cast<const RangePlacement *>(cur->placement);
    const std::string_view lower = rp->lowerBoundOf(src);
    std::string_view upper;
    const bool hasUpper = rp->upperBoundOf(src, upper);
    if (splitKey <= lower || (hasUpper && splitKey >= upper))
        throw std::invalid_argument(
            "split key must lie strictly inside the source shard's range");

    Shard *srcSh = cur->shards[src];
    MoveResult res;
    auto gateOk = [&opts](MovePhase p) {
        return !opts.phaseGate || opts.phaseGate(p);
    };
    auto advance = [&](unsigned pos) {
        if (opts.advanceShard)
            opts.advanceShard(pos);
        else
            cur->shards[pos]->tree().advanceEpoch();
    };

    // ---- kPrepare ----------------------------------------------------
    if (!gateOk(MovePhase::kPrepare))
        return res;
    // The full Shard lifecycle: fresh pool, epoch manager, external
    // log, durable allocator, tree. Identity flushed before the shard
    // can be named by any record; unrouted (and absent from every
    // TopologyRecord) until the commit, so a crash from here until
    // then discards the pool wholesale.
    const std::uint32_t newId = cur->nextPoolId;
    auto fresh = std::make_unique<Shard>(poolBytes_, mode_, seed_ + newId,
                                         config_);
    fresh->setPoolId(newId);
    fresh->tree().epochs().setStatShard(static_cast<int>(newId));
    writePoolIdRecord(fresh->pool(), newId);
    Shard *newSh = adoptShard(std::move(fresh), /*routed=*/false);

    MigrationIntent intent;
    intent.version = placementVersion_.load(std::memory_order_acquire) + 1;
    intent.src = srcSh->poolId();
    intent.dst = newId;
    intent.valueBytes = static_cast<std::uint32_t>(opts.valueBytes);
    intent.lo = std::string(splitKey);
    if (hasUpper)
        intent.hi = std::string(upper);
    res.version = intent.version;
    writeMigrationIntent(newSh->pool(), intent);
    writeMigrationIntent(srcSh->pool(), intent);
    MigrationWindow *w =
        publishWindow(srcSh, newSh, intent, opts.valueBytes);
    w->phase.store(static_cast<int>(MovePhase::kCopy),
                   std::memory_order_release);
    res.reached = MovePhase::kCopy;

    // ---- kCopy -------------------------------------------------------
    if (!copyInterval(intent, *srcSh, *newSh, *w, opts, res))
        return res;

    // ---- kCommit -----------------------------------------------------
    if (!gateOk(MovePhase::kCommit))
        return res;
    res.reached = MovePhase::kCommit;
    {
        std::lock_guard lk(w->mu);
        w->phase.store(static_cast<int>(MovePhase::kCommit),
                       std::memory_order_release);
        const auto t0 = std::chrono::steady_clock::now();
        // The brand-new destination is advanced inline: it has no
        // position until the commit lands, so no service can be routed
        // to it yet.
        newSh->tree().advanceEpoch();
        auto boundaries = rp->boundaries();
        boundaries.insert(boundaries.begin() + src, std::string(splitKey));
        Placement *pl = adoptPlacement(std::make_unique<RangePlacement>(
            n + 1, std::move(boundaries)));
        auto next = std::make_unique<Topology>();
        next->placement = pl;
        next->shards = cur->shards;
        next->shards.insert(next->shards.begin() + src + 1, newSh);
        next->nextPoolId = newId + 1;
        commitTopologyRecord(*next, intent.version, newId, splitKey);
        adoptTopology(std::move(next), intent.version);
        {
            std::lock_guard ol(ownedMu_);
            for (OwnedShard &o : owned_)
                if (o.shard.get() == newSh)
                    o.routed = true;
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
        return res;
    res.reached = MovePhase::kGc;
    res.graceNs = drainRetiredPins(intent.version);
    globalStats().addShard(Stat::kRebalanceGraceNs, srcSh->poolId(),
                           res.graceNs);
    obs::recordNs(obs::Hist::kMigrationGraceNs, res.graceNs);
    gateOf(*srcSh).lockExclusive();
    gateOf(*srcSh).unlockExclusive();
    gcSourceRange(*w, opts);
    advance(src); // src keeps position src in the grown set
    clearMigrationIntent(srcSh->pool());
    clearMigrationIntent(newSh->pool());

    retireWindow(*w);
    res.reached = MovePhase::kDone;
    res.completed = true;
    globalStats().addShard(Stat::kTopologyAdds, newId);
    globalStats().addShard(Stat::kRebalanceKeysMoved, srcSh->poolId(),
                           res.keysMoved);
    globalStats().addShard(Stat::kRebalanceBytesMoved, srcSh->poolId(),
                           res.bytesMoved);
    return res;
}

RetireResult
ShardedStore::retireShard(std::uint32_t poolId)
{
    std::unique_lock moveLk(moveMu_, std::try_to_lock);
    if (!moveLk.owns_lock() ||
        migration_.load(std::memory_order_acquire) != nullptr)
        throw std::runtime_error("another migration is in flight");

    RetireResult res;
    Shard *victim = nullptr;
    {
        std::lock_guard lk(ownedMu_);
        for (OwnedShard &o : owned_) {
            if (o.shard->poolId() != poolId)
                continue;
            if (o.routed)
                throw std::invalid_argument(
                    "cannot retire a shard the topology still routes to");
            victim = o.shard.get();
            break;
        }
    }
    if (victim == nullptr)
        return res; // unknown id: already retired (idempotent) or bogus
    // moveMu_ is held and the shard is unrouted, so nothing can route
    // NEW references to it; the only live paths that may still touch it
    // are readers pinning a retired routing snapshot (the current
    // snapshot never references an unrouted shard). Wait those out —
    // the table-epoch grace period — and the shard is unreachable.
    res.graceNs = drainRetiredPins(
        placementVersion_.load(std::memory_order_acquire));
    // In-flight timer boundaries complete before stopTimer returns, so
    // destruction below never races an advance.
    victim->tree().epochs().stopTimer();
    std::unique_ptr<Shard> dead;
    {
        std::lock_guard lk(ownedMu_);
        for (auto it = owned_.begin(); it != owned_.end(); ++it) {
            if (it->shard.get() != victim)
                continue;
            dead = std::move(it->shard);
            owned_.erase(it);
            break;
        }
    }
    // Destroyed outside ownedMu_ (teardown flushes and frees a whole
    // pool): tree torn down first, then the Pool — whose destructor
    // unregisters it from the tracked-pool registry.
    dead.reset();
    globalStats().addShard(Stat::kTopologyRetires, poolId);
    res.retired = true;
    return res;
}

} // namespace incll::store
