/**
 * @file
 * The three transitions as plans, and retirement. moveBoundary,
 * mergeBoundary and addShard validate their arguments and build a
 * TransitionPlan — the interval to copy, the topology the commit
 * installs, whether the destination is a fresh shard, whether the
 * source's copies are swept — for the one engine, applyTransition in
 * src/store/migration.cc. retireShard destroys a merged-out shard.
 *
 * Crash-point summary (the matrices test_rebalance and test_topology
 * drive; "commit" is the first completed commit-manifest write):
 *
 *   move   before commit: old table recovers; dst's partial copies are
 *          swept via the manifest's intent. after commit: new table;
 *          src's leftover interval is swept.
 *   merge  before commit: old members recover; dst's partial copies are
 *          swept. after commit: new members recover; src's pool is
 *          outside the membership and is discarded wholesale (no
 *          per-key GC ever runs for a merge).
 *   add    before commit: old members recover; the half-filled new pool
 *          carries a manifest with its id but no table names it —
 *          discarded wholesale. after commit: new members recover;
 *          src's leftover tail is swept.
 *   retire no durable write at all — the shard left the durable
 *          membership at its merge commit, so a crash anywhere around
 *          retirement recovers the same topology and re-discards the
 *          orphan pool. Retirement is idempotent in-memory teardown.
 */
#include "store/sharded_store.h"

namespace incll::store {

namespace {

/** Throw unless @p splitKey lies strictly inside [lower, upper) of
 *  position @p s and can be persisted as a boundary. */
void
checkSplitKey(const RangePlacement &rp, unsigned s, std::string_view splitKey)
{
    if (splitKey.empty() || splitKey.size() > Manifest::kMaxBoundaryBytes)
        throw std::invalid_argument(
            "split key must be non-empty and persistable");
    std::string_view upper;
    const bool hasUpper = rp.upperBoundOf(s, upper);
    if (splitKey <= rp.lowerBoundOf(s) || (hasUpper && splitKey >= upper))
        throw std::invalid_argument(
            "split key must lie strictly inside the source shard's range");
}

} // namespace

std::unique_lock<std::mutex>
ShardedStore::lockTransitions()
{
    std::unique_lock lk(moveMu_, std::try_to_lock);
    if (!lk.owns_lock() ||
        migration_.load(std::memory_order_acquire) != nullptr)
        throw std::runtime_error("another migration is in flight");
    return lk;
}

MoveResult
ShardedStore::moveBoundary(unsigned src, unsigned dst,
                           std::string_view splitKey,
                           const MoveOptions &opts)
{
    if (!migrationPossible_)
        throw std::invalid_argument(
            "moveBoundary requires a range-placed store");
    auto moveLk = lockTransitions();
    const Topology *cur = topology_.load(std::memory_order_acquire);
    const unsigned n = cur->count();
    if (src >= n || dst >= n || (src + 1 != dst && dst + 1 != src))
        throw std::invalid_argument(
            "moveBoundary source and destination must be adjacent shards");
    const auto &rp = static_cast<const RangePlacement &>(*cur->placement);
    checkSplitKey(rp, src, splitKey);

    TransitionPlan plan;
    plan.src = src;
    plan.dst = dst;
    if (dst == src + 1) {
        // The tail [splitKey, upper) moves right.
        plan.lo = std::string(splitKey);
        plan.hi = std::string(rp.boundaries()[src]);
    } else {
        // The head [lower, splitKey) moves left.
        plan.lo = std::string(rp.lowerBoundOf(src));
        plan.hi = std::string(splitKey);
    }
    // Same members; the lower bound of the right-hand one of the pair
    // becomes the split key.
    plan.nextBoundaries = rp.boundaries();
    plan.nextBoundaries[std::max(src, dst) - 1] = std::string(splitKey);
    plan.nextShards = cur->shards;
    plan.doneStat = Stat::kRebalances;
    return applyTransition(std::move(plan), opts);
}

MoveResult
ShardedStore::mergeBoundary(unsigned src, unsigned dst,
                            const MoveOptions &opts)
{
    if (!migrationPossible_)
        throw std::invalid_argument(
            "mergeBoundary requires a range-placed store");
    auto moveLk = lockTransitions();
    const Topology *cur = topology_.load(std::memory_order_acquire);
    const unsigned n = cur->count();
    if (src >= n || dst >= n || (src + 1 != dst && dst + 1 != src))
        throw std::invalid_argument(
            "mergeBoundary source and destination must be adjacent shards");
    const auto &rp = static_cast<const RangePlacement &>(*cur->placement);

    // src's WHOLE range moves; the boundary between the pair collapses
    // and src leaves the member set whole (its pool dies at retirement
    // or as a recovery orphan, so nothing is swept out of it).
    TransitionPlan plan;
    plan.src = src;
    plan.dst = dst;
    plan.gcSource = false;
    plan.lo = std::string(rp.lowerBoundOf(src));
    std::string_view upper;
    if (rp.upperBoundOf(src, upper))
        plan.hi = std::string(upper);
    plan.nextBoundaries = rp.boundaries();
    plan.nextBoundaries.erase(plan.nextBoundaries.begin() +
                              std::min(src, dst));
    plan.nextShards = cur->shards;
    plan.nextShards.erase(plan.nextShards.begin() + src);
    plan.doneStat = Stat::kTopologyMerges;
    return applyTransition(std::move(plan), opts);
}

MoveResult
ShardedStore::addShard(unsigned src, std::string_view splitKey,
                       const MoveOptions &opts)
{
    if (!migrationPossible_)
        throw std::invalid_argument(
            "addShard requires a range-placed store");
    auto moveLk = lockTransitions();
    const Topology *cur = topology_.load(std::memory_order_acquire);
    const unsigned n = cur->count();
    if (src >= n)
        throw std::invalid_argument("addShard source out of range");
    if (n >= Manifest::kMaxMembers)
        throw std::invalid_argument(
            "store is at the manifest's membership cap");
    const auto &rp = static_cast<const RangePlacement &>(*cur->placement);
    checkSplitKey(rp, src, splitKey);

    // src's tail [splitKey, upper) moves into a fresh member at src+1.
    TransitionPlan plan;
    plan.src = src;
    plan.freshShard = true;
    plan.lo = std::string(splitKey);
    std::string_view upper;
    if (rp.upperBoundOf(src, upper))
        plan.hi = std::string(upper);
    plan.nextBoundaries = rp.boundaries();
    plan.nextBoundaries.insert(plan.nextBoundaries.begin() + src,
                               std::string(splitKey));
    plan.nextShards = cur->shards;
    plan.nextShards.insert(plan.nextShards.begin() + src + 1, nullptr);
    plan.doneStat = Stat::kTopologyAdds;
    return applyTransition(std::move(plan), opts);
}

RetireResult
ShardedStore::retireShard(std::uint32_t poolId)
{
    auto moveLk = lockTransitions();
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
    // snapshot never references an unrouted shard) — an EpochService
    // advance among them, since advanceMemberEpoch holds a TopoGuard
    // across the boundary. Wait those out — the table-epoch grace
    // period — and the shard is unreachable.
    res.graceNs = drainRetiredPins(
        placementVersion_.load(std::memory_order_acquire));
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
