/**
 * @file
 * ShardedStore lifecycle: fresh construction, whole-store recovery,
 * snapshot/ownership bookkeeping, per-shard epoch control.
 */
#include "store/sharded_store.h"

namespace incll::store {

namespace {

/** Build the fresh-store policy from the config's placement fields. */
std::unique_ptr<Placement>
makePlacement(const StoreConfig &config, unsigned shards)
{
    if (config.placement == PlacementKind::kHash) {
        if (!config.rangeBoundaries.empty())
            throw std::invalid_argument(
                "rangeBoundaries set but placement is hash");
        return std::make_unique<HashPlacement>(shards);
    }
    auto boundaries = config.rangeBoundaries.empty() && shards > 1
                          ? RangePlacement::evenU64Boundaries(shards)
                          : config.rangeBoundaries;
    return std::make_unique<RangePlacement>(shards, std::move(boundaries));
}

} // namespace

Placement *
ShardedStore::adoptPlacement(std::unique_ptr<Placement> placement)
{
    Placement *raw = placement.get();
    std::lock_guard lk(placementMu_);
    placementHistory_.push_back(std::move(placement));
    return raw;
}

ShardedStore::Topology *
ShardedStore::adoptTopology(std::unique_ptr<Topology> next,
                            std::uint64_t version)
{
    Topology *raw = next.get();
    {
        std::lock_guard lk(placementMu_);
        topologyHistory_.push_back(std::move(next));
    }
    // Readers load the snapshot after pinning topoPins_; the grace
    // drain's flip is ordered after this store, so a reader either
    // loads the new pointer or holds a pin the drain waits for.
    if (topology_.load(std::memory_order_relaxed) != nullptr)
        undrainedRetire_ = true;
    topology_.store(raw, std::memory_order_seq_cst);
    if (version != 0)
        placementVersion_.store(version, std::memory_order_release);
    return raw;
}

Shard *
ShardedStore::adoptShard(std::unique_ptr<Shard> shard, bool routed)
{
    Shard *raw = shard.get();
    std::lock_guard lk(ownedMu_);
    owned_.push_back({std::move(shard), routed});
    return raw;
}

ShardedStore::ShardedStore(const Options &options)
{
    if (options.shards == 0)
        throw std::invalid_argument("ShardedStore needs at least 1 shard");
    Placement *pl = adoptPlacement(
        makePlacement(options.config, options.shards));
    if (pl->ordered() && options.shards > Manifest::kMaxMembers)
        throw std::invalid_argument(
            "a range store can have at most Manifest::kMaxMembers shards");
    migrationPossible_ = pl->ordered();
    trackHotness_ = options.config.trackHotness;
    recordOpLatency_ = options.config.recordOpLatency;
    poolBytes_ = options.poolBytesPerShard;
    mode_ = options.mode;
    seed_ = options.seed;
    config_ = options.config;
    auto topo = std::make_unique<Topology>();
    topo->placement = pl;
    topo->nextPoolId = options.shards;
    topo->shards.reserve(options.shards);
    for (unsigned i = 0; i < options.shards; ++i) {
        Shard *s = adoptShard(
            std::make_unique<Shard>(options.poolBytesPerShard, options.mode,
                                    options.seed + i, options.config),
            /*routed=*/true);
        s->setPoolId(i);
        s->tree().epochs().setStatShard(static_cast<int>(i));
        topo->shards.push_back(s);
    }
    Topology *t = adoptTopology(std::move(topo), 0);
    // A range store's version-0 manifest goes to every pool before any
    // user operation, so recovery re-derives the routing from a crash
    // at any later point. Hash stores write nothing.
    if (migrationPossible_)
        writeManifests(*t, 0, nullptr);
}

ShardedStore::ShardedStore(std::vector<std::unique_ptr<nvm::Pool>> pools,
                           RecoverTag, const StoreConfig &config)
{
    if (pools.empty())
        throw std::invalid_argument("ShardedStore recovery needs >= 1 pool");
    // The pools say how the crashed store routed keys and which pools
    // are members at all; the config's placement fields are ignored
    // (they describe fresh stores). The winning manifest already
    // resolves any interrupted transition to exactly its old or new
    // side (whichever side of the commit the crash fell on);
    // `recovered.pending` only carries the bookkeeping needed to sweep
    // the loser's orphan copies below, and `recovered.orphanPools` the
    // pools outside the committed member set, discarded wholesale here.
    StoreRecovery recovered = recoverManifest(pools);
    Placement *pl = adoptPlacement(std::move(recovered.placement));
    placementVersion_.store(recovered.version, std::memory_order_release);
    manifestSeq_ = recovered.seq;
    migrationPossible_ = pl->ordered();
    trackHotness_ = config.trackHotness;
    recordOpLatency_ = config.recordOpLatency;
    mode_ = pools[recovered.memberPools[0]]->mode();
    poolBytes_ = pools[recovered.memberPools[0]]->size();
    config_ = config;

    auto topo = std::make_unique<Topology>();
    topo->placement = pl;
    topo->nextPoolId = recovered.nextPoolId;
    topo->shards.reserve(recovered.memberPools.size());
    // Each member recovers against only its own pool: its interrupted
    // epoch is marked failed, its external log applied, its allocator
    // heads rolled back — a shard that was quiescent at the crash does
    // not pay for a neighbour that was mid-epoch.
    for (std::size_t pos = 0; pos < recovered.memberPools.size(); ++pos) {
        Shard *s = adoptShard(
            std::make_unique<Shard>(
                std::move(pools[recovered.memberPools[pos]]), kRecover,
                config),
            /*routed=*/true);
        s->setPoolId(recovered.memberIds[pos]);
        // Obs series are labeled by the durable pool id, not the
        // position — ids are stable across topology changes, so a
        // shard keeps its series when positions re-number (and equals
        // the historical position label on hash stores).
        s->tree().epochs().setStatShard(
            static_cast<int>(recovered.memberIds[pos]));
        topo->shards.push_back(s);
    }
    const Topology *t = adoptTopology(std::move(topo), 0);
    // Pools outside the committed member set — a mid-add destination
    // whose commit never flushed, or a merged-out shard that was
    // awaiting retirement — are discarded wholesale, value buffers and
    // all, when `pools` goes out of scope. Idempotent by construction:
    // a re-crash re-discards them.
    recoveryInfo_.orphanPools = recovered.orphanPools.size();

    recoveryInfo_.placementVersion = recovered.version;
    recoveryInfo_.migrationPending = recovered.pending.has_value();
    recoveryInfo_.migrationCommitted = recovered.pendingCommitted;
    // Roll the torn side of an interrupted migration back: delete every
    // key a member's tree holds outside the range the recovered table
    // assigns it (destination copies of an uncommitted move/merge,
    // source leftovers of a committed move/add). Orphans can only exist
    // while an intent is uncleared — it is flushed before the first key
    // is copied and dropped only after the GC's epoch advance — so a
    // store with no pending intent skips the sweep. The
    // deletions live in the current epoch: a crash before the next
    // boundary simply re-runs the identical sweep.
    if (recovered.pending) {
        recoveryInfo_.sweptKeys = sweepOutOfRangeKeys(*recovered.pending);
        // The intent names its parties by pool id. A side whose pool
        // was discarded as an orphan — the src of a committed merge,
        // the dst of an uncommitted add — has nothing to advance.
        // Commit the sweep (and its value frees) before dropping the
        // intent: a crash in between re-runs an empty sweep, never a
        // second free.
        for (Shard *s : t->shards)
            if (s->poolId() == recovered.pending->src ||
                s->poolId() == recovered.pending->dst)
                s->tree().advanceEpoch();
        writeManifests(*t, recovered.version, nullptr);
    }
}

std::vector<std::uint32_t>
ShardedStore::unroutedPoolIds() const
{
    std::vector<std::uint32_t> ids;
    std::lock_guard lk(ownedMu_);
    for (const OwnedShard &o : owned_)
        if (!o.routed)
            ids.push_back(o.shard->poolId());
    return ids;
}

void
ShardedStore::advanceEpoch()
{
    TopoGuard pin(*this);
    for (Shard *s : pin.topo().shards)
        s->tree().advanceEpoch();
}

std::uint32_t
ShardedStore::shardPoolId(unsigned pos) const
{
    TopoGuard pin(*this);
    const Topology &t = pin.topo();
    return pos < t.count() ? t.shards[pos]->poolId() : kNoPool;
}

std::vector<std::uint32_t>
ShardedStore::memberPoolIds() const
{
    TopoGuard pin(*this);
    std::vector<std::uint32_t> ids;
    ids.reserve(pin.topo().count());
    for (const Shard *s : pin.topo().shards)
        ids.push_back(s->poolId());
    return ids;
}

void
ShardedStore::advanceShardEpoch(unsigned pos)
{
    TopoGuard pin(*this);
    const Topology &t = pin.topo();
    if (pos < t.count())
        t.shards[pos]->tree().advanceEpoch();
}

bool
ShardedStore::advanceMemberEpoch(std::uint32_t poolId)
{
    TopoGuard pin(*this);
    Shard *s = memberWithPoolId(pin.topo(), poolId);
    if (s == nullptr)
        return false;
    s->tree().advanceEpoch();
    return true;
}

std::uint64_t
ShardedStore::memberLogBytes(std::uint32_t poolId) const
{
    TopoGuard pin(*this);
    Shard *s = memberWithPoolId(pin.topo(), poolId);
    return s != nullptr ? s->tree().log().bytesAppended() : 0;
}

bool
ShardedStore::skipIdleMemberEpoch(std::uint32_t poolId)
{
    TopoGuard pin(*this);
    Shard *s = memberWithPoolId(pin.topo(), poolId);
    return s != nullptr && s->tree().epochs().skipIfIdle();
}

std::uint64_t
ShardedStore::lastRecoveryLogApplied() const
{
    std::uint64_t total = 0;
    std::lock_guard lk(ownedMu_);
    for (const OwnedShard &o : owned_)
        total += o.shard->tree().lastRecoveryLogApplied();
    return total;
}

std::vector<std::unique_ptr<nvm::Pool>>
ShardedStore::releasePools()
{
    std::vector<std::unique_ptr<nvm::Pool>> pools;
    std::lock_guard lk(ownedMu_);
    pools.reserve(owned_.size());
    // Members first, in position order — the order a hash store's
    // recovery needs (a range store's resolves pools by id and does
    // not care) — then unrouted shards awaiting retirement, whose pools
    // a crash turns into recovery-discarded orphans.
    const Topology *t = topology_.load(std::memory_order_acquire);
    for (Shard *member : t->shards) {
        for (OwnedShard &o : owned_)
            if (o.shard.get() == member)
                pools.push_back(o.shard->releasePool());
    }
    for (OwnedShard &o : owned_)
        if (!o.routed)
            pools.push_back(o.shard->releasePool());
    owned_.clear();
    return pools;
}

} // namespace incll::store
