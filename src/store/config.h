/**
 * @file
 * StoreConfig: the per-shard component configuration shared by every
 * store front-end, plus the store-level placement policy choice.
 *
 * One struct describes the epoch/log/allocator shape of a standalone
 * DurableMasstree, a store::Shard, and every shard of a
 * store::ShardedStore, so the knobs cannot drift between front-ends.
 * The tree-component fields mirror mt::DurableMasstree::Options (their
 * defaults are taken from it, not re-typed, so they cannot drift
 * either); treeOptions() converts. StoreConfig additionally carries the
 * placement policy — a store-layer concern the masstree layer must not
 * know about, which is why this is a separate struct rather than the
 * alias it used to be (the layer graph stays one-directional: store
 * depends on masstree, never the reverse).
 */
#pragma once

#include <string>
#include <vector>

#include "masstree/durable_tree.h"
#include "store/placement.h"

namespace incll::store {

namespace detail {
/** The masstree layer's defaults, the single source for ours. */
inline constexpr mt::DurableMasstree::Options kDefaultTreeOptions{};
} // namespace detail

/** Configuration of one durable tree / shard's components. */
struct StoreConfig
{
    // -- per-shard tree components (mirrors DurableMasstree::Options) --
    std::uint32_t logBuffers = detail::kDefaultTreeOptions.logBuffers;
    std::size_t logBufferBytes = detail::kDefaultTreeOptions.logBufferBytes;
    std::uint32_t allocArenas = detail::kDefaultTreeOptions.allocArenas;
    bool inCllEnabled = detail::kDefaultTreeOptions.inCllEnabled;

    // -- store-level placement ----------------------------------------
    /**
     * How keys map to shards (fresh stores only — recovery re-derives
     * the policy from the pools' manifests and ignores these two
     * fields). kHash is the historical routing; kRange keeps
     * scans inside the shards whose ranges they intersect.
     */
    PlacementKind placement = PlacementKind::kHash;
    /**
     * Explicit range boundaries (exactly shards-1, strictly increasing,
     * each <= Manifest::kMaxBoundaryBytes). Empty under kRange
     * means "split the u64-key space evenly"
     * (RangePlacement::evenU64Boundaries) — balanced for scrambled
     * fixed-width keys like the YCSB universe; pass explicit or
     * sample-derived boundaries for anything else.
     */
    std::vector<std::string> rangeBoundaries = {};
    /**
     * Maintain per-shard ShardHotness counters (one relaxed fetch_add
     * pair per routed operation) — the signal the service-layer
     * Rebalancer detects skew from. Off by default so stores that never
     * rebalance pay nothing on the hot path.
     */
    bool trackHotness = false;
    /**
     * Record per-op latency histograms (obs::Hist store_*_ns): one
     * steady-clock read pair per get/put/remove/scan/multi batch.
     * Off by default so stores that never report latency pay nothing
     * on the hot path; the server and the latency benches turn it on.
     */
    bool recordOpLatency = false;

    /** The per-shard component configuration the masstree layer takes. */
    mt::DurableMasstree::Options
    treeOptions() const
    {
        return {logBuffers, logBufferBytes, allocArenas, inCllEnabled};
    }
};

} // namespace incll::store
