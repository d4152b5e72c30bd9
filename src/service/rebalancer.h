/**
 * @file
 * Rebalancer: background skew detection + key-move scheduling.
 *
 * The store's RangePlacement makes scans fast but freezes the boundary
 * table at creation, so a skewed key distribution turns one range shard
 * into the whole store's bottleneck. The Rebalancer closes the loop: it
 * periodically snapshots the store's decayed per-shard hotness counters
 * (StoreConfig::trackHotness), and when one shard's recent load exceeds
 * skewFactor × the mean, it samples that shard's keys for a median
 * split point and executes ShardedStore::moveBoundary toward the cooler
 * adjacent neighbour — the store keeps serving throughout; only writers
 * inside the moving interval pause, and only for the commit window.
 *
 * Scheduling mirrors the EpochService philosophy: policy lives on a
 * maintenance thread, the mechanism (the migration protocol) lives in
 * the store, and the hot path pays only the counters. When an
 * EpochService is attached, the move's boundary advances are routed
 * through it (advanceShardAndWait) so the mover never contends with the
 * service scheduler over a shard's gate.
 *
 * Elasticity (Options::elastic): when enabled, the pass also weighs the
 * topology transitions. A hot shard whose neighbours are too loaded to
 * absorb a boundary move is *split* into a brand-new member (addShard);
 * a shard whose decayed load has fallen below coldShardOps is *merged*
 * into its cooler adjacent neighbour (mergeBoundary) — but only when
 * the projected migration bytes stay under mergeMaxBytes, so the copy
 * cost never outweighs the win of retiring a near-idle member — and the
 * emptied shard is then destroyed (retireShard). The member set thus
 * tracks the load: it grows under a spreading hotspot and shrinks
 * behind a receding one.
 *
 * rebalanceOnce() is public and synchronous so tests and the model
 * fuzzer can drive detection + migration deterministically, without the
 * background thread.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/epoch_service.h"
#include "store/sharded_store.h"

namespace incll::service {

class Rebalancer
{
  public:
    struct Options
    {
        /** Detection period of the background thread (and hotness
         *  decay period: counters are halved every tick). */
        std::chrono::milliseconds interval{50};
        /** A shard is hot when its recent ops exceed skewFactor × the
         *  per-shard mean. */
        double skewFactor = 2.0;
        /** Ignore shards below this many recent ops (idle stores and
         *  cold starts must not trigger moves). */
        std::uint64_t minShardOps = 1024;
        /** Keys sampled from the hot shard to estimate the median. */
        std::size_t sampleKeys = 512;
        /** Forwarded to MoveOptions::chunkKeys. */
        std::size_t chunkKeys = 512;
        /** Forwarded to MoveOptions::valueBytes (the store's uniform
         *  value-buffer size; 0 = opaque pointer values). */
        std::size_t valueBytes = 0;
        /**
         * Enable the elastic decisions (merge / add / retire) on top of
         * boundary moves. Requires a range store; each elastic pass
         * also retires any shard a previous merge left unrouted.
         */
        bool elastic = false;
        /** A shard whose recent ops fall below this is merge-eligible
         *  (the decayed-hotness "cold" threshold). */
        std::uint64_t coldShardOps = 128;
        /** Membership cap addShard() may grow the store to (clamped to
         *  the manifest's cap, Manifest::kMaxMembers). */
        unsigned maxShards = store::Manifest::kMaxMembers;
        /**
         * Merge cost cap: projected migration bytes (keys + values the
         * cold shard would stream into its neighbour) above this make
         * the merge not worth its copy cost — the shard stays, however
         * cold. The projection scans the cold shard but aborts the
         * moment the running total crosses the cap, so a merely-idle
         * *large* shard costs one bounded scan per pass, not a full one.
         */
        std::uint64_t mergeMaxBytes = std::uint64_t{32} << 20;
    };

    /** Monotonic counters since construction. */
    struct Counters
    {
        std::uint64_t ticks = 0;      ///< detection passes run
        std::uint64_t migrations = 0; ///< completed moves
        std::uint64_t keysMoved = 0;
        std::uint64_t lastVersion = 0; ///< placement version last committed
        std::uint64_t merges = 0;     ///< cold shards merged away
        std::uint64_t adds = 0;       ///< hot shards split into a new member
        std::uint64_t retires = 0;    ///< drained shards destroyed
    };

    /**
     * @p epochs may be null (boundary advances run inline). Throws
     * std::invalid_argument unless @p store tracks hotness — detection
     * would otherwise never fire and misconfiguration should be loud.
     */
    Rebalancer(store::ShardedStore &store, Options options,
               EpochService *epochs = nullptr);

    ~Rebalancer();

    Rebalancer(const Rebalancer &) = delete;
    Rebalancer &operator=(const Rebalancer &) = delete;

    /** Start the background detection thread. */
    void start();

    /** Stop it; an in-flight migration completes first. Idempotent. */
    void stop();

    bool running() const { return running_.load(std::memory_order_relaxed); }

    /**
     * One synchronous detection pass: if a shard is hot, execute one
     * migration (blocking) and return true. Safe to call with the
     * background thread stopped; the thread calls exactly this.
     */
    bool rebalanceOnce();

    Counters counters() const;

  private:
    /** Hot shard index, or -1 when the load is balanced/idle. */
    int detectHotShard(std::vector<std::uint64_t> &opsOut) const;

    /** Median key of @p shard's owned range via strided sampling;
     *  empty when the shard has too few distinct keys to split. */
    std::string sampleSplitKey(unsigned shard) const;

    /** Projected bytes a merge of @p shard would stream (keys +
     *  values), or UINT64_MAX once the running total crosses @p cap
     *  (the scan aborts there). */
    std::uint64_t projectedMergeBytes(unsigned shard,
                                      std::uint64_t cap) const;

    /** Destroy every shard a previous merge left unrouted; returns how
     *  many were retired. */
    std::uint64_t retireUnrouted();

    /** Elastic decisions for one pass: split a hot shard whose
     *  neighbours are too loaded to absorb a move, or merge away a
     *  cold one. Returns true when a transition committed. */
    bool elasticOnce(const std::vector<std::uint64_t> &ops, int hot);

    store::MoveOptions moveOptions() const;

    store::ShardedStore &store_;
    const Options options_;
    EpochService *epochs_;

    mutable std::mutex mu_;
    std::condition_variable stopCv_;
    Counters counters_;
    std::thread thread_;
    bool stopFlag_ = false;
    std::atomic<bool> running_{false};
};

} // namespace incll::service
