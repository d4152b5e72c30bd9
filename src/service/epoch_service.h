/**
 * @file
 * EpochService: asynchronous per-shard epoch maintenance.
 *
 * The paper runs the epoch boundary inline on an application thread —
 * every worker rendezvouses at the global barrier and one of them pays
 * the wbinvd-style flush (§6). The sharded store already split that
 * single barrier into per-shard ones; this service moves the boundary
 * work itself off the request path entirely: one small pool of
 * maintenance threads drives every shard's advance on a deadline
 * schedule, so a shard's quiesce + flush + log truncation runs on a
 * service thread while every other shard keeps serving. The philosophy
 * follows Blelloch & Wei's constant-time allocation argument (see
 * PAPERS.md): keep coordination out of the hot path by making it
 * per-shard state that a background actor maintains.
 *
 * It is the one epoch driver: the server, the benches' workload runs
 * and perfbench run their stores under it, and it follows topology
 * changes (a member added at runtime is scheduled from its commit on).
 * The public calls name a shard by its current position; the state
 * behind them (deadline, log baseline, counters) is kept per durable
 * pool id, so a commit that re-numbers positions moves no shard onto
 * another's baseline. Direct advanceEpoch() calls remain for tests,
 * recovery, explicit checkpoints and the transition engine's commit
 * points.
 *
 * Scheduling: each shard has a deadline (last boundary + interval) and
 * an urgent flag. Service threads pick whichever shard is due (urgent
 * first), run its advance exclusively (a shard never has two concurrent
 * advances — they would only serialise on its gate), and re-arm the
 * deadline. With fewer threads than shards the boundaries are naturally
 * staggered, which is exactly what bounded tail latency wants — at most
 * `threads` shards are quiesced at any instant.
 *
 * Idle elision: a due, non-urgent shard whose open epoch took no
 * durable store (EpochManager::skipIfIdle) has nothing to persist, so
 * its scheduled boundary is skipped — no quiesce, no flush, no epoch
 * bump — and its deadline re-armed. Urgent advances (barriers, the debt
 * kick, backpressure) always run.
 *
 * Backpressure: an async advance can fall behind a write-heavy shard,
 * and the external log is the resource that runs out (it is logically
 * truncated only at a boundary). When a shard's log has grown more than
 * maxLogBytesPerEpoch since its last boundary, throttle() blocks the
 * writer until the service completes an urgent advance of that shard.
 * start() installs throttle() as the store's write-throttle hook, so
 * batched writers pick it up automatically.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "store/sharded_store.h"

namespace incll::service {

class EpochService
{
  public:
    struct Options
    {
        /** Maintenance threads shared by all shards. */
        unsigned threads = 2;
        /** Per-shard advance period (the paper's 64 ms epoch). */
        std::chrono::milliseconds interval = EpochManager::kDefaultInterval;
        /**
         * Backpressure threshold: throttle a shard's *batched* writers
         * (multiPut / installValueBatch — the paths that run the
         * store's write-throttle hook; per-op put() stays hook-free to
         * keep the hot path untouched) once the shard's external log
         * has grown this many bytes since its last boundary. 0 disables
         * backpressure.
         */
        std::uint64_t maxLogBytesPerEpoch = 0;
        /**
         * Adaptive scheduling: ask for an advance ahead of a shard's
         * deadline as soon as its log debt exceeds this many bytes
         * (0 = deadline-only scheduling). Unlike maxLogBytesPerEpoch —
         * which *blocks writers* once crossed — this is the service
         * noticing debt early and spending capacity on it, so bursty
         * writers (a server draining shard batches) get their
         * boundaries on log growth instead of riding the backpressure
         * throttle. The kick fires from the write-throttle hook (the
         * batched-write admission point) through the urgent-advance
         * plumbing: one atomic flag per shard keeps it to a single
         * request per debt episode. Pick a value well below
         * maxLogBytesPerEpoch (e.g. half) so the early advance
         * normally lands before the throttle threshold ever trips.
         */
        std::uint64_t adaptiveDebtBytes = 0;
    };

    /**
     * Bound on the fraction of wall time each service thread may spend
     * inside scheduled advances. When the configured interval is
     * infeasible (boundary cost × shard count exceeds the pool's
     * capacity), an unpaced service would advance back-to-back, keeping
     * a constant fraction of the shards quiesced and starving the
     * request path; with pacing the effective epoch stretches instead —
     * after a scheduled advance of duration D a thread stays idle for
     * D·(1-duty)/duty, i.e. D at this bound. Urgent advances
     * (backpressure, advanceAllAndWait) are exempt: there a caller is
     * already blocked waiting on the boundary.
     */
    static constexpr double kMaxDutyCycle = 0.5;

    /** Per-shard service counters (monotonic since start()). */
    struct ShardCounters
    {
        std::uint64_t advances = 0;     ///< boundaries completed
        std::uint64_t boundaryNs = 0;   ///< total advance wall time
        std::uint64_t throttleStalls = 0; ///< writers blocked by backpressure
        std::uint64_t throttleNs = 0;   ///< total writer stall time
        std::uint64_t debtAdvances = 0; ///< adaptive debt-driven requests
        std::uint64_t idleSkips = 0;    ///< scheduled boundaries elided
    };

    /**
     * Attach to @p store and install throttle() as its write-throttle
     * hook for the service's whole lifetime (a no-op while the service
     * is stopped). The hook swap itself requires quiescent writers, so
     * it happens here and in the destructor — start()/stop() are safe
     * with writers in flight.
     */
    EpochService(store::ShardedStore &store, Options options);

    /** Stops the service and uninstalls the throttle hook. */
    ~EpochService();

    EpochService(const EpochService &) = delete;
    EpochService &operator=(const EpochService &) = delete;

    /** Start the maintenance pool; every shard's first deadline is
     *  now + interval. */
    void start();

    /**
     * Stop the pool: in-flight advances complete, pending deadlines are
     * dropped, and blocked throttle() callers are released. Idempotent;
     * start() may be called again afterwards.
     */
    void stop();

    /** True between start() and stop() (relaxed snapshot; callable
     *  from any thread). */
    bool running() const { return running_; }

    /**
     * Ask for an off-schedule advance of @p shard (returns at once; the
     * boundary runs on a service thread). Safe from any thread, even
     * one holding the shard's gate — the request only marks the shard
     * urgent. No-op while the service is stopped.
     */
    void requestAdvance(unsigned shard);

    /**
     * Checkpoint every shard once and wait for completion — the
     * whole-store barrier the synchronous advanceEpoch() used to be,
     * routed through the service threads. Falls back to an inline
     * advance when the service is stopped.
     */
    void advanceAllAndWait();

    /**
     * Checkpoint one shard and wait for its boundary to complete — the
     * per-shard form of advanceAllAndWait. This is the explicit barrier
     * tests and the Rebalancer use instead of sleep-polling counters
     * (duty-cycle pacing stretches *scheduled* advances, so timing-
     * based waits flake; urgent ones are exempt and this waits on
     * exactly one of those). Falls back to an inline advance when the
     * service is stopped. Must not be called while holding the shard's
     * epoch gate.
     */
    void advanceShardAndWait(unsigned shard);

    /**
     * Write backpressure for @p shard: if its log debt exceeds the
     * threshold, request an urgent advance and block until the boundary
     * completes (or the service stops). Cheap when under the threshold
     * (no lock; the state lookup re-validates a cached position).
     * Must not be called while holding the shard's epoch gate.
     */
    void throttle(unsigned shard);

    /** Current log bytes accumulated since @p shard's last boundary. */
    std::uint64_t logDebt(unsigned shard) const;

    /** Snapshot of the service counters of the shard at position
     *  @p shard (monotonic since the service first met it; consistent —
     *  taken under the service lock); zero for a position the store
     *  does not have. */
    ShardCounters counters(unsigned shard) const;

    /** Sum of counters() over every shard the service has driven,
     *  merged-away ones included, in one locked snapshot. */
    ShardCounters totalCounters() const;

  private:
    using Clock = std::chrono::steady_clock;

    /**
     * One member's scheduling state, keyed by its durable pool id: a
     * topology commit re-numbers positions, and the state (baseline,
     * deadline, counters) must stay with the shard, not the position.
     */
    struct ShardState
    {
        explicit ShardState(std::uint32_t id) : poolId(id) {}

        const std::uint32_t poolId;
        Clock::time_point deadline{};
        bool urgent = false;
        bool inProgress = false;
        /** log().bytesAppended() at the last boundary (throttle fast path). */
        std::atomic<std::uint64_t> bytesAtBoundary{0};
        /** One adaptive debt kick per debt episode (cleared at the next
         *  boundary); keeps the hot write path off the service lock. */
        std::atomic<bool> debtKicked{false};
        /** counters.advances doubles as the barrier progress count. */
        ShardCounters counters;
    };

    void workerLoop();
    /** The state of pool @p poolId, created on first sight (under mu_). */
    ShardState &stateLocked(std::uint32_t poolId) const;
    /** The state of the member at position @p pos, or nullptr when the
     *  store has no such position. Lock-free once the position's cache
     *  entry names the member's pool. */
    ShardState *stateAt(unsigned pos) const;
    /** Refresh members_ and the position cache from the store's current
     *  member set (under mu_). */
    void syncMembers();
    bool isMember(const ShardState &ss) const;
    std::uint64_t debtOf(const ShardState &ss) const;

    store::ShardedStore &store_;
    const Options options_;

    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< service threads wait here
    std::condition_variable doneCv_; ///< throttle()/advanceAllAndWait() wait here
    /**
     * Every pool the service has met (under mu_). Never shrinks while
     * the service lives, so a pointer read from byPos_ stays valid; a
     * merged-away member's state simply stops being scheduled.
     */
    mutable std::vector<std::unique_ptr<ShardState>> states_;
    /** Current members' states in position order (under mu_). */
    std::vector<ShardState *> members_;
    /**
     * Position → state cache for the lock-free paths (throttle,
     * logDebt). Fixed capacity; an entry is trusted only when its
     * state's pool id matches the store's current pool id at that
     * position, and re-resolved under mu_ otherwise.
     */
    mutable std::vector<std::atomic<ShardState *>> byPos_;
    std::vector<std::thread> pool_;
    bool stopFlag_ = false;
    std::atomic<bool> running_{false};
};

} // namespace incll::service
