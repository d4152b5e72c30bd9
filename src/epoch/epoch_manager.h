/**
 * @file
 * Fine-grained checkpointing epochs (paper §3, §4).
 *
 * Execution is partitioned into short epochs (the paper uses 64 ms,
 * matching Masstree's reclamation interval). Advancing the epoch is the
 * checkpoint operation:
 *
 *   1. quiesce the structure (global barrier, EpochGate),
 *   2. flush the entire cache to NVM (wbinvd) — after this, every write
 *      of the finished epoch is durable,
 *   3. durably increment the global epoch counter,
 *   4. run subsystem hooks (external-log truncation, allocator EBR
 *      promotion).
 *
 * A crash therefore loses at most the in-progress epoch: recovery marks
 * that epoch failed and rolls its writes back via the InCLLs and the
 * external log.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.h"
#include "epoch/epoch_gate.h"
#include "epoch/failed_epochs.h"

namespace incll::nvm {
class Pool;
} // namespace incll::nvm

namespace incll {

class EpochManager
{
  public:
    /** The paper's epoch length. */
    static constexpr std::chrono::milliseconds kDefaultInterval{64};

    /**
     * Attach to durable epoch state.
     *
     * @param pool          pool the durable words live in.
     * @param durableEpoch  durable global epoch counter (in the root
     *                      record).
     * @param failedRecord  durable failed-epoch set storage.
     * @param fresh         true to initialise a brand-new pool (epoch 1,
     *                      empty failed set); false to attach to existing
     *                      state after a restart.
     */
    EpochManager(nvm::Pool &pool, std::uint64_t *durableEpoch,
                 FailedEpochRecord *failedRecord, bool fresh);

    EpochManager(const EpochManager &) = delete;
    EpochManager &operator=(const EpochManager &) = delete;

    /** Current epoch (hot path; reads a transient mirror). Durable
     *  writers take their epoch from writeEpoch() instead. */
    std::uint64_t
    currentEpoch() const
    {
        return epochMirror_.load(std::memory_order_acquire);
    }

    /**
     * The epoch a durable store is made in: marks the current epoch as
     * written, then returns it. Every durable write path stamps its
     * epoch through here, so a scheduled boundary can tell an epoch
     * with something to persist from one without (skipIfIdle()).
     * Callers hold the gate or an allocator drain pin, so the mark
     * cannot land between advance()'s clear and its flush. A buffered
     * allocator free marks through noteWrite() while it holds a thread
     * cache's busy flag that it took with the drain fence open; the
     * allocator's prepare hook takes every such flag before advance()
     * clears the mark, so that mark cannot land there either.
     */
    std::uint64_t
    writeEpoch()
    {
        noteWrite();
        return currentEpoch();
    }

    /** Mark the current epoch as written without reading it (lazy node
     *  recovery stamps firstExecEpoch(), not the current epoch; a
     *  buffered free stores nothing durable until the boundary pushes
     *  it). Same caller rules as writeEpoch(). */
    void
    noteWrite()
    {
        // Check-then-set: the flag's line is written once per epoch,
        // not once per store.
        if (!epochWritten_.load(std::memory_order_relaxed))
            epochWritten_.store(true, std::memory_order_relaxed);
    }

    /** True iff the current epoch took a durable store. */
    bool
    epochWritten() const
    {
        return epochWritten_.load(std::memory_order_relaxed);
    }

    /**
     * Elide a scheduled boundary of a clean epoch: when the current
     * epoch took no durable store, count one skip (`epoch_idle_skips`)
     * and return true — there is nothing to persist, and skipping only
     * makes the open epoch longer. Returns false when the boundary
     * must run. A store racing this check marks the epoch, which the
     * next scheduled boundary then commits.
     */
    bool skipIfIdle();

    /** First epoch of the current execution (Listing 4's currExecEpoch). */
    std::uint64_t firstExecEpoch() const { return firstExecEpoch_; }

    /** True iff @p epoch crashed before completing. */
    bool isFailed(std::uint64_t epoch) const { return failed_.isFailed(epoch); }

    /**
     * Oldest epoch of the current *trailing run* of failed epochs — the
     * crashes since the last completed checkpoint. Failed epochs older
     * than this are historical: their rollbacks were re-committed by a
     * later successful checkpoint, and any log entries still carrying
     * their tags are stale and must not be re-applied (the in-cache
     * truncation of the external log is not durable). Valid after
     * markCrashRecovery().
     */
    std::uint64_t oldestRelevantFailed() const { return oldestRelevantFailed_; }

    FailedEpochSet &failedSet() { return failed_; }
    EpochGate &gate() { return gate_; }
    nvm::Pool &pool() { return pool_; }

    /**
     * Register a hook run under the exclusive gate at every advance,
     * after the flush and the durable epoch increment. Hooks receive the
     * *new* epoch number.
     */
    void registerAdvanceHook(std::function<void(std::uint64_t)> hook);

    /**
     * Register a hook run under the exclusive gate at every advance,
     * *before* the global flush — i.e. while the finishing epoch is
     * still open. Subsystems use it to fence off operations that must
     * not straddle the boundary (the lock-free allocator closes its
     * drain fence here); the matching reopen belongs in an advance
     * hook.
     */
    void registerPrepareHook(std::function<void()> hook);

    /** Perform one epoch advance (checkpoint). Thread-safe. Always
     *  runs, written or not; only skipIfIdle() elides a boundary. */
    void advance();

    /**
     * Tell the manager which store shard it belongs to, so advance()
     * can record shard-labeled epoch counters. Call during store
     * construction, before concurrent advances. Default: unlabeled.
     */
    void setStatShard(int shard) { statShard_ = shard; }

    /**
     * Crash-recovery attach: durably mark the interrupted epoch as failed
     * and move the execution to a fresh epoch, marked written so the
     * first boundary after recovery flushes the rollback. Call exactly
     * once after re-attaching to a crashed pool, before any structure
     * access.
     */
    void markCrashRecovery();

  private:
    void persistEpochWord(std::uint64_t value);
    void addCounter(Stat stat, std::uint64_t n = 1);

    nvm::Pool &pool_;
    std::uint64_t *durableEpoch_;
    FailedEpochSet failed_;
    EpochGate gate_;
    std::atomic<std::uint64_t> epochMirror_;
    /** Set by the current epoch's first durable store; cleared by
     *  advance() before its flush. Transient: recovery sets it. */
    std::atomic<bool> epochWritten_{false};
    std::uint64_t firstExecEpoch_;
    std::uint64_t oldestRelevantFailed_ = 0;
    std::vector<std::function<void(std::uint64_t)>> hooks_;
    std::vector<std::function<void()>> prepareHooks_;
    int statShard_ = -1;
};

/** Split helpers for the 16-bit epoch encodings (paper §4.1.3). */
inline std::uint64_t
epochLow16(std::uint64_t epoch)
{
    return epoch & 0xffffULL;
}

inline std::uint64_t
epochHigh48(std::uint64_t epoch)
{
    return epoch & ~0xffffULL;
}

} // namespace incll
