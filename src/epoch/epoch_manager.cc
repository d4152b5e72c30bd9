/**
 * @file
 * Epoch manager implementation.
 */
#include "epoch/epoch_manager.h"

#include "nvm/pool.h"

namespace incll {

EpochManager::EpochManager(nvm::Pool &pool, std::uint64_t *durableEpoch,
                           FailedEpochRecord *failedRecord, bool fresh)
    : pool_(pool),
      durableEpoch_(durableEpoch),
      failed_(pool, failedRecord, fresh)
{
    if (fresh) {
        // Epoch 0 is reserved so that zero-initialised nodeEpoch fields
        // always read as "not modified this epoch".
        persistEpochWord(1);
    }
    epochMirror_.store(*durableEpoch_, std::memory_order_relaxed);
    firstExecEpoch_ = *durableEpoch_;
}

void
EpochManager::persistEpochWord(std::uint64_t value)
{
    nvm::pstore(*durableEpoch_, value);
    pool_.clwb(durableEpoch_);
    pool_.sfence();
}

void
EpochManager::registerAdvanceHook(std::function<void(std::uint64_t)> hook)
{
    hooks_.push_back(std::move(hook));
}

void
EpochManager::registerPrepareHook(std::function<void()> hook)
{
    prepareHooks_.push_back(std::move(hook));
}

void
EpochManager::advance()
{
    const auto boundaryStart = std::chrono::steady_clock::now();
    gate_.lockExclusive();

    // 0. Let subsystems quiesce work that must not straddle the
    //    boundary (e.g. the allocator's shared-list drain fence).
    for (auto &hook : prepareHooks_)
        hook();
    // Writers are out (gate) and the allocator's shared lists are
    // fenced (prepare hook), so every store of the finishing epoch has
    // marked it; the flush below persists them. Stores from here on
    // belong to the next epoch and mark it afresh (the allocator's
    // promotion hook among them).
    epochWritten_.store(false, std::memory_order_relaxed);

    // 1. Checkpoint: every write of the finishing epoch becomes durable.
    pool_.wbinvdFlushAll();

    // 2. Durably open the next epoch. If we crash between the flush and
    //    this increment, the finished epoch is (unnecessarily but
    //    harmlessly) rolled back — both its pre- and post-states are
    //    consistent (paper §4.1.2 makes the same argument per node).
    const std::uint64_t next = currentEpoch() + 1;
    persistEpochWord(next);
    epochMirror_.store(next, std::memory_order_release);

    // 3. Subsystem hooks: external-log truncation, EBR promotion...
    for (auto &hook : hooks_)
        hook(next);

    gate_.unlockExclusive();
    const auto boundaryNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - boundaryStart)
            .count());
    addCounter(Stat::kEpochAdvances);
    addCounter(Stat::kEpochBoundaryNs, boundaryNs);
    obs::recordNs(obs::Hist::kEpochBoundaryNs, boundaryNs);
}

bool
EpochManager::skipIfIdle()
{
    if (epochWritten())
        return false;
    addCounter(Stat::kEpochIdleSkips);
    return true;
}

void
EpochManager::addCounter(Stat stat, std::uint64_t n)
{
    // Attribute boundary counters to the owning shard when the store
    // told us which one this is (statShard_ < 0 for standalone trees).
    if (statShard_ >= 0)
        globalStats().addShard(stat, static_cast<unsigned>(statShard_), n);
    else
        globalStats().add(stat, n);
}

void
EpochManager::markCrashRecovery()
{
    const std::uint64_t failedEpoch = *durableEpoch_;
    failed_.add(failedEpoch);
    persistEpochWord(failedEpoch + 1);
    epochMirror_.store(failedEpoch + 1, std::memory_order_release);
    firstExecEpoch_ = failedEpoch + 1;
    // Recovery's eager rollback (log images, allocator heads) is plain
    // cache writes: the first boundary after it must run.
    noteWrite();

    // Epoch numbers are consecutive, and completed epochs are never in
    // the failed set, so walking down from the crash epoch finds the
    // first checkpoint boundary that actually committed.
    std::uint64_t oldest = failedEpoch;
    while (oldest > 1 && failed_.isFailed(oldest - 1))
        --oldest;
    oldestRelevantFailed_ = oldest;
}

} // namespace incll
