/**
 * @file
 * EpochService implementation: deadline scheduling, urgent advances,
 * and write backpressure over a ShardedStore.
 */
#include "service/epoch_service.h"

#include <algorithm>
#include <cassert>

namespace incll::service {

EpochService::EpochService(store::ShardedStore &store, Options options)
    : store_(store), options_(options),
      // Fixed capacity, so throttle()'s lock-free path can index the
      // position cache from any thread: an elastic store's member count
      // can grow, but never beyond the manifest's membership cap (a hash
      // store never changes its count, and may be larger).
      byPos_(std::max(store.shardCount(), store::Manifest::kMaxMembers))
{
    assert(options_.threads > 0);
    // The hook is installed for the service's whole lifetime (throttle()
    // is a no-op while stopped): start()/stop() must be callable with
    // writers in flight, and swapping the store's std::function under a
    // concurrent batched writer would be a torn read. The store may not
    // be written through batches after this service is destroyed unless
    // another hook (or none) is installed first.
    store_.setWriteThrottle([this](unsigned shard) { throttle(shard); });
}

EpochService::~EpochService()
{
    stop();
    store_.setWriteThrottle(nullptr);
}

EpochService::ShardState &
EpochService::stateLocked(std::uint32_t poolId) const
{
    for (const auto &ss : states_)
        if (ss->poolId == poolId)
            return *ss;
    // First sight of this pool (service start, or a member added since):
    // its debt counts from now, and it is due one interval from now.
    auto ss = std::make_unique<ShardState>(poolId);
    ss->deadline = Clock::now() + options_.interval;
    ss->bytesAtBoundary.store(store_.memberLogBytes(poolId),
                              std::memory_order_relaxed);
    states_.push_back(std::move(ss));
    return *states_.back();
}

EpochService::ShardState *
EpochService::stateAt(unsigned pos) const
{
    const std::uint32_t id = store_.shardPoolId(pos);
    if (id == store::ShardedStore::kNoPool || pos >= byPos_.size())
        return nullptr;
    ShardState *ss = byPos_[pos].load(std::memory_order_acquire);
    if (ss != nullptr && ss->poolId == id)
        return ss;
    // A commit re-numbered this position (or it is new): resolve the
    // member's own state once, under the lock.
    std::lock_guard lk(mu_);
    ss = &stateLocked(id);
    byPos_[pos].store(ss, std::memory_order_release);
    return ss;
}

void
EpochService::syncMembers()
{
    // One snapshot of the member set: the topology can grow and shrink
    // at runtime, and re-reading it every pass is what makes the
    // service follow it — a fresh member is scheduled from here on, a
    // merged-away one simply drops out.
    const std::vector<std::uint32_t> ids = store_.memberPoolIds();
    members_.clear();
    for (unsigned pos = 0; pos < ids.size(); ++pos) {
        ShardState *ss = &stateLocked(ids[pos]);
        members_.push_back(ss);
        if (pos < byPos_.size())
            byPos_[pos].store(ss, std::memory_order_release);
    }
}

bool
EpochService::isMember(const ShardState &ss) const
{
    return std::find(members_.begin(), members_.end(), &ss) !=
           members_.end();
}

std::uint64_t
EpochService::debtOf(const ShardState &ss) const
{
    const std::uint64_t atBoundary =
        ss.bytesAtBoundary.load(std::memory_order_relaxed);
    const std::uint64_t now = store_.memberLogBytes(ss.poolId);
    return now > atBoundary ? now - atBoundary : 0;
}

void
EpochService::start()
{
    std::unique_lock lk(mu_);
    if (running_.load(std::memory_order_relaxed))
        return;
    stopFlag_ = false;
    const auto firstDeadline = Clock::now() + options_.interval;
    syncMembers();
    for (ShardState *ss : members_) {
        ss->deadline = firstDeadline;
        ss->urgent = false;
        ss->inProgress = false;
        ss->bytesAtBoundary.store(store_.memberLogBytes(ss->poolId),
                                  std::memory_order_relaxed);
        ss->debtKicked.store(false, std::memory_order_relaxed);
    }
    running_.store(true, std::memory_order_release);
    // At most one service thread per shard can ever be busy.
    const unsigned n = std::min<unsigned>(
        options_.threads, static_cast<unsigned>(byPos_.size()));
    pool_.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool_.emplace_back([this] { workerLoop(); });
}

void
EpochService::stop()
{
    {
        std::lock_guard lk(mu_);
        if (!running_.load(std::memory_order_relaxed) && pool_.empty())
            return;
        stopFlag_ = true;
        running_.store(false, std::memory_order_release);
        workCv_.notify_all();
        doneCv_.notify_all();
    }
    for (auto &t : pool_)
        t.join();
    pool_.clear();
}

void
EpochService::workerLoop()
{
    // This thread may not start a *scheduled* advance before `eligible`
    // (the duty-cycle pacing; see kMaxDutyCycle).
    auto eligible = Clock::now();

    std::unique_lock lk(mu_);
    while (!stopFlag_) {
        const auto now = Clock::now();
        ShardState *pick = nullptr;
        bool pickUrgent = false;
        auto earliest = Clock::time_point::max();
        syncMembers();
        // Urgent shards first (backpressure and explicit requests have
        // a caller blocked on them), then the most overdue deadline —
        // the latter only once this thread's pacing allows.
        for (ShardState *ss : members_) {
            if (ss->inProgress)
                continue;
            if (ss->urgent) {
                pick = ss;
                pickUrgent = true;
                break;
            }
            // Idle elision: a due shard whose epoch took no durable
            // store skips its boundary and re-arms. The skip is never
            // marked in progress nor counted as an advance: a barrier
            // adds one to its target for an advance in flight, and must
            // not end up waiting on a scheduled one that is skipped.
            if (ss->deadline <= now && store_.skipIdleMemberEpoch(ss->poolId)) {
                ss->deadline = now + options_.interval;
                ss->counters.idleSkips += 1;
            }
            if (now >= eligible && ss->deadline <= now &&
                (pick == nullptr || ss->deadline < pick->deadline))
                pick = ss;
            earliest = std::min(earliest, ss->deadline);
        }
        if (pick == nullptr) {
            // Sleep to the next actionable instant: this thread's
            // pacing gate or the earliest deadline, whichever is later
            // of the pair that applies. An urgent request notifies the
            // CV and cuts any of these waits short.
            auto wake = earliest == Clock::time_point::max()
                            ? earliest
                            : std::max(earliest, eligible);
            if (wake == Clock::time_point::max())
                workCv_.wait(lk);
            else
                workCv_.wait_until(lk, wake);
            continue;
        }

        ShardState &ss = *pick;
        ss.inProgress = true;
        ss.urgent = false;
        lk.unlock();

        // The boundary itself: quiesce the shard's gate, flush, open the
        // next epoch, truncate its log — all off the request path. Other
        // shards keep serving throughout. Addressed by pool id: a commit
        // since the pick may have re-numbered every position.
        const auto t0 = Clock::now();
        const bool advanced = store_.advanceMemberEpoch(ss.poolId);
        const auto tEnd = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(tEnd - t0)
                .count());
        const std::uint64_t bytesNow = store_.memberLogBytes(ss.poolId);
        if (!pickUrgent)
            eligible = tEnd + std::chrono::nanoseconds(static_cast<
                std::int64_t>(static_cast<double>(ns) *
                              (1.0 - kMaxDutyCycle) / kMaxDutyCycle));

        lk.lock();
        ss.inProgress = false;
        if (advanced) {
            ss.bytesAtBoundary.store(bytesNow, std::memory_order_relaxed);
            ss.debtKicked.store(false, std::memory_order_relaxed);
            ss.counters.advances += 1;
            ss.counters.boundaryNs += ns;
            ss.deadline = tEnd + options_.interval;
        }
        doneCv_.notify_all();
    }
}

void
EpochService::requestAdvance(unsigned shard)
{
    ShardState *ss = stateAt(shard);
    std::lock_guard lk(mu_);
    if (!running_.load(std::memory_order_relaxed) || ss == nullptr)
        return;
    ss->urgent = true;
    workCv_.notify_all();
}

void
EpochService::advanceAllAndWait()
{
    std::unique_lock lk(mu_);
    if (!running_.load(std::memory_order_relaxed)) {
        lk.unlock();
        store_.advanceEpoch();
        return;
    }
    syncMembers();
    std::vector<std::pair<ShardState *, std::uint64_t>> target;
    target.reserve(members_.size());
    for (ShardState *ss : members_) {
        // An advance already in flight may have flushed before this
        // call's writes landed, so it does not count as the barrier
        // boundary — require one more full advance after it.
        target.emplace_back(ss, ss->counters.advances + 1 +
                                    (ss->inProgress ? 1 : 0));
        ss->urgent = true;
    }
    workCv_.notify_all();
    bool complete = false;
    doneCv_.wait(lk, [&] {
        if (stopFlag_)
            return true;
        // A shard merged away mid-barrier stops being schedulable (and
        // has nothing left to checkpoint): drop it from the wait rather
        // than hang on an advance that can never run.
        syncMembers();
        for (const auto &[ss, want] : target)
            if (ss->counters.advances < want && isMember(*ss))
                return false;
        complete = true;
        return true;
    });
    if (!complete) {
        // stop() interrupted the barrier: this is still a durability
        // barrier, so checkpoint inline rather than return a false
        // success.
        lk.unlock();
        store_.advanceEpoch();
    }
}

void
EpochService::advanceShardAndWait(unsigned shard)
{
    ShardState *ssp = stateAt(shard);
    std::unique_lock lk(mu_);
    if (!running_.load(std::memory_order_relaxed) || ssp == nullptr) {
        lk.unlock();
        // Position-clamped: a no-op when the topology shrank under the
        // caller (there is no shard left to checkpoint at @p shard).
        store_.advanceShardEpoch(shard);
        return;
    }
    ShardState &ss = *ssp;
    // As in advanceAllAndWait: an advance already in flight may have
    // flushed before this call's writes landed, so it does not count as
    // the barrier boundary — require one more full advance after it.
    const std::uint64_t target =
        ss.counters.advances + 1 + (ss.inProgress ? 1 : 0);
    ss.urgent = true;
    workCv_.notify_all();
    bool complete = false;
    doneCv_.wait(lk, [&] {
        if (stopFlag_)
            return true;
        if (ss.counters.advances >= target) {
            complete = true;
            return true;
        }
        syncMembers();
        return !isMember(ss); // merged away mid-wait: nothing to do
    });
    if (!complete) {
        // stop() interrupted the barrier; checkpoint inline rather than
        // return a false success (a no-op for a merged-away shard).
        lk.unlock();
        store_.advanceMemberEpoch(ss.poolId);
    }
}

std::uint64_t
EpochService::logDebt(unsigned shard) const
{
    const ShardState *ss = stateAt(shard);
    return ss != nullptr ? debtOf(*ss) : 0;
}

void
EpochService::throttle(unsigned shard)
{
    if (!running_.load(std::memory_order_acquire))
        return;
    ShardState *ssp = stateAt(shard);
    if (ssp == nullptr)
        return;
    ShardState &ss = *ssp;
    const std::uint64_t debt = debtOf(ss);
    // Adaptive debt kick: ask for an early boundary as soon as the debt
    // threshold trips — without blocking this writer. One kick per debt
    // episode (the flag clears at the next boundary), so the common case
    // stays lock-free.
    if (options_.adaptiveDebtBytes != 0 && debt > options_.adaptiveDebtBytes) {
        if (!ss.debtKicked.load(std::memory_order_relaxed) &&
            !ss.debtKicked.exchange(true, std::memory_order_acq_rel)) {
            {
                std::lock_guard lk(mu_);
                if (!stopFlag_) {
                    ss.urgent = true;
                    ss.counters.debtAdvances += 1;
                }
            }
            workCv_.notify_all();
        }
    }
    if (options_.maxLogBytesPerEpoch == 0)
        return;
    if (debt <= options_.maxLogBytesPerEpoch)
        return; // fast path: no lock taken

    const auto t0 = Clock::now();
    std::unique_lock lk(mu_);
    if (stopFlag_)
        return;
    ss.counters.throttleStalls += 1;
    ss.urgent = true;
    workCv_.notify_all();
    doneCv_.wait(lk, [&] {
        if (stopFlag_)
            return true;
        if (debtOf(ss) <= options_.maxLogBytesPerEpoch)
            return true;
        // Still over threshold (other writers refilled the log between
        // the boundary and this wake-up): re-arm the urgent flag — the
        // completed advance cleared it — or we would sleep until the
        // next scheduled deadline.
        if (!ss.urgent && !ss.inProgress) {
            ss.urgent = true;
            workCv_.notify_all();
        }
        return false;
    });
    ss.counters.throttleNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

EpochService::ShardCounters
EpochService::counters(unsigned shard) const
{
    const ShardState *ss = stateAt(shard);
    std::lock_guard lk(mu_);
    return ss != nullptr ? ss->counters : ShardCounters{};
}

EpochService::ShardCounters
EpochService::totalCounters() const
{
    std::lock_guard lk(mu_);
    ShardCounters total;
    for (const auto &ss : states_) {
        total.advances += ss->counters.advances;
        total.boundaryNs += ss->counters.boundaryNs;
        total.throttleStalls += ss->counters.throttleStalls;
        total.throttleNs += ss->counters.throttleNs;
        total.debtAdvances += ss->counters.debtAdvances;
        total.idleSkips += ss->counters.idleSkips;
    }
    return total;
}

} // namespace incll::service
