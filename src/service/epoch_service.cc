/**
 * @file
 * EpochService implementation: deadline scheduling, urgent advances,
 * and write backpressure over a ShardedStore.
 */
#include "service/epoch_service.h"

#include <algorithm>
#include <cassert>

#include "obs/export.h"

namespace incll::service {

EpochService::EpochService(store::ShardedStore &store, Options options)
    : store_(store), options_(options)
{
    assert(options_.threads > 0);
    // Fixed-capacity per-position state: an elastic store's member
    // count can grow, but never beyond the manifest's membership cap (a
    // hash store never changes its count, and may be larger).
    // Allocating every slot up front means shards_ never resizes, so
    // throttle()'s lock-free fast path can index it from any thread;
    // slots at positions the store does not currently have are simply
    // never scheduled (activeCount()).
    const unsigned cap =
        std::max(store_.shardCount(), store::Manifest::kMaxMembers);
    shards_.reserve(cap);
    for (unsigned i = 0; i < cap; ++i)
        shards_.push_back(std::make_unique<ShardState>());
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

std::uint64_t
EpochService::logBytes(unsigned shard) const
{
    // Routed through the store's position-clamped accessor: a topology
    // commit can shrink the member set between our sampling a position
    // and using it, and the store answers 0 for a position it no longer
    // has instead of faulting.
    return store_.shardLogBytes(shard);
}

unsigned
EpochService::activeCount() const
{
    // Positions the store currently has; safe from any thread with or
    // without mu_ (shards_ is fixed-size, the store count is atomic).
    return std::min<unsigned>(static_cast<unsigned>(shards_.size()),
                              store_.shardCount());
}

void
EpochService::start()
{
    std::unique_lock lk(mu_);
    if (running_.load(std::memory_order_relaxed))
        return;
    stopFlag_ = false;
    const auto firstDeadline = Clock::now() + options_.interval;
    for (unsigned i = 0; i < shards_.size(); ++i) {
        ShardState &ss = *shards_[i];
        ss.deadline = firstDeadline;
        ss.urgent = false;
        ss.inProgress = false;
        ss.bytesAtBoundary.store(logBytes(i), std::memory_order_relaxed);
        ss.debtKicked.store(false, std::memory_order_relaxed);
    }
    nextSample_ = firstDeadline - options_.interval + options_.sampleInterval;
    running_.store(true, std::memory_order_release);
    // At most one service thread per shard can ever be busy.
    const unsigned n = std::min<unsigned>(
        options_.threads, static_cast<unsigned>(shards_.size()));
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
    const bool sampling = options_.sampleInterval.count() > 0;

    std::unique_lock lk(mu_);
    while (!stopFlag_) {
        const auto now = Clock::now();
        // Metrics delta sampling: whichever thread notices the deadline
        // claims it (re-arming under the lock), then samples outside it
        // — collection walks every registry slab and must not hold up
        // urgent-advance requests.
        if (sampling && now >= nextSample_) {
            nextSample_ = now + options_.sampleInterval;
            lk.unlock();
            obs::globalSampler().sample();
            lk.lock();
            continue;
        }
        int pick = -1;
        bool pickUrgent = false;
        auto earliest = Clock::time_point::max();
        // Only positions the store currently has are schedulable — the
        // member set changes at topology commits, and re-reading the
        // count every pass is what makes the service follow them: a
        // fresh shard starts being advanced on its slot's (stale but
        // harmless) deadline, a merged-away position simply stops.
        const unsigned active = activeCount();
        // Urgent shards first (backpressure and explicit requests have
        // a caller blocked on them), then the most overdue deadline —
        // the latter only once this thread's pacing allows.
        for (unsigned i = 0; i < active; ++i) {
            ShardState &ss = *shards_[i];
            if (ss.inProgress)
                continue;
            if (ss.urgent) {
                pick = static_cast<int>(i);
                pickUrgent = true;
                break;
            }
            // Idle elision: a due shard whose epoch took no durable
            // store skips its boundary and re-arms. The skip is never
            // marked in progress nor counted as an advance: a barrier
            // adds one to its target for an advance in flight, and must
            // not end up waiting on a scheduled one that is skipped.
            if (ss.deadline <= now && store_.skipIdleShardEpoch(i)) {
                ss.deadline = now + options_.interval;
                ss.counters.idleSkips += 1;
            }
            if (now >= eligible && ss.deadline <= now &&
                (pick < 0 || ss.deadline < shards_[pick]->deadline))
                pick = static_cast<int>(i);
            earliest = std::min(earliest, ss.deadline);
        }
        if (pick < 0) {
            // Sleep to the next actionable instant: this thread's
            // pacing gate or the earliest deadline, whichever is later
            // of the pair that applies. An urgent request notifies the
            // CV and cuts any of these waits short.
            auto wake = earliest == Clock::time_point::max()
                            ? earliest
                            : std::max(earliest, eligible);
            if (sampling)
                wake = std::min(wake, nextSample_); // pacing never delays it
            if (wake == Clock::time_point::max())
                workCv_.wait(lk);
            else
                workCv_.wait_until(lk, wake);
            continue;
        }

        ShardState &ss = *shards_[pick];
        ss.inProgress = true;
        ss.urgent = false;
        lk.unlock();

        // The boundary itself: quiesce the shard's gate, flush, open the
        // next epoch, truncate its log — all off the request path. Other
        // shards keep serving throughout.
        const auto t0 = Clock::now();
        store_.advanceShardEpoch(static_cast<unsigned>(pick));
        const auto tEnd = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(tEnd - t0)
                .count());
        const std::uint64_t bytesNow =
            logBytes(static_cast<unsigned>(pick));
        if (!pickUrgent)
            eligible = tEnd + std::chrono::nanoseconds(static_cast<
                std::int64_t>(static_cast<double>(ns) *
                              (1.0 - kMaxDutyCycle) / kMaxDutyCycle));

        lk.lock();
        ss.bytesAtBoundary.store(bytesNow, std::memory_order_relaxed);
        ss.debtKicked.store(false, std::memory_order_relaxed);
        ss.counters.advances += 1;
        ss.counters.boundaryNs += ns;
        ss.inProgress = false;
        ss.deadline = tEnd + options_.interval;
        doneCv_.notify_all();
    }
}

void
EpochService::requestAdvance(unsigned shard)
{
    std::lock_guard lk(mu_);
    if (!running_.load(std::memory_order_relaxed) ||
        shard >= shards_.size())
        return;
    shards_[shard]->urgent = true;
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
    const unsigned active = activeCount();
    std::vector<std::uint64_t> target(active);
    for (unsigned i = 0; i < active; ++i) {
        // An advance already in flight may have flushed before this
        // call's writes landed, so it does not count as the barrier
        // boundary — require one more full advance after it.
        target[i] = shards_[i]->counters.advances + 1 +
                    (shards_[i]->inProgress ? 1 : 0);
        shards_[i]->urgent = true;
    }
    workCv_.notify_all();
    bool complete = false;
    doneCv_.wait(lk, [&] {
        if (stopFlag_)
            return true;
        // A position merged away mid-barrier stops being schedulable
        // (and has no shard left to checkpoint): drop it from the wait
        // rather than hang on an advance that can never run.
        const unsigned act = activeCount();
        for (unsigned i = 0; i < std::min(active, act); ++i)
            if (shards_[i]->counters.advances < target[i])
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
    std::unique_lock lk(mu_);
    if (!running_.load(std::memory_order_relaxed) ||
        shard >= activeCount()) {
        lk.unlock();
        // Position-clamped: a no-op when the topology shrank under the
        // caller (there is no shard left to checkpoint at @p shard).
        store_.advanceShardEpoch(shard);
        return;
    }
    ShardState &ss = *shards_[shard];
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
        if (shard >= activeCount()) // merged away mid-wait: nothing to do
            return true;
        if (ss.counters.advances >= target) {
            complete = true;
            return true;
        }
        return false;
    });
    if (!complete) {
        // stop() interrupted the barrier; checkpoint inline rather than
        // return a false success.
        lk.unlock();
        store_.advanceShardEpoch(shard);
    }
}

std::uint64_t
EpochService::logDebt(unsigned shard) const
{
    if (shard >= shards_.size())
        return 0;
    const std::uint64_t atBoundary =
        shards_[shard]->bytesAtBoundary.load(std::memory_order_relaxed);
    const std::uint64_t now = logBytes(shard);
    return now > atBoundary ? now - atBoundary : 0;
}

void
EpochService::throttle(unsigned shard)
{
    if (!running_.load(std::memory_order_acquire) ||
        shard >= shards_.size())
        return;
    const std::uint64_t debt = logDebt(shard);
    // Adaptive debt kick: ask for an early boundary as soon as the debt
    // threshold trips — without blocking this writer. One kick per debt
    // episode (the flag clears at the next boundary), so the common case
    // stays two relaxed loads and one atomic read.
    if (options_.adaptiveDebtBytes != 0 && debt > options_.adaptiveDebtBytes) {
        ShardState &ss = *shards_[shard];
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
    ShardState &ss = *shards_[shard];
    if (stopFlag_)
        return;
    ss.counters.throttleStalls += 1;
    ss.urgent = true;
    workCv_.notify_all();
    doneCv_.wait(lk, [&] {
        if (stopFlag_)
            return true;
        if (logDebt(shard) <= options_.maxLogBytesPerEpoch)
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
    std::lock_guard lk(mu_);
    return shards_[shard]->counters;
}

EpochService::ShardCounters
EpochService::totalCounters() const
{
    std::lock_guard lk(mu_);
    ShardCounters total;
    for (const auto &ss : shards_) {
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
