/**
 * @file
 * Re-entrant reader/advancer gate used as the per-epoch barrier.
 *
 * The paper's MT+ baseline and INCLL both rendezvous all worker threads
 * at every epoch boundary ("using a global barrier at each epoch", §6).
 * Operations run inside enter()/exit(); advancing the epoch acquires the
 * gate exclusively so the global cache flush and the log truncation see
 * a quiescent structure, then releases it.
 *
 * The fast path must cost almost nothing per operation, so each thread
 * publishes its in-flight state as a PinSlots pin on its own cache line
 * (common/pin_slots.h): one uncontended sequentially-consistent RMW on
 * entry (the StoreLoad ordering against the advancer's flag — the
 * classic Dekker pattern) and one release RMW on exit. The advancer
 * raises its flag and waits for the slots to go idle.
 *
 * Re-entrancy: each thread keeps a small thread-local list of the gates
 * it currently holds, with a per-gate entry depth. A nested enter() on a
 * held gate only bumps the depth — no atomics and, crucially, no look at
 * advancing_: backing out there would deadlock against an advancer that
 * is itself waiting for this thread's outer entry to exit. This is what
 * lets a cross-shard scan hold every owning shard's gate across its
 * merged callbacks while the per-shard tree scans re-enter the same
 * gates, and what lets the batched store operations enter a shard's gate
 * once per batch with the per-op guards collapsing to depth bumps.
 *
 * advancePending() lets a scheduler look before it enters: the server's
 * executor leaves a shard's batch queued while that shard's boundary
 * runs and serves the other shards instead.
 */
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/compiler.h"
#include "common/pin_slots.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace incll {

class EpochGate
{
  public:
    static constexpr unsigned kSlots = kThreadSlots;

    /**
     * Begin a structure operation; blocks only while an advance runs.
     * Re-entrant: nested entries by the same thread always succeed
     * immediately, even while an advance is pending.
     */
    INCLL_INLINE void
    enter()
    {
        if (HeldEntry *held = findHeld()) {
            ++held->depth;
            return;
        }
        const unsigned slot = threadSlot();
        while (true) {
            // The pin is ordered before the advancing_ load (Dekker with
            // lockExclusive(); see common/pin_slots.h).
            slots_.pin(slot);
            if (INCLL_LIKELY(
                    !advancing_.load(std::memory_order_seq_cst)))
                break;
            // An advance is pending: back out and wait. The stall is the
            // boundary cost a worker actually observes; count it so the
            // benches can report exposed vs hidden advance latency.
            slots_.unpin(slot);
            const auto waitStart = std::chrono::steady_clock::now();
            Backoff backoff;
            while (advancing_.load(std::memory_order_acquire))
                backoff.pause();
            const auto waitedNs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - waitStart)
                    .count());
            globalStats().add(Stat::kGateWaitNs, waitedNs);
            obs::recordNs(obs::Hist::kGateWaitNs, waitedNs);
            // Per-thread running total: lets latency attribution (the
            // slow-op tracer) ask how much of an op was gate stall.
            obs::threadGateWaitNs() += waitedNs;
        }
        heldList().push_back(HeldEntry{this, 1});
    }

    /** End a structure operation (innermost first, as RAII guarantees). */
    INCLL_INLINE void
    exit()
    {
        HeldEntry *held = findHeld();
        assert(held != nullptr && "exit() without matching enter()");
        if (--held->depth > 0)
            return;
        auto &list = heldList();
        *held = list.back();
        list.pop_back();
        slots_.unpin(threadSlot());
    }

    /** True iff the calling thread is inside enter()/exit() on this gate. */
    bool
    heldByThisThread() const
    {
        return findHeld() != nullptr;
    }

    /** Calling thread's nesting depth on this gate (0 = not held). */
    unsigned
    depthOfThisThread() const
    {
        const HeldEntry *held = findHeld();
        return held != nullptr ? held->depth : 0;
    }

    /**
     * True while an advance holds the gate or waits for it to drain —
     * exactly when a fresh enter() would stall. A hint read without
     * entering: an advance can begin or end right after it returns.
     */
    bool
    advancePending() const
    {
        return advancing_.load(std::memory_order_acquire);
    }

    /**
     * Block new entrants and wait until the structure is quiescent. Must
     * not be called by a thread currently inside enter()/exit() on this
     * gate — the advancer would wait for its own entry.
     */
    void
    lockExclusive()
    {
        assert(!heldByThisThread() &&
               "advance from inside a gated operation would self-deadlock");
        bool expected = false;
        Backoff acquireBackoff;
        while (!advancing_.compare_exchange_weak(
            expected, true, std::memory_order_seq_cst)) {
            expected = false;
            acquireBackoff.pause();
        }
        slots_.waitIdle();
    }

    /** Re-admit workers after an epoch advance. */
    void
    unlockExclusive()
    {
        advancing_.store(false, std::memory_order_release);
    }

    /** RAII guard for worker-side enter/exit. */
    class Guard
    {
      public:
        explicit Guard(EpochGate &gate) : gate_(gate) { gate_.enter(); }
        ~Guard() { gate_.exit(); }
        Guard(const Guard &) = delete;
        Guard &operator=(const Guard &) = delete;

      private:
        EpochGate &gate_;
    };

  private:
    /** One held gate of the calling thread. */
    struct HeldEntry
    {
        const EpochGate *gate;
        std::uint32_t depth;
    };

    /**
     * Gates held by the calling thread right now. A thread rarely holds
     * more than one (a cross-shard scan holds one per shard), so a flat
     * vector with linear search beats any map; after the first few
     * entries it never allocates again.
     */
    static std::vector<HeldEntry> &
    heldList()
    {
        thread_local std::vector<HeldEntry> list;
        return list;
    }

    HeldEntry *
    findHeld() const
    {
        for (HeldEntry &e : heldList())
            if (e.gate == this)
                return &e;
        return nullptr;
    }

    PinSlots slots_;
    std::atomic<bool> advancing_{false};
};

} // namespace incll
