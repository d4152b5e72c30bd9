/**
 * @file
 * Distributed pins: one reader counter per thread slot, each on its own
 * cache line, and the two-set grace period built on them.
 *
 * Three layers need "wait until every operation of a kind that started
 * before now has left" without making the operations write a shared
 * line: the epoch gate (an advance drains the structure), the
 * allocator's drain fence (a boundary drains list operations) and the
 * range store's routing-table epoch (a commit's GC drains readers of
 * retired snapshots). All three use PinSlots, Dekker-style:
 *
 *   operation:  pin(slot) [seq_cst RMW], then re-check the drainer's
 *               word [seq_cst load]; on a stale word, unpin and retry
 *   drainer:    store its word [seq_cst], then waitIdle() [seq_cst
 *               loads of every slot]
 *
 * Either the drainer's load of the slot sees the pin, or the
 * operation's re-check sees the drainer's store. A pin costs one
 * uncontended RMW on a line only the threads of one slot write. The
 * slots count: a thread may hold nested pins, and threads beyond
 * kThreadSlots share a slot.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "common/compiler.h"

namespace incll {

/** Thread slots of every per-thread table (pins, allocator caches). */
inline constexpr unsigned kThreadSlots = 64;

/**
 * The calling thread's slot in [0, kThreadSlots): handed out round-robin
 * at the thread's first call, process-wide, and stable for the thread's
 * lifetime. The 65th thread shares slot 0 with the first.
 */
INCLL_INLINE unsigned
threadSlot()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned slot = kThreadSlots;
    if (INCLL_UNLIKELY(slot == kThreadSlots))
        slot = next.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
    return slot;
}

/** One pin counter per thread slot (4 KiB); see the file comment. */
class PinSlots
{
  public:
    INCLL_INLINE void
    pin(unsigned slot)
    {
        slots_[slot].pins.fetch_add(1, std::memory_order_seq_cst);
    }

    INCLL_INLINE void
    unpin(unsigned slot)
    {
        slots_[slot].pins.fetch_sub(1, std::memory_order_release);
    }

    /** Pins held right now, summed over the slots (diagnostics). */
    std::uint64_t
    total() const
    {
        std::uint64_t n = 0;
        for (const Slot &s : slots_)
            n += s.pins.load(std::memory_order_relaxed);
        return n;
    }

    /**
     * Wait until each slot has been seen at zero once, calling
     * @p onBusy between polls of a busy slot. Call it after the seq_cst
     * store of the drainer's word: a pin taken after that store fails
     * its re-check, so a slot seen at zero holds no pin that passed.
     */
    template <typename OnBusy>
    void
    waitIdle(OnBusy &&onBusy) const
    {
        for (const Slot &s : slots_)
            while (s.pins.load(std::memory_order_seq_cst) != 0)
                onBusy();
    }

    void
    waitIdle() const
    {
        for (const Slot &s : slots_) {
            Backoff backoff;
            while (s.pins.load(std::memory_order_seq_cst) != 0)
                backoff.pause();
        }
    }

  private:
    struct alignas(kCacheLineSize) Slot
    {
        std::atomic<std::uint64_t> pins{0};
    };
    Slot slots_[kThreadSlots];
};

/**
 * RCU-style grace periods over two pin sets (8 KiB, however many grace
 * periods run). A reader pins the current set and re-checks that it is
 * still current; synchronize() makes the other set current and waits
 * for the old one to drain. A reader that passed its re-check before
 * the flip is on the old set and is waited for. One that passed it
 * after the flip started after synchronize() did. A pin still on the
 * new set from before the previous flip was drained by the previous
 * synchronize(). So two sets suffice, provided synchronize() calls
 * never overlap.
 */
class GracePins
{
  public:
    /** What exit() needs to release one enter(). */
    struct Pin
    {
        unsigned set = 0;
        unsigned slot = 0;
    };

    struct NoHook
    {
        void operator()() const {}
    };

    /**
     * Pin the current set for the calling thread. @p afterRead runs
     * between reading which set is current and pinning it: a seam for
     * tests to land a grace period in the race the re-check closes.
     * Callers pass nothing.
     */
    template <typename AfterRead = NoHook>
    INCLL_INLINE Pin
    enter(AfterRead &&afterRead = {})
    {
        const unsigned slot = threadSlot();
        for (;;) {
            const unsigned set = current_.load(std::memory_order_seq_cst);
            afterRead();
            sets_[set].pin(slot);
            if (INCLL_LIKELY(current_.load(std::memory_order_seq_cst) ==
                             set))
                return {set, slot};
            sets_[set].unpin(slot); // a flip raced in; pin the new set
        }
    }

    INCLL_INLINE void
    exit(Pin p)
    {
        sets_[p.set].unpin(p.slot);
    }

    /**
     * Wait until every enter() that returned before this call has
     * exited, calling @p onBusy between polls. The caller serializes
     * synchronize() calls. So a reader that, after enter(), loaded a
     * pointer the caller replaced before this call has let go of the
     * old value when it returns.
     */
    template <typename OnBusy>
    void
    synchronize(OnBusy &&onBusy)
    {
        const unsigned old = current_.load(std::memory_order_relaxed);
        current_.store(old ^ 1, std::memory_order_seq_cst);
        sets_[old].waitIdle(onBusy);
    }

    /** Pins on the set a running synchronize() waits for. */
    std::uint64_t
    draining() const
    {
        return sets_[current_.load(std::memory_order_relaxed) ^ 1].total();
    }

  private:
    PinSlots sets_[2];
    std::atomic<unsigned> current_{0};
};

} // namespace incll
