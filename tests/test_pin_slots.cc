/**
 * @file
 * The distributed-pin primitive alone, with no tree (tier1; also the
 * tsan_pins entry: the pins and the drain are plain atomics that
 * ThreadSanitizer checks).
 *
 * GracePins is the range store's routing-table epoch: readers pin the
 * current set, and synchronize() flips sets and waits the old one out.
 * The directed tests pin down what a grace period waits for (earlier
 * pins, nested pins, a pin whose read of the current set a grace
 * period overtook) and what it must not (later pins). The stress
 * test races readers against back-to-back grace periods and checks
 * the RCU contract from both sides: no reader still holds, or sees
 * reclaimed, a version reclaimed after a grace period it preceded.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/pin_slots.h"

namespace incll {
namespace {

using namespace std::chrono_literals;

/** Runs synchronize() on its own thread; reports when it is waiting
 *  (the flip is done) and when it has returned. */
class Synchronizer
{
  public:
    explicit Synchronizer(GracePins &pins)
    {
        thread_ = std::thread([this, &pins] {
            pins.synchronize([this] {
                waiting_.store(true, std::memory_order_release);
                std::this_thread::yield();
            });
            done_.store(true, std::memory_order_release);
        });
    }

    ~Synchronizer() { thread_.join(); }

    /** Block until synchronize() has flipped and found a busy slot, or
     *  has returned without finding one. */
    void
    awaitWaiting() const
    {
        while (!waiting_.load(std::memory_order_acquire) && !done())
            std::this_thread::yield();
    }

    bool done() const { return done_.load(std::memory_order_acquire); }

    /** Poll for @p d; true iff synchronize() returned meanwhile. */
    bool
    returnsWithin(std::chrono::milliseconds d) const
    {
        const auto until = std::chrono::steady_clock::now() + d;
        while (std::chrono::steady_clock::now() < until) {
            if (done())
                return true;
            std::this_thread::sleep_for(1ms);
        }
        return done();
    }

  private:
    std::atomic<bool> waiting_{false};
    std::atomic<bool> done_{false};
    std::thread thread_;
};

TEST(GracePins, IdleSynchronizeReturnsAtOnce)
{
    GracePins pins;
    for (int i = 0; i < 3; ++i)
        pins.synchronize([] { FAIL() << "no pin to wait for"; });
}

TEST(GracePins, WaitsForEarlierPinsButNotLaterOnes)
{
    GracePins pins;
    const GracePins::Pin early = pins.enter();
    {
        Synchronizer first(pins);
        first.awaitWaiting();
        // A pin taken after the flip lands on the other set: the running
        // grace period must not wait for it.
        std::promise<void> pinned, release;
        std::thread late([&] {
            const GracePins::Pin p = pins.enter();
            pinned.set_value();
            release.get_future().wait();
            pins.exit(p);
        });
        pinned.get_future().wait();
        EXPECT_FALSE(first.returnsWithin(20ms))
            << "grace period ended while an earlier pin was live";
        pins.exit(early);
        EXPECT_TRUE(first.returnsWithin(10s))
            << "grace period waited for a pin taken after it began";
        {
            // The next grace period must wait for that later pin.
            Synchronizer second(pins);
            second.awaitWaiting();
            EXPECT_FALSE(second.returnsWithin(20ms))
                << "second grace period ignored a pin from before it";
            release.set_value();
            late.join();
            EXPECT_TRUE(second.returnsWithin(10s));
        }
    }
    EXPECT_EQ(pins.draining(), 0u);
}

TEST(GracePins, NestedPinsOnOneSlotAllCount)
{
    GracePins pins;
    const GracePins::Pin outer = pins.enter();
    const GracePins::Pin inner = pins.enter();
    ASSERT_EQ(outer.slot, inner.slot);
    Synchronizer sync(pins);
    sync.awaitWaiting();
    pins.exit(inner);
    EXPECT_FALSE(sync.returnsWithin(20ms))
        << "the inner exit released the outer pin too";
    pins.exit(outer);
    EXPECT_TRUE(sync.returnsWithin(10s));
}

TEST(GracePins, PinRacingAFlipMovesToTheNewSet)
{
    // enter() reads which set is current, then pins it. A grace period
    // that runs in between leaves the read stale: the re-check must
    // move the pin to the new current set, or the next grace period,
    // which drains exactly that set, would miss it.
    GracePins pins;
    bool raced = false;
    const GracePins::Pin p = pins.enter([&] {
        if (!raced) {
            raced = true;
            pins.synchronize([] {}); // nothing pinned yet: returns
        }
    });
    ASSERT_TRUE(raced);
    Synchronizer next(pins);
    next.awaitWaiting();
    EXPECT_FALSE(next.returnsWithin(20ms))
        << "a pin that raced a flip escaped the next grace period";
    pins.exit(p);
    EXPECT_TRUE(next.returnsWithin(10s));
}

TEST(GracePins, NoPinOutlivesTheGracePeriodAfterIt)
{
    // The writer retires version v by publishing v+1, runs a grace
    // period, then reclaims v. A reader pins, loads the version,
    // announces it in its own word, spins, clears the word and unpins.
    // After each grace period the writer checks that no reader still
    // announces a reclaimed version; each reader checks the same before
    // it unpins. More readers than thread slots, so some share a slot's
    // counter, and every third nests a second pin. Readers mostly spin
    // rather than yield, so the scheduler preempts them at arbitrary
    // points, inside enter() too: there a pin that skipped the re-check
    // would land on a set the flip already retired, and slip past the
    // next grace period.
    constexpr unsigned kReaders = kThreadSlots + 4;
    constexpr auto kBudget = 400ms;
    struct alignas(kCacheLineSize) Announced
    {
        std::atomic<std::uint64_t> version{0};
    };
    GracePins pins;
    std::atomic<std::uint64_t> published{1};
    std::atomic<std::uint64_t> reclaimed{0};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> readerViolations{0};
    std::atomic<unsigned> ready{0};
    std::vector<Announced> announced(kReaders);

    auto isReclaimed = [&](std::uint64_t v) {
        return reclaimed.load(std::memory_order_acquire) >= v;
    };
    std::vector<std::thread> readers;
    std::mutex slotsMu;
    std::set<unsigned> slots;
    for (unsigned r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
            {
                std::lock_guard lk(slotsMu);
                slots.insert(threadSlot());
            }
            ready.fetch_add(1);
            for (std::uint64_t pass = 1;
                 !stop.load(std::memory_order_relaxed); ++pass) {
                const GracePins::Pin p = pins.enter();
                const std::uint64_t v =
                    published.load(std::memory_order_acquire);
                announced[r].version.store(v, std::memory_order_release);
                if (r % 3 == 0) {
                    const GracePins::Pin q = pins.enter();
                    if (isReclaimed(published.load(
                            std::memory_order_acquire)))
                        readerViolations.fetch_add(1);
                    pins.exit(q);
                }
                for (unsigned i = 0; i < 64 * (pass % 4); ++i)
                    cpuRelax();
                if (isReclaimed(v))
                    readerViolations.fetch_add(1);
                announced[r].version.store(0, std::memory_order_release);
                pins.exit(p);
                if (pass % 64 == 0)
                    std::this_thread::yield();
            }
        });
    }
    while (ready.load() < kReaders)
        std::this_thread::yield();
    EXPECT_EQ(slots.size(), kThreadSlots) << "some thread slot unused";

    std::uint64_t gracePeriods = 0;
    std::uint64_t writerViolations = 0;
    const auto until = std::chrono::steady_clock::now() + kBudget;
    while (std::chrono::steady_clock::now() < until) {
        const std::uint64_t v = published.load(std::memory_order_relaxed);
        published.store(v + 1, std::memory_order_seq_cst);
        pins.synchronize([] { cpuRelax(); });
        reclaimed.store(v, std::memory_order_release);
        for (const Announced &a : announced) {
            const std::uint64_t held =
                a.version.load(std::memory_order_acquire);
            if (held != 0 && held <= v)
                ++writerViolations;
        }
        ++gracePeriods;
    }
    stop.store(true);
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(writerViolations, 0u)
        << "a pin outlived the grace period after it, of "
        << gracePeriods;
    EXPECT_EQ(readerViolations.load(), 0u)
        << "a reader saw the version it pinned reclaimed";
    EXPECT_GT(gracePeriods, 10u);
    EXPECT_EQ(pins.draining(), 0u);
}

} // namespace
} // namespace incll
