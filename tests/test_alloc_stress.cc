/**
 * @file
 * Multithreaded allocator stress: 8 workers hammer alloc/free and the
 * batched allocMany/freeMany across two size classes while an advancer
 * thread drives epoch boundaries through the workload. Checks the
 * exactly-once hand-out property under contention (the global live set
 * never sees a duplicate) and the EBR rule (an object freed in epoch e
 * is handed out again only in a later epoch). TSan-clean by design —
 * every cross-thread access is an atomic or happens-before'd by the
 * drain fence — so the suite is also registered under the tsan label
 * (ctest -L tsan).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "alloc/durable_alloc.h"
#include "epoch/epoch_manager.h"
#include "nvm/pool.h"

namespace incll {
namespace {

TEST(AllocStress, MixedChurnManyThreads)
{
    nvm::Pool pool(1u << 26, nvm::Mode::kDirect);
    auto *area = static_cast<char *>(pool.rootArea());
    auto *epochWord = reinterpret_cast<std::uint64_t *>(area);
    auto *failedRec = reinterpret_cast<FailedEpochRecord *>(area + 64);
    EpochManager epochs(pool, epochWord, failedRec, true);
    DurableAllocator alloc(
        pool, epochs, reinterpret_cast<std::uint64_t *>(area + 8), true,
        4, 1u << 16);

    constexpr unsigned kThreads = 8;
    constexpr int kRounds = 60;
    constexpr std::size_t kSizes[2] = {48, 1024};

    // Global live set: every handed-out object is inserted (insertion
    // must succeed — a duplicate is a double hand-out) and erased just
    // before it is freed: once freed, the next boundary may promote it
    // and another thread may be handed it. freedIn keeps the epoch read
    // just before each free; an object handed out again must come back
    // in a later epoch than that (the allocator's EBR rule), checked
    // against an epoch read after the allocation returned — the free's
    // real epoch is at least the first read and the allocation's at
    // most the second, so the check cannot fire falsely. Guarded by a
    // mutex, touched once per batch to keep the stress on the
    // allocator rather than the bookkeeping.
    std::mutex mu;
    std::set<void *> live;
    std::map<void *, std::uint64_t> freedIn;
    std::atomic<bool> stop{false};

    // Take @p ps out of the live set and stamp their free epoch; the
    // caller frees them after this returns.
    auto retire = [&](void *const *ps, std::size_t n) {
        std::lock_guard<std::mutex> g(mu);
        const std::uint64_t epoch = epochs.currentEpoch();
        for (std::size_t j = 0; j < n; ++j) {
            live.erase(ps[j]);
            freedIn[ps[j]] = epoch;
        }
    };

    std::thread advancer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            epochs.advance();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });

    std::vector<std::thread> workers;
    for (unsigned tid = 0; tid < kThreads; ++tid) {
        workers.emplace_back([&, tid] {
            std::vector<void *> mine;   // this thread's live objects
            std::vector<std::size_t> sz;
            std::uint64_t r = 0x9e3779b97f4a7c15ULL * (tid + 1);
            auto rnd = [&r] {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                return r;
            };
            for (int round = 0; round < kRounds; ++round) {
                const std::size_t bytes = kSizes[rnd() % 2];
                void *batch[8];
                if (rnd() % 2 == 0) {
                    alloc.allocMany(bytes, batch, 8);
                } else {
                    for (auto &p : batch)
                        p = alloc.alloc(bytes);
                }
                {
                    const std::uint64_t allocEpoch = epochs.currentEpoch();
                    std::lock_guard<std::mutex> g(mu);
                    for (void *p : batch) {
                        ASSERT_TRUE(live.insert(p).second)
                            << "double hand-out of " << p;
                        const auto it = freedIn.find(p);
                        if (it == freedIn.end())
                            continue;
                        ASSERT_GT(allocEpoch, it->second)
                            << p << " handed out again in the epoch it "
                            << "was freed in";
                        freedIn.erase(it);
                    }
                }
                for (void *p : batch) {
                    mine.push_back(p);
                    sz.push_back(bytes);
                }
                // Return roughly half of what this thread holds, in
                // same-size batches when possible.
                while (mine.size() > 32) {
                    void *fb[8] = {};
                    std::size_t n = 0;
                    const std::size_t want = sz.back();
                    while (n < 8 && !mine.empty() && sz.back() == want) {
                        fb[n++] = mine.back();
                        mine.pop_back();
                        sz.pop_back();
                    }
                    retire(fb, n);
                    if (n > 1)
                        alloc.freeMany(fb, n, want);
                    else
                        alloc.free(fb[0], want);
                }
            }
            // Drop the remainder so the final accounting is empty.
            retire(mine.data(), mine.size());
            for (std::size_t j = 0; j < mine.size(); ++j)
                alloc.free(mine[j], sz[j]);
        });
    }
    for (auto &w : workers)
        w.join();
    stop.store(true, std::memory_order_relaxed);
    advancer.join();

    EXPECT_TRUE(live.empty());

    // Everything freed above promotes within two boundaries; the
    // pending lists must then be empty in every arena.
    epochs.advance();
    epochs.advance();
    for (std::uint32_t a = 0; a < alloc.numArenas(); ++a)
        for (const std::size_t bytes : kSizes)
            EXPECT_EQ(alloc.pendingCount(a, SizeClasses::classOf(bytes)),
                      0u);
    alloc.drainLocalCaches();
}

} // namespace
} // namespace incll
