/**
 * @file
 * Lock-free durable allocator tests: batched alloc/free round trips,
 * staged frees made durable by the boundary's prepare hook, allocMany
 * refilling the thread cache, first-touch arena assignment, arena
 * auto-sizing, and a crash-injection storm that aborts operations at
 * every phase of the lock-free protocol (setPhaseHook) and verifies recovery
 * reconstructs the free-list state exactly-once — no object is ever
 * both live and on a list, nothing is handed out twice, and the leak is
 * bounded by the documented cache/slab strand.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "alloc/durable_alloc.h"
#include "common/stats.h"
#include "epoch/epoch_manager.h"
#include "nvm/pool.h"

namespace incll {
namespace {

/** Thrown by the phase hook to model a crash at a protocol point. */
struct CrashPoint
{
};

struct LockFreeAllocFixture : ::testing::Test
{
    void
    SetUp() override
    {
        reset();
    }

    void
    TearDown() override
    {
        alloc.reset();
        epochs.reset();
        if (pool)
            nvm::unregisterTrackedPool(*pool);
    }

    /** Fresh pool + epoch manager (drops any previous instance). */
    void
    reset(std::size_t poolBytes = 1u << 22)
    {
        alloc.reset();
        epochs.reset();
        if (pool)
            nvm::unregisterTrackedPool(*pool);
        pool = std::make_unique<nvm::Pool>(poolBytes, nvm::Mode::kTracked);
        nvm::registerTrackedPool(*pool);
        auto *area = static_cast<char *>(pool->rootArea());
        epochWord = reinterpret_cast<std::uint64_t *>(area);
        statePtr = reinterpret_cast<std::uint64_t *>(area + 8);
        failedRec = reinterpret_cast<FailedEpochRecord *>(area + 64);
        epochs = std::make_unique<EpochManager>(*pool, epochWord,
                                                failedRec, true);
    }

    void
    makeFresh(std::uint32_t arenas, std::size_t slabBytes)
    {
        alloc = std::make_unique<DurableAllocator>(
            *pool, *epochs, statePtr, true, arenas, slabBytes);
    }

    /** Simulated crash + restart of the epoch/alloc stack. */
    DurableAllocator *
    crashAndRecover()
    {
        pool->crash();
        epochs = std::make_unique<EpochManager>(*pool, epochWord,
                                                failedRec, false);
        epochs->markCrashRecovery();
        alloc = std::make_unique<DurableAllocator>(
            *pool, *epochs, statePtr, false, 8, 1u << 18);
        alloc->recoverHeads();
        return alloc.get();
    }

    std::unique_ptr<nvm::Pool> pool;
    std::unique_ptr<EpochManager> epochs;
    std::unique_ptr<DurableAllocator> alloc;
    std::uint64_t *epochWord = nullptr;
    std::uint64_t *statePtr = nullptr;
    FailedEpochRecord *failedRec = nullptr;
};

TEST_F(LockFreeAllocFixture, BatchedAllocFreeRoundTrip)
{
    makeFresh(1, 1u << 16);
    const auto cls = SizeClasses::classOf(48);

    std::vector<void *> objs(100);
    alloc->allocMany(48, objs.data(), objs.size());
    std::set<void *> seen(objs.begin(), objs.end());
    EXPECT_EQ(seen.size(), objs.size());
    for (void *p : objs)
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);

    alloc->freeMany(objs.data(), objs.size(), 48);
    EXPECT_EQ(alloc->pendingCount(0, cls), objs.size());

    epochs->advance();
    EXPECT_EQ(alloc->pendingCount(0, cls), 0u);

    // The freed batch is reusable now: a same-size batch must overlap.
    std::vector<void *> again(100);
    alloc->allocMany(48, again.data(), again.size());
    std::size_t reused = 0;
    for (void *p : again)
        reused += seen.count(p);
    EXPECT_GT(reused, 0u);
}

TEST_F(LockFreeAllocFixture, StagedFreesDurableAtBoundary)
{
    makeFresh(1, 1u << 16);
    const auto cls = SizeClasses::classOf(48);

    // Commit a few live objects, then free fewer than a buffer's worth:
    // they are staged in this thread's buffer, on no list yet.
    std::vector<void *> objs(DurableAllocator::kCacheTarget / 2);
    for (auto &p : objs)
        p = alloc->alloc(48);
    epochs->advance();
    for (void *p : objs)
        alloc->free(p, 48);
    ASSERT_TRUE(alloc->listObjects(0, cls, false, true).empty());
    ASSERT_EQ(alloc->pendingCount(0, cls), objs.size());

    // The boundary must push them onto the pending list before its
    // flush; a crash right after it, with no further work, must find
    // every one of them on a recovered list.
    epochs->advance();
    DurableAllocator *rec = crashAndRecover();
    std::set<void *> onLists;
    for (const bool pending : {false, true}) {
        const auto l = rec->listObjects(0, cls, false, pending);
        onLists.insert(l.begin(), l.end());
    }
    for (void *p : objs)
        EXPECT_EQ(onLists.count(p), 1u) << p << " freed in a committed "
                                        << "epoch is on no list";
}

TEST_F(LockFreeAllocFixture, AllocManyRefillsThreadCache)
{
    makeFresh(1, 1u << 16);
    // A cold batch pops its shortfall plus one cache load; the next
    // batches are served from the cache without touching the list.
    const auto hits = [] {
        return globalStats().get(Stat::kAllocFastPathHits);
    };
    void *objs[8];
    const auto before = hits();
    alloc->allocMany(48, objs, 8);
    EXPECT_EQ(hits(), before);
    alloc->allocMany(48, objs, 8);
    EXPECT_EQ(hits(), before + 8);
    std::set<void *> seen(objs, objs + 8);
    EXPECT_EQ(seen.size(), 8u);
}

TEST_F(LockFreeAllocFixture, ArenaRoundRobinFirstTouch)
{
    makeFresh(4, 1u << 16);
    ASSERT_EQ(alloc->numArenas(), 4u);
    const auto cls = SizeClasses::classOf(48);

    // Four fresh threads: first-touch assignment must spread them over
    // all four arenas (round-robin), so each arena's pending list ends
    // up with exactly the one object its thread freed.
    std::vector<std::thread> ts;
    for (int i = 0; i < 4; ++i)
        ts.emplace_back([this] {
            void *p = alloc->alloc(48);
            alloc->free(p, 48);
        });
    for (auto &t : ts)
        t.join();

    for (std::uint32_t a = 0; a < 4; ++a)
        EXPECT_EQ(alloc->pendingCount(a, cls), 1u) << "arena " << a;
}

TEST_F(LockFreeAllocFixture, ArenaAutoSizing)
{
    makeFresh(0, 1u << 16); // 0 = auto-size
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned expect =
        std::clamp(hw, 1u, DurableAllocator::kMaxArenas);
    EXPECT_EQ(alloc->numArenas(), expect);
}

// ---------------------------------------------------------------------
// Crash-injection storm
// ---------------------------------------------------------------------

constexpr std::size_t kSmall = 48;
constexpr std::size_t kBig = 1024;
constexpr std::size_t kStormSlab = 1u << 12; // tiny slabs => many carves

/** Exact bookkeeping of what the durable state must look like. */
struct Books
{
    std::set<void *> committedLive; ///< live as of the last committed epoch
    std::set<void *> everAllocated; ///< every payload ever handed out
    std::map<void *, std::size_t> sizeOf;
    std::vector<void *> live; ///< current live set (incl. this epoch)
    std::vector<void *> epochAllocs, epochFrees;

    void
    onAlloc(void *p, std::size_t bytes)
    {
        // Exactly-once while running: a handed-out object must not
        // already be live.
        ASSERT_EQ(std::count(live.begin(), live.end(), p), 0)
            << "double hand-out of " << p;
        live.push_back(p);
        epochAllocs.push_back(p);
        everAllocated.insert(p);
        sizeOf[p] = bytes;
    }

    void
    onFree(void *p)
    {
        live.erase(std::find(live.begin(), live.end(), p));
        epochFrees.push_back(p);
    }

    /** The epoch committed: fold its deltas into the committed view. */
    void
    commitEpoch()
    {
        for (void *p : epochAllocs)
            committedLive.insert(p);
        for (void *p : epochFrees)
            committedLive.erase(p);
        epochAllocs.clear();
        epochFrees.clear();
    }

    /** The epoch failed at the crash: its deltas rolled back, so the
     *  live set is exactly the committed view again. */
    void
    rollbackEpoch()
    {
        live.assign(committedLive.begin(), committedLive.end());
        epochAllocs.clear();
        epochFrees.clear();
    }
};

/**
 * One storm cycle: run the mixed workload with a hook that throws at
 * the @p hit-th occurrence of @p target (no throw if it never fires
 * that often), crash, recover, and check every invariant. With
 * target == nullopt the workload runs hook-free and @p phaseCounts
 * receives how often each phase fired (used to size the storm).
 * @p prepareCrash, if given, is set iff the throw came out of advance()
 * before the durable epoch increment, i.e. from the prepare hook's push
 * of staged frees.
 */
void
stormCycle(LockFreeAllocFixture &fx, std::uint32_t seed,
           const DurableAllocator::Phase *target, std::uint64_t hit,
           std::map<DurableAllocator::Phase, std::uint64_t> *phaseCounts,
           bool *prepareCrash = nullptr)
{
    fx.reset();
    fx.makeFresh(1, kStormSlab);
    DurableAllocator *a = fx.alloc.get();

    std::map<DurableAllocator::Phase, std::uint64_t> counts;
    a->setPhaseHook([&](DurableAllocator::Phase p) {
        ++counts[p];
        if (target != nullptr && p == *target && counts[p] == hit)
            throw CrashPoint{};
    });

    Books books;
    std::mt19937_64 rng(seed);
    std::uint64_t openEpoch = *fx.epochWord;
    bool inAdvance = false;
    try {
        for (int round = 0; round < 9; ++round) {
            for (int j = 0; j < 3; ++j) {
                void *p = a->alloc(kSmall);
                books.onAlloc(p, kSmall);
            }
            void *many[4];
            a->allocMany(kBig, many, 4);
            for (void *p : many)
                books.onAlloc(p, kBig);

            // Free about half the live set, batching same-size picks.
            std::vector<void *> smallFrees, bigFrees;
            std::shuffle(books.live.begin(), books.live.end(), rng);
            const std::size_t nFree = books.live.size() / 2;
            for (std::size_t j = 0; j < nFree; ++j) {
                void *p = books.live[books.live.size() - 1 - j];
                (books.sizeOf[p] == kSmall ? smallFrees : bigFrees)
                    .push_back(p);
            }
            if (!smallFrees.empty()) {
                a->freeMany(smallFrees.data(), smallFrees.size(), kSmall);
                for (void *p : smallFrees)
                    books.onFree(p);
            }
            for (void *p : bigFrees) {
                a->free(p, kBig);
                books.onFree(p);
            }
            if (round % 3 == 2) {
                inAdvance = true;
                fx.epochs->advance();
                inAdvance = false;
                openEpoch = *fx.epochWord;
                books.commitEpoch();
            }
        }
    } catch (const CrashPoint &) {
    }
    // The open epoch committed iff the durable epoch word moved past
    // it. A throw out of advance() after the increment (promotion)
    // commits it; one before it (the prepare hook pushing staged frees)
    // fails it like any other crash, as does the final crash below.
    const bool committed = *fx.epochWord != openEpoch;
    if (prepareCrash != nullptr)
        *prepareCrash = inAdvance && !committed;
    if (committed)
        books.commitEpoch();
    else
        books.rollbackEpoch();
    a->setPhaseHook(nullptr);

    if (phaseCounts != nullptr)
        *phaseCounts = counts;

    DurableAllocator *rec = fx.crashAndRecover();

    // Gather the recovered lists (arena 0; single-threaded storm).
    std::set<void *> onLists;
    std::size_t listTotal = 0;
    for (const std::size_t bytes : {kSmall, kBig}) {
        const auto cls = SizeClasses::classOf(bytes);
        for (const bool pending : {false, true}) {
            const auto objs = rec->listObjects(0, cls, false, pending);
            listTotal += objs.size();
            onLists.insert(objs.begin(), objs.end());
        }
    }
    ASSERT_EQ(onLists.size(), listTotal) << "duplicate list membership";

    // Invariant 1: nothing committed-live is allocatable.
    for (void *p : books.committedLive)
        ASSERT_EQ(onLists.count(p), 0u)
            << "committed-live object " << p << " is on a list";

    // Invariant 2: bounded leak. Everything ever handed out is either
    // still committed-live or back on a list, up to the documented
    // strands: one thread cache per class (refill epoch committed) and
    // one partially-published slab per class.
    std::size_t leaked = 0;
    for (void *p : books.everAllocated)
        if (books.committedLive.count(p) == 0 && onLists.count(p) == 0)
            ++leaked;
    const std::size_t slabObjs = kStormSlab / 64 + kStormSlab / (kBig + 16);
    EXPECT_LE(leaked, 2 * DurableAllocator::kCacheTarget + slabObjs + 8);

    // Invariant 3: exactly-once going forward — fresh allocations never
    // alias a committed-live object and never repeat.
    std::set<void *> fresh;
    for (int i = 0; i < 200; ++i) {
        void *p = rec->alloc(kSmall);
        ASSERT_TRUE(fresh.insert(p).second);
        ASSERT_EQ(books.committedLive.count(p), 0u);
    }

    // And the recovered instance sustains a full clean epoch cycle.
    std::vector<void *> batch(fresh.begin(), fresh.end());
    rec->freeMany(batch.data(), batch.size(), kSmall);
    fx.epochs->advance();
    EXPECT_EQ(rec->pendingCount(0, SizeClasses::classOf(kSmall)), 0u);
}

TEST_F(LockFreeAllocFixture, CrashStormEveryPhase)
{
    // Pass 1, hook-free: learn how often each phase fires in the
    // workload, and require that every protocol phase is exercised.
    std::map<DurableAllocator::Phase, std::uint64_t> counts;
    stormCycle(*this, 1, nullptr, 0, &counts);
    for (std::uint32_t ph = 0;
         ph <= static_cast<std::uint32_t>(
                   DurableAllocator::Phase::kPromoteSplice);
         ++ph)
        ASSERT_GT(counts[static_cast<DurableAllocator::Phase>(ph)], 0u)
            << "phase " << ph << " never fired; workload lost coverage";

    // Pass 2: crash at every phase, at several occurrence indices
    // spread across the run (early, middle, late). Some of them must
    // land in a boundary's push of staged frees.
    std::size_t prepareCrashes = 0;
    for (std::uint32_t ph = 0;
         ph <= static_cast<std::uint32_t>(
                   DurableAllocator::Phase::kPromoteSplice);
         ++ph) {
        const auto target = static_cast<DurableAllocator::Phase>(ph);
        const std::uint64_t total = counts[target];
        const std::uint64_t step = std::max<std::uint64_t>(1, total / 3);
        for (std::uint64_t hit = 1; hit <= total; hit += step) {
            SCOPED_TRACE("phase " + std::to_string(ph) + " hit " +
                         std::to_string(hit));
            bool prepareCrash = false;
            stormCycle(*this,
                       1 + ph * 131 + static_cast<std::uint32_t>(hit),
                       &target, hit, nullptr, &prepareCrash);
            prepareCrashes += prepareCrash;
        }
    }
    EXPECT_GT(prepareCrashes, 0u)
        << "no crash hit the prepare hook's push of staged frees";
}

} // namespace
} // namespace incll
