/**
 * @file
 * Unit tests: PackedWord encoding, size classes, the durable allocator's
 * EBR free lists and their crash recovery, and the transient allocators.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc/durable_alloc.h"
#include "alloc/packed_word.h"
#include "alloc/pool_alloc.h"
#include "epoch/epoch_manager.h"
#include "nvm/pool.h"

namespace incll {
namespace {

TEST(PackedWord, RoundTripPointerEpochCounter)
{
    alignas(16) static char target[16];
    for (std::uint16_t half : {std::uint16_t{0}, std::uint16_t{0xabcd},
                               std::uint16_t{0xffff}}) {
        for (std::uint8_t ctr = 0; ctr < 4; ++ctr) {
            const std::uint64_t w = PackedWord::pack(target, half, ctr);
            EXPECT_EQ(PackedWord::pointer(w), target);
            EXPECT_EQ(PackedWord::epochHalf(w), half);
            EXPECT_EQ(PackedWord::counter(w), ctr);
        }
    }
}

TEST(PackedWord, NullPointerRoundTrip)
{
    const std::uint64_t w = PackedWord::pack(nullptr, 0x1234, 2);
    EXPECT_EQ(PackedWord::pointer(w), nullptr);
    EXPECT_EQ(PackedWord::epochHalf(w), 0x1234);
}

TEST(PackedWord, CombineEpochHalves)
{
    alignas(16) static char t[16];
    const std::uint32_t epoch = 0xdeadbeef;
    const std::uint64_t next =
        PackedWord::pack(t, static_cast<std::uint16_t>(epoch >> 16), 1);
    const std::uint64_t incll =
        PackedWord::pack(t, static_cast<std::uint16_t>(epoch), 1);
    EXPECT_EQ(PackedWord::combineEpoch(next, incll), epoch);
}

TEST(PackedWord, CanonicalCheck)
{
    EXPECT_TRUE(PackedWord::isCanonical(0));
    EXPECT_TRUE(PackedWord::isCanonical(0x00007fffffffffffULL));
    EXPECT_TRUE(PackedWord::isCanonical(0xffff800000000000ULL));
    EXPECT_FALSE(PackedWord::isCanonical(0x0001000000000000ULL));
}

TEST(SizeClassesTest, MonotoneAndCovering)
{
    std::uint32_t prev = 0;
    for (std::uint32_t c = 0; c < SizeClasses::kNumClasses; ++c) {
        EXPECT_GT(SizeClasses::bytesOf(c), prev);
        EXPECT_EQ(SizeClasses::bytesOf(c) % 16, 0u);
        prev = SizeClasses::bytesOf(c);
    }
    EXPECT_EQ(SizeClasses::classOf(1), 0u);
    EXPECT_EQ(SizeClasses::classOf(32), 0u);
    EXPECT_EQ(SizeClasses::classOf(33), 1u);
    for (std::size_t n : {1, 31, 100, 320, 500, 2000})
        EXPECT_GE(SizeClasses::bytesOf(SizeClasses::classOf(n)), n);
}

struct AllocFixture : ::testing::Test
{
    void
    SetUp() override
    {
        pool = std::make_unique<nvm::Pool>(1u << 24, nvm::Mode::kTracked);
        nvm::registerTrackedPool(*pool);
        auto *area = static_cast<char *>(pool->rootArea());
        epochWord = reinterpret_cast<std::uint64_t *>(area);
        statePtr = reinterpret_cast<std::uint64_t *>(area + 8);
        failedRec = reinterpret_cast<FailedEpochRecord *>(area + 64);
        epochs = std::make_unique<EpochManager>(*pool, epochWord,
                                                failedRec, true);
    }

    void
    TearDown() override
    {
        nvm::unregisterTrackedPool(*pool);
    }

    /** Simulate crash + restart of the epoch/alloc stack. */
    DurableAllocator *
    crashAndRecover()
    {
        pool->crash();
        epochs = std::make_unique<EpochManager>(*pool, epochWord,
                                                failedRec, false);
        epochs->markCrashRecovery();
        alloc = std::make_unique<DurableAllocator>(*pool, *epochs,
                                                   statePtr, false);
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

TEST_F(AllocFixture, AllocAlignedAndDistinct)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 1);
    std::set<void *> seen;
    for (int i = 0; i < 1000; ++i) {
        void *p = alloc->alloc(32);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
        EXPECT_TRUE(seen.insert(p).second);
    }
}

TEST_F(AllocFixture, FreeIsReusableOnlyAfterEpochAdvance)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 1);
    void *p = alloc->alloc(32);
    alloc->free(p, 32);
    EXPECT_EQ(alloc->pendingCount(0, SizeClasses::classOf(32)), 1u);

    // Same epoch: p must not be handed out again (EBR rule).
    std::set<void *> sameEpoch;
    for (int i = 0; i < 100; ++i)
        sameEpoch.insert(alloc->alloc(32));
    EXPECT_FALSE(sameEpoch.contains(p));

    epochs->advance(); // pending -> free
    EXPECT_EQ(alloc->pendingCount(0, SizeClasses::classOf(32)), 0u);
    bool reused = false;
    for (int i = 0; i < 200 && !reused; ++i)
        reused = alloc->alloc(32) == p;
    EXPECT_TRUE(reused);
}

TEST_F(AllocFixture, FullStagingBufferPushesOnce)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 1);
    const auto cls = SizeClasses::classOf(32);
    std::vector<void *> objs(DurableAllocator::kCacheTarget + 1);
    for (auto &p : objs)
        p = alloc->alloc(32);

    // A thread stages its frees; the kCacheTarget-th fills the buffer,
    // which goes onto the pending list as one chain. The last free
    // stays staged, but pendingCount counts it.
    for (void *p : objs)
        alloc->free(p, 32);
    EXPECT_EQ(alloc->listObjects(0, cls, false, true).size(),
              DurableAllocator::kCacheTarget);
    EXPECT_EQ(alloc->pendingCount(0, cls), objs.size());

    // The boundary pushes the staged one and promotes them all.
    const auto freeBefore = alloc->freeCount(0, cls);
    epochs->advance();
    EXPECT_EQ(alloc->pendingCount(0, cls), 0u);
    EXPECT_EQ(alloc->freeCount(0, cls), freeBefore + objs.size());
}

TEST_F(AllocFixture, CrashRollsBackAllocations)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 1);
    // Populate the free list durably, then checkpoint.
    std::vector<void *> warm;
    for (int i = 0; i < 8; ++i)
        warm.push_back(alloc->alloc(32));
    for (void *p : warm)
        alloc->free(p, 32);
    epochs->advance();
    const auto cls = SizeClasses::classOf(32);
    const auto freeBefore = alloc->freeCount(0, cls);
    epochs->advance(); // make the head state durable at an epoch start

    // Allocate in the new epoch, then crash: the pops must roll back.
    (void)alloc->alloc(32);
    (void)alloc->alloc(32);
    auto *recovered = crashAndRecover();
    EXPECT_EQ(recovered->freeCount(0, cls), freeBefore);
}

TEST_F(AllocFixture, CrashRollsBackFrees)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 1);
    void *p = alloc->alloc(32);
    epochs->advance();
    const auto cls = SizeClasses::classOf(32);

    alloc->free(p, 32); // freed in the epoch that will fail
    EXPECT_EQ(alloc->pendingCount(0, cls), 1u);
    auto *recovered = crashAndRecover();
    // The free is rolled back: p is live again, pending list empty.
    EXPECT_EQ(recovered->pendingCount(0, cls), 0u);
}

TEST_F(AllocFixture, CrashDuringSpliceRollsBack)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 1);
    const auto cls = SizeClasses::classOf(32);
    void *a = alloc->alloc(32);
    void *b = alloc->alloc(32);
    alloc->free(a, 32);
    alloc->free(b, 32);
    epochs->advance(); // splice happens here (epoch N)
    const auto freeAfterSplice = alloc->freeCount(0, cls);
    const auto pendAfterSplice = alloc->pendingCount(0, cls);

    // Crash immediately: the splice ran inside the (now failed) epoch
    // that the advance opened... but its effects were part of the
    // advance's own epoch. Either way, recovery must yield consistent
    // totals: free + pending conserved.
    auto *recovered = crashAndRecover();
    EXPECT_EQ(recovered->freeCount(0, cls) +
                  recovered->pendingCount(0, cls),
              freeAfterSplice + pendAfterSplice);
}

TEST_F(AllocFixture, MultiArenaIndependence)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 4);
    EXPECT_EQ(alloc->numArenas(), 4u);
    void *p = alloc->alloc(64);
    EXPECT_NE(p, nullptr);
}

TEST_F(AllocFixture, ReattachKeepsConfiguration)
{
    alloc = std::make_unique<DurableAllocator>(*pool, *epochs, statePtr,
                                               true, 2);
    void *p = alloc->alloc(128);
    (void)p;
    pool->wbinvdFlushAll();
    DurableAllocator re(*pool, *epochs, statePtr, false);
    EXPECT_EQ(re.numArenas(), 2u);
}

TEST(PoolAllocatorTest, AllocFreeReuse)
{
    PoolAllocator alloc(1u << 16);
    void *a = alloc.alloc(100);
    void *b = alloc.alloc(100);
    EXPECT_NE(a, b);
    alloc.free(a, 100);
    // Transient allocator reuses immediately (LIFO).
    EXPECT_EQ(alloc.alloc(100), a);
}

TEST(PoolAllocatorTest, DefaultSlabsAre2MiBAligned)
{
    PoolAllocator alloc;
    // The first object of a class is the start of that class's slab.
    for (std::uint32_t c = 0; c < SizeClasses::kNumClasses; ++c) {
        const void *p = alloc.alloc(SizeClasses::bytesOf(c));
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % nvm::kHugePageSize,
                  0u)
            << "class " << c;
    }
}

TEST(MallocAllocatorTest, Basic)
{
    MallocAllocator alloc;
    void *p = alloc.alloc(64);
    EXPECT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    alloc.free(p, 64);
}

} // namespace
} // namespace incll
