/**
 * @file
 * Unit tests for the simulated persistent-memory pool: dirty tracking,
 * write-back semantics, PCSO same-line ordering, the eviction adversary,
 * and crash behaviour.
 */
#include <gtest/gtest.h>

#include <cstring>

#include "nvm/pool.h"

namespace incll::nvm {
namespace {

constexpr std::size_t kPoolBytes = 1u << 20;

class TrackedPool : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        pool = std::make_unique<Pool>(kPoolBytes, Mode::kTracked, 1);
        registerTrackedPool(*pool);
    }

    void TearDown() override { unregisterTrackedPool(*pool); }

    std::unique_ptr<Pool> pool;
};

TEST_F(TrackedPool, RawAllocZeroedAndAligned)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(256, 64));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(p[i], 0u);
}

TEST_F(TrackedPool, RawAllocDistinctBlocks)
{
    auto *a = static_cast<char *>(pool->rawAlloc(100));
    auto *b = static_cast<char *>(pool->rawAlloc(100));
    EXPECT_GE(b, a + 100);
}

TEST_F(TrackedPool, StoreMarksLineDirty)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll(); // clear construction dirt
    EXPECT_EQ(pool->dirtyLineCount(), 0u);
    pstore(*p, std::uint64_t{42});
    EXPECT_EQ(pool->dirtyLineCount(), 1u);
}

TEST_F(TrackedPool, UnflushedStoreIsLostAtCrash)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    pstore(*p, std::uint64_t{42});
    EXPECT_EQ(pool->durableRead(p), 0u);
    pool->crash();
    EXPECT_EQ(*p, 0u);
}

TEST_F(TrackedPool, ClwbSfencePersists)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pstore(*p, std::uint64_t{42});
    pool->clwb(p);
    pool->sfence();
    EXPECT_EQ(pool->durableRead(p), 42u);
    pool->crash();
    EXPECT_EQ(*p, 42u);
}

TEST_F(TrackedPool, ClwbWithoutSfenceMayNotPersist)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    pstore(*p, std::uint64_t{42});
    pool->clwb(p);
    // No fence: the write-back has not completed in this model.
    EXPECT_EQ(pool->durableRead(p), 0u);
}

TEST_F(TrackedPool, WbinvdFlushesEverything)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(4096, 64));
    for (int i = 0; i < 512; ++i)
        pstore(p[i], static_cast<std::uint64_t>(i + 1));
    EXPECT_GT(pool->dirtyLineCount(), 0u);
    pool->wbinvdFlushAll();
    EXPECT_EQ(pool->dirtyLineCount(), 0u);
    pool->crash();
    for (int i = 0; i < 512; ++i)
        EXPECT_EQ(p[i], static_cast<std::uint64_t>(i + 1));
}

TEST_F(TrackedPool, PcsoSameLineOrdering)
{
    // Two writes to the same cache line: after any possible write-back
    // schedule, seeing the second implies seeing the first.
    auto *line = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    pstore(line[0], std::uint64_t{1}); // first
    pstore(line[1], std::uint64_t{2}); // second (same line)
    // Any eviction writes the whole line: no schedule can persist
    // line[1] without line[0].
    pool->evictRandomLines(1);
    const std::uint64_t first = pool->durableRead(&line[0]);
    const std::uint64_t second = pool->durableRead(&line[1]);
    if (second == 2) {
        EXPECT_EQ(first, 1u);
    }
}

TEST_F(TrackedPool, DifferentLinesPersistIndependently)
{
    auto *a = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    auto *b = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    pstore(*a, std::uint64_t{1});
    pstore(*b, std::uint64_t{2});
    pool->clwb(b);
    pool->sfence();
    // b persisted without a: out-of-program-order persistence across
    // lines is exactly what the simulator must allow.
    EXPECT_EQ(pool->durableRead(a), 0u);
    EXPECT_EQ(pool->durableRead(b), 2u);
}

TEST_F(TrackedPool, EvictionAdversaryWritesBackLines)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(4096, 64));
    pool->wbinvdFlushAll();
    pool->setEvictionRate(1.0); // evict on every store
    for (int i = 0; i < 512; ++i)
        pstore(p[i], std::uint64_t{7});
    pool->setEvictionRate(0.0);
    // With rate 1.0, roughly every line should have been written back.
    std::uint64_t persisted = 0;
    for (int i = 0; i < 512; i += 8)
        persisted += pool->durableRead(&p[i]) == 7;
    EXPECT_GT(persisted, 32u);
}

TEST_F(TrackedPool, CrashWithPartialEviction)
{
    auto *p = static_cast<std::uint64_t *>(pool->rawAlloc(64 * 64, 64));
    pool->wbinvdFlushAll();
    for (int i = 0; i < 64; ++i)
        pstore(p[i * 8], std::uint64_t{9});
    pool->crash(0.5);
    int survived = 0;
    for (int i = 0; i < 64; ++i)
        survived += p[i * 8] == 9;
    EXPECT_GT(survived, 5);
    EXPECT_LT(survived, 60);
}

TEST_F(TrackedPool, CursorSurvivesCrash)
{
    (void)pool->rawAlloc(1024);
    const std::size_t before = pool->rawAvailable();
    pool->crash();
    EXPECT_EQ(pool->rawAvailable(), before);
    // New allocations must not overlap the pre-crash block.
    auto *after = static_cast<char *>(pool->rawAlloc(64));
    EXPECT_GE(after - pool->base(),
              static_cast<std::ptrdiff_t>(Pool::kRootAreaSize));
}

TEST_F(TrackedPool, PmemcpyTracksLines)
{
    auto *p = static_cast<char *>(pool->rawAlloc(256, 64));
    pool->wbinvdFlushAll();
    char buf[256];
    std::memset(buf, 0x5a, sizeof(buf));
    pmemcpy(p, buf, sizeof(buf));
    EXPECT_EQ(pool->dirtyLineCount(), 4u);
    pool->wbinvdFlushAll();
    pool->crash();
    EXPECT_EQ(p[0], 0x5a);
    EXPECT_EQ(p[255], 0x5a);
}

TEST_F(TrackedPool, StoresOutsidePoolIgnored)
{
    std::uint64_t transientWord = 0;
    pstore(transientWord, std::uint64_t{5}); // must not touch the bitmap
    EXPECT_EQ(transientWord, 5u);
}

TEST(DirectPool, PersistOpsAreCountedNoops)
{
    Pool pool(1u << 16, Mode::kDirect);
    auto *p = static_cast<std::uint64_t *>(pool.rawAlloc(64, 64));
    const auto clwbBefore = globalStats().get(Stat::kClwb);
    const auto fenceBefore = globalStats().get(Stat::kSfence);
    *p = 1;
    pool.clwb(p);
    pool.sfence();
    pool.wbinvdFlushAll();
    EXPECT_GT(globalStats().get(Stat::kClwb), clwbBefore);
    EXPECT_GT(globalStats().get(Stat::kSfence), fenceBefore);
    EXPECT_EQ(pool.dirtyLineCount(), 0u);
}

TEST(PoolMapping, BothModesAre2MiBAlignedAndRefusalsThrow)
{
    for (const Mode mode : {Mode::kDirect, Mode::kTracked}) {
        Pool pool(1u << 20, mode);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pool.base()) %
                      kHugePageSize,
                  0u);
        // Far beyond any address space: the kernel refuses the mapping
        // at once, without touching memory.
        EXPECT_THROW(Pool(std::size_t{1} << 52, mode), std::bad_alloc);
    }
}

TEST(DirectPool, SfenceLatencyEmulation)
{
    Pool pool(1u << 16, Mode::kDirect);
    pool.latency().sfenceExtraNs = 200000; // 200us, measurable
    const auto start = std::chrono::steady_clock::now();
    pool.sfence();
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    EXPECT_GE(us, 150);
}

} // namespace
} // namespace incll::nvm
