/**
 * @file
 * Additional NVM-substrate tests: flushRange coverage, store-spanning
 * lines, adversary behaviour under parameter sweeps, pool independence,
 * alignment guarantees of rawAlloc, and the pool's mapping (pages
 * faulted on first touch, huge-page advice, the guard page).
 */
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nvm/pool.h"

namespace incll::nvm {
namespace {

class ExtraPool : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        pool = std::make_unique<Pool>(1u << 20, Mode::kTracked, 3);
        registerTrackedPool(*pool);
    }

    void TearDown() override { unregisterTrackedPool(*pool); }

    std::unique_ptr<Pool> pool;
};

TEST_F(ExtraPool, FlushRangeCoversUnalignedRanges)
{
    // A range starting mid-line and ending mid-line must persist fully —
    // the bug class behind unflushed log-entry tails.
    auto *base = static_cast<char *>(pool->rawAlloc(512, 64));
    pool->wbinvdFlushAll();
    for (int i = 40; i < 400; ++i)
        base[i] = static_cast<char>(i);
    pool->onStore(base + 40, 360);
    pool->flushRange(base + 40, 360);
    pool->crash();
    for (int i = 40; i < 400; ++i)
        EXPECT_EQ(base[i], static_cast<char>(i)) << i;
}

TEST_F(ExtraPool, FlushRangeSingleByte)
{
    auto *base = static_cast<char *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    base[13] = 0x5b;
    pool->onStore(base + 13, 1);
    pool->flushRange(base + 13, 1);
    EXPECT_EQ(pool->durableRead(base + 13), 0x5b);
}

TEST_F(ExtraPool, StoreSpanningTwoLinesMarksBoth)
{
    auto *base = static_cast<char *>(pool->rawAlloc(128, 64));
    pool->wbinvdFlushAll();
    char buf[16];
    std::memset(buf, 0x7e, sizeof(buf));
    // Write 16 bytes straddling the line boundary at +64.
    pmemcpy(base + 56, buf, 16);
    EXPECT_EQ(pool->dirtyLineCount(), 2u);
}

TEST_F(ExtraPool, SameLineNeverTearsAcrossManySchedules)
{
    // Property sweep of the PCSO invariant: for many adversary seeds,
    // write pairs (a then b) into one line with random evictions; the
    // durable image must never show b without a.
    auto *line = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    Rng rng(99);
    for (int trial = 0; trial < 300; ++trial) {
        pool->wbinvdFlushAll();
        const std::uint64_t a = rng.next() | 1;
        const std::uint64_t b = rng.next() | 1;
        pstore(line[2], a);
        if (rng.nextBool(0.5))
            pool->evictRandomLines(1);
        pstore(line[5], b);
        if (rng.nextBool(0.5))
            pool->evictRandomLines(1);
        const std::uint64_t da = pool->durableRead(&line[2]);
        const std::uint64_t db = pool->durableRead(&line[5]);
        if (db == b) {
            ASSERT_EQ(da, a) << "trial " << trial;
        }
        // Clean up for the next trial.
        pstore(line[2], std::uint64_t{0});
        pstore(line[5], std::uint64_t{0});
    }
}

TEST_F(ExtraPool, CrashResetsToDurableImageExactly)
{
    auto *data = static_cast<std::uint64_t *>(pool->rawAlloc(1024, 64));
    for (int i = 0; i < 128; ++i)
        pstore(data[i], static_cast<std::uint64_t>(100 + i));
    pool->wbinvdFlushAll(); // durable image: 100+i
    for (int i = 0; i < 128; ++i)
        pstore(data[i], static_cast<std::uint64_t>(900 + i));
    pool->crash(); // all post-flush writes lost
    for (int i = 0; i < 128; ++i)
        ASSERT_EQ(data[i], static_cast<std::uint64_t>(100 + i));
    EXPECT_EQ(pool->dirtyLineCount(), 0u);
}

TEST_F(ExtraPool, DirtyCountTracksDistinctLinesOnly)
{
    auto *line = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    for (int i = 0; i < 8; ++i)
        pstore(line[i], std::uint64_t{1}); // 8 stores, one line
    EXPECT_EQ(pool->dirtyLineCount(), 1u);
}

TEST_F(ExtraPool, EvictionOnEmptyDirtySetIsHarmless)
{
    pool->wbinvdFlushAll();
    pool->evictRandomLines(5); // nothing dirty: must not crash or hang
    EXPECT_EQ(pool->dirtyLineCount(), 0u);
}

TEST_F(ExtraPool, TwoPoolsAreIndependent)
{
    Pool other(1u << 16, Mode::kTracked, 17);
    // Tracked pool is `pool`; stores into `other` via pstore are outside
    // the tracked pool's range and must not corrupt its bitmap.
    auto *p = static_cast<std::uint64_t *>(other.rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    pstore(*p, std::uint64_t{5});
    EXPECT_EQ(pool->dirtyLineCount(), 0u);
    EXPECT_EQ(*p, 5u);
}

class RawAllocAlignment : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RawAllocAlignment, RespectsRequestedAlignment)
{
    Pool pool(1u << 20, Mode::kDirect);
    const std::size_t align = GetParam();
    for (int i = 0; i < 16; ++i) {
        void *p = pool.rawAlloc(24 + i, align);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Alignments, RawAllocAlignment,
                         ::testing::Values(16, 32, 64, 128, 256, 4096));

class AdversaryRate : public ::testing::TestWithParam<double>
{
};

TEST_P(AdversaryRate, PersistedFractionTracksRate)
{
    Pool pool(1u << 20, Mode::kTracked, 11);
    registerTrackedPool(pool);
    const double rate = GetParam();
    pool.setEvictionRate(rate);
    auto *data = static_cast<std::uint64_t *>(
        pool.rawAlloc(64 * 256, 64));
    pool.setEvictionRate(0.0);
    pool.wbinvdFlushAll();
    pool.setEvictionRate(rate);
    for (int i = 0; i < 256; ++i)
        pstore(data[i * 8], std::uint64_t{1});
    pool.setEvictionRate(0.0);
    std::uint64_t persisted = 0;
    for (int i = 0; i < 256; ++i)
        persisted += pool.durableRead(&data[i * 8]) == 1;
    if (rate == 0.0) {
        EXPECT_EQ(persisted, 0u);
    } else {
        // With per-store probability `rate` over 256 stores, the number
        // of evictions concentrates near 256*rate; allow generous slack.
        EXPECT_GT(persisted, 0u);
        EXPECT_LE(persisted, 256u);
    }
    unregisterTrackedPool(pool);
}

INSTANTIATE_TEST_SUITE_P(Rates, AdversaryRate,
                         ::testing::Values(0.0, 0.05, 0.5, 1.0));

TEST(PoolLimits, RawAllocExhaustionThrows)
{
    Pool pool(1u << 16, Mode::kDirect);
    EXPECT_THROW(pool.rawAlloc(1u << 20), std::bad_alloc);
}

TEST(PoolLimits, ContainsBoundaries)
{
    Pool pool(1u << 16, Mode::kDirect);
    EXPECT_TRUE(pool.contains(pool.base()));
    EXPECT_TRUE(pool.contains(pool.base() + pool.size() - 1));
    EXPECT_FALSE(pool.contains(pool.base() + pool.size()));
    int x;
    EXPECT_FALSE(pool.contains(&x));
}

TEST(PoolMapping, UntouchedPagesAreNotResidentAndReadZero)
{
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    constexpr std::size_t kTouched = std::size_t{8} << 20;
    {
        Pool pool(kBytes, Mode::kDirect);
        pool.rawAlloc(std::size_t{1} << 20);
        const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
        const std::size_t len = pool.size() - kTouched;
        std::vector<unsigned char> pages((len + page - 1) / page);
        ASSERT_EQ(mincore(pool.base() + kTouched, len, pages.data()), 0);
        EXPECT_EQ(std::count_if(pages.begin(), pages.end(),
                                [](unsigned char v) { return v & 1; }),
                  0);
    }
    // Reading faults pages in, so zeroes are checked on a second pool.
    // Only the durable cursor word at offset 0 is non-zero.
    Pool pool(kBytes, Mode::kDirect);
    const char *p = pool.base() + sizeof(std::uint64_t);
    const char *end = pool.base() + pool.size();
    EXPECT_EQ(std::find_if(p, end, [](char c) { return c != 0; }), end);
}

TEST(PoolMapping, BaseVmaIsHugePageAdvised)
{
    if (access("/sys/kernel/mm/transparent_hugepage", F_OK) != 0)
        GTEST_SKIP() << "kernel without transparent huge pages";
    Pool pool(std::size_t{8} << 20, Mode::kDirect);
    const auto base = reinterpret_cast<std::uintptr_t>(pool.base());
    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool inBaseVma = false;
    std::vector<std::string> flags;
    while (std::getline(smaps, line)) {
        unsigned long lo = 0, hi = 0;
        if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
            inBaseVma = lo <= base && base < hi;
        } else if (inBaseVma && line.rfind("VmFlags:", 0) == 0) {
            std::istringstream in(line.substr(8));
            for (std::string f; in >> f;)
                flags.push_back(f);
            break;
        }
    }
    ASSERT_FALSE(flags.empty()) << "no VmFlags for the pool's VMA";
    EXPECT_NE(std::find(flags.begin(), flags.end(), "hg"), flags.end());
}

TEST(PoolMappingDeathTest, StorePastTheMappedEndFaults)
{
    // A whole number of pages: the pool's end is the mapping's end.
    Pool pool(1u << 20, Mode::kDirect);
    volatile char *pastEnd = pool.base() + pool.size();
    EXPECT_DEATH(*pastEnd = 1, "");
}

TEST(PoolDeterminism, SameSeedSameCrashImage)
{
    // The crash adversary (random background eviction + extra eviction at
    // the moment of failure) is the only source of randomness in a
    // tracked pool. Two runs with the same seed and the same store
    // sequence must therefore leave byte-identical post-crash images —
    // the property that makes every crash-recovery test reproducible
    // from its printed seed.
    constexpr std::size_t kBytes = 1u << 18;
    constexpr std::uint64_t kPoolSeed = 42;

    auto runOnce = [&](std::vector<char> &image) {
        Pool pool(kBytes, Mode::kTracked, kPoolSeed);
        registerTrackedPool(pool);
        pool.setEvictionRate(0.05);

        auto *data = static_cast<std::uint64_t *>(pool.rawAlloc(1u << 16, 64));
        Rng ops(7); // op stream seed, distinct from the adversary's
        pool.wbinvdFlushAll();
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t slot = ops.nextBounded((1u << 16) / 8);
            pstore(data[slot], ops.next());
            if (ops.nextBool(0.01))
                pool.flushRange(&data[slot], sizeof(std::uint64_t));
            if (ops.nextBool(0.002))
                pool.evictRandomLines(2);
        }
        pool.crash(0.5); // exercise the at-crash extra-eviction path too

        image.assign(pool.base(), pool.base() + pool.size());
        unregisterTrackedPool(pool);
    };

    std::vector<char> first, second;
    runOnce(first);
    runOnce(second);
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(std::memcmp(first.data(), second.data(), first.size()), 0)
        << "post-crash images diverge for identical seeds";
}

TEST(PoolDeterminism, DifferentSeedsDivergeUnderLossyCrash)
{
    // Sanity check that the determinism test has teeth: with eviction
    // randomness in play, different adversary seeds should (for this
    // store pattern) persist different subsets of lines.
    constexpr std::size_t kBytes = 1u << 18;

    auto runOnce = [&](std::uint64_t poolSeed, std::vector<char> &image) {
        Pool pool(kBytes, Mode::kTracked, poolSeed);
        registerTrackedPool(pool);
        pool.setEvictionRate(0.05);
        auto *data = static_cast<std::uint64_t *>(pool.rawAlloc(1u << 16, 64));
        Rng ops(7);
        pool.wbinvdFlushAll();
        for (int i = 0; i < 5000; ++i)
            pstore(data[ops.nextBounded((1u << 16) / 8)], ops.next());
        pool.crash();
        image.assign(pool.base(), pool.base() + pool.size());
        unregisterTrackedPool(pool);
    };

    std::vector<char> a, b;
    runOnce(1, a);
    runOnce(2, b);
    EXPECT_NE(std::memcmp(a.data(), b.data(), a.size()), 0)
        << "adversary seed appears to have no effect";
}

} // namespace
} // namespace incll::nvm
