/**
 * @file
 * A warm ordered scan of a range store allocates nothing (tier1).
 *
 * This binary replaces the global operator new with one that counts
 * the calling thread's allocations while counting is switched on, so
 * it holds this one test and nothing else. Keys are 15 bytes: two
 * Masstree layers, and a delivered key still fits the scan's reused
 * key buffer without a heap allocation.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "store/sharded_store.h"
#include "store/value_util.h"
#include "ycsb/driver.h"

namespace {

thread_local bool tCounting = false;
thread_local std::uint64_t tAllocs = 0;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (tCounting)
        ++tAllocs;
    if (n == 0)
        n = 1;
    void *p = align == 0 ? std::malloc(n)
                         : std::aligned_alloc(align, (n + align - 1) /
                                                         align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n, 0);
}

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace incll::store {
namespace {

constexpr std::uint64_t kKeys = 8000;
constexpr std::size_t kValueBytes = 32;

/** 15 bytes: "k" + 14 digits. */
std::string
key15(std::uint64_t rank)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%014llu",
                  static_cast<unsigned long long>(rank));
    return buf;
}

TEST(ScanAllocation, WarmOrderedScanAllocatesNothing)
{
    ShardedStore::Options o;
    o.shards = 4;
    o.mode = nvm::Mode::kDirect;
    o.poolBytesPerShard = std::size_t{1} << 25;
    o.config.logBuffers = 4;
    o.config.logBufferBytes = 1u << 20;
    o.config.placement = PlacementKind::kRange;
    const std::uint64_t quarter = kKeys / 4;
    o.config.rangeBoundaries = {key15(quarter), key15(2 * quarter),
                                key15(3 * quarter)};
    ShardedStore st(o);
    for (std::uint64_t r = 0; r < kKeys; ++r)
        installValue(st, key15(r), &r, sizeof(r), kValueBytes);
    st.advanceEpoch();

    // Starts drawn before counting: uniform ones, plus every tenth just
    // below a shard boundary so the scan crosses into the next shard.
    constexpr int kScans = 1000;
    constexpr std::size_t kLimit = 10;
    Rng rng(7);
    std::vector<std::string> starts;
    for (int i = 0; i < kScans; ++i)
        starts.push_back(
            i % 10 == 0 ? key15((1 + i / 10 % 3) * quarter - 3)
                        : key15(rng.nextBounded(kKeys)));

    std::uint64_t sum = 0;
    std::size_t delivered = 0;
    auto scanAll = [&] {
        for (const std::string &s : starts)
            delivered += st.scan(s, kLimit, [&sum](std::string_view k,
                                                   void *v) {
                std::uint64_t payload;
                std::memcpy(&payload, v, sizeof(payload));
                sum += payload + k.size();
            });
    };
    scanAll(); // warm: per-thread stats slab, held-gate list
    delivered = 0;
    tAllocs = 0;
    tCounting = true;
    scanAll();
    tCounting = false;
    EXPECT_EQ(tAllocs, 0u) << "allocations across " << kScans
                           << " warm limit-" << kLimit << " scans";
    EXPECT_GT(delivered, kScans * (kLimit - 1));
    EXPECT_GT(sum, 0u);
    ycsb::destroyWithValues(st);
}

} // namespace
} // namespace incll::store
