/**
 * @file
 * Unit tests: RNG, zipfian generator, hashing, spinlock, barrier, stats.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/stats.h"
#include "common/zipf.h"

namespace incll {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextBounded(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Mix64, Bijective32BitSample)
{
    // mix64 must not collide on a dense low range (it is bijective).
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 100000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 100000u);
}

TEST(Zipf, RankZeroIsMostFrequent)
{
    ZipfGenerator zipf(1000, 0.99);
    Rng rng(11);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 200000; ++i)
        counts[zipf.next(rng)]++;
    int maxCount = 0;
    std::uint64_t argmax = 0;
    for (const auto &[rank, c] : counts) {
        if (c > maxCount) {
            maxCount = c;
            argmax = rank;
        }
    }
    EXPECT_EQ(argmax, 0u);
    // Zipf(0.99) over 1000 items: rank 0 should take roughly 1/zeta ~ 13%.
    EXPECT_GT(maxCount, 200000 / 20);
}

TEST(Zipf, StaysInRange)
{
    ZipfGenerator zipf(50, 0.99);
    Rng rng(13);
    for (int i = 0; i < 100000; ++i)
        EXPECT_LT(zipf.next(rng), 50u);
}

TEST(Zipf, SkewOrdersFrequencies)
{
    ZipfGenerator zipf(100, 0.99);
    Rng rng(17);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 300000; ++i)
        counts[zipf.next(rng)]++;
    // Aggregate decline: first decile beats last decile by a wide margin.
    int first = 0, last = 0;
    for (int i = 0; i < 10; ++i)
        first += counts[i];
    for (int i = 90; i < 100; ++i)
        last += counts[i];
    EXPECT_GT(first, 10 * last);
}

TEST(KeyChooser, UniformCoversUniverse)
{
    KeyChooser chooser(KeyChooser::Dist::kUniform, 32);
    Rng rng(19);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(chooser.next(rng));
    EXPECT_EQ(seen.size(), 32u);
}

TEST(SpinLock, MutualExclusion)
{
    SpinLock lock;
    int counter = 0;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 10000; ++i) {
                std::lock_guard<SpinLock> guard(lock);
                ++counter;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, 40000);
}

TEST(SpinLock, TryLock)
{
    SpinLock lock;
    EXPECT_TRUE(lock.try_lock());
    EXPECT_FALSE(lock.try_lock());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(Barrier, SynchronisesPhases)
{
    constexpr int kThreads = 4;
    Barrier barrier(kThreads);
    std::atomic<int> phase0{0};
    std::atomic<bool> fail{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            phase0.fetch_add(1);
            barrier.arriveAndWait();
            if (phase0.load() != kThreads)
                fail.store(true);
            barrier.arriveAndWait();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_FALSE(fail.load());
}

TEST(Rng, BoundedPowerOfTwoStaysInRangeAndCoversBoth)
{
    Rng rng(7);
    for (int shift : {1, 4, 32, 63}) {
        const std::uint64_t bound = std::uint64_t{1} << shift;
        bool low = false, high = false;
        for (int i = 0; i < 4000; ++i) {
            const std::uint64_t v = rng.nextBounded(bound);
            ASSERT_LT(v, bound);
            (v < bound / 2 ? low : high) = true;
        }
        EXPECT_TRUE(low) << "bound 2^" << shift;
        EXPECT_TRUE(high) << "bound 2^" << shift;
    }
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(rng.nextBounded(1), 0u);
}

TEST(Zipf, SingletonUniverseAlwaysZero)
{
    ZipfGenerator zipf(1, 0.99);
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf.next(rng), 0u);
}

TEST(Zipf, ThetaZeroIsUniformish)
{
    // theta = 0 degenerates to the uniform distribution; the most
    // frequent rank must not dominate.
    ZipfGenerator zipf(100, 0.0);
    Rng rng(11);
    std::uint64_t zeros = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t v = zipf.next(rng);
        ASSERT_LT(v, 100u);
        zeros += v == 0;
    }
    EXPECT_LT(zeros, draws / 20); // uniform expectation: draws/100
}

TEST(Zipf, ThetaNearOneStaysInRangeAndSkews)
{
    // The Gray et al. recurrence is defined for theta in [0, 1); probe
    // close to the upper bound where alpha = 1/(1-theta) explodes.
    ZipfGenerator zipf(1000, 0.999);
    Rng rng(13);
    std::uint64_t zeros = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t v = zipf.next(rng);
        ASSERT_LT(v, 1000u);
        zeros += v == 0;
    }
    EXPECT_GT(zeros, draws / 10); // heavily skewed toward rank 0
}

TEST(Stats, AddAndReset)
{
    StatSet stats;
    stats.add(Stat::kClwb, 3);
    stats.add(Stat::kSfence);
    EXPECT_EQ(stats.get(Stat::kClwb), 3u);
    EXPECT_EQ(stats.get(Stat::kSfence), 1u);
    EXPECT_NE(stats.toString().find("clwb 3"), std::string::npos);
    stats.reset();
    EXPECT_EQ(stats.get(Stat::kClwb), 0u);
}

} // namespace
} // namespace incll
