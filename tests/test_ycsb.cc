/**
 * @file
 * YCSB workload-layer tests: mix fractions, name parsing, scrambling,
 * preload correctness, and driver result arithmetic.
 */
#include <gtest/gtest.h>

#include <set>

#include "masstree/durable_tree.h"
#include "ycsb/driver.h"

namespace incll::ycsb {
namespace {

TEST(Workload, PutFractionsMatchPaper)
{
    EXPECT_DOUBLE_EQ(putFraction(Mix::kA), 0.50);
    EXPECT_DOUBLE_EQ(putFraction(Mix::kB), 0.05);
    EXPECT_DOUBLE_EQ(putFraction(Mix::kC), 0.0);
    EXPECT_DOUBLE_EQ(putFraction(Mix::kE), 0.0);
}

TEST(Workload, MixParsing)
{
    EXPECT_EQ(mixFromString("A"), Mix::kA);
    EXPECT_EQ(mixFromString("b"), Mix::kB);
    EXPECT_EQ(mixFromString("C"), Mix::kC);
    EXPECT_EQ(mixFromString("e"), Mix::kE);
    EXPECT_THROW(mixFromString("F"), std::invalid_argument);
    EXPECT_STREQ(mixName(Mix::kA), "YCSB_A");
}

TEST(Workload, ScrambledKeysAreDistinct)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t r = 0; r < 100000; ++r)
        EXPECT_TRUE(seen.insert(scrambledKey(r)).second);
}

TEST(Workload, ScramblingDeclusters)
{
    // Adjacent ranks must not land in adjacent tree positions: check
    // that consecutive scrambled keys differ in their high byte often.
    int sameHigh = 0;
    for (std::uint64_t r = 0; r + 1 < 1000; ++r)
        sameHigh += (scrambledKey(r) >> 56) == (scrambledKey(r + 1) >> 56);
    EXPECT_LT(sameHigh, 50);
}

TEST(Driver, PreloadInsertsExactUniverse)
{
    mt::MasstreeMTPlus t;
    preload(t, 3000);
    EXPECT_EQ(t.tree().size(), 3000u);
    void *out = nullptr;
    for (std::uint64_t r = 0; r < 3000; ++r) {
        ASSERT_TRUE(t.get(mt::u64Key(scrambledKey(r)), out)) << r;
        std::uint64_t stored;
        std::memcpy(&stored, out, sizeof(stored));
        ASSERT_EQ(stored, r);
    }
    EXPECT_FALSE(t.get(mt::u64Key(scrambledKey(3000)), out));
}

TEST(Driver, ResultMath)
{
    Result r;
    r.seconds = 2.0;
    r.totalOps = 4000000;
    EXPECT_DOUBLE_EQ(r.mops(), 2.0);
    Result zero;
    EXPECT_DOUBLE_EQ(zero.mops(), 0.0);
}

TEST(Driver, RunPreservesKeyUniverse)
{
    // A write-heavy run only *updates* preloaded keys (ranks stay in
    // [0, n)); the key set must be unchanged afterwards.
    mt::MasstreeMTPlus t;
    preload(t, 2048);
    Spec spec;
    spec.mix = Mix::kA;
    spec.numKeys = 2048;
    spec.opsPerThread = 10000;
    spec.threads = 2;
    const auto res = run(t, spec);
    EXPECT_EQ(res.totalOps, 20000u);
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_EQ(t.tree().size(), 2048u);

    // No threads is a caller error, not a run that times nothing.
    spec.threads = 0;
    EXPECT_THROW(run(t, spec), std::invalid_argument);
}

TEST(Driver, ScanMixVisitsRequestedLength)
{
    mt::MasstreeMTPlus t;
    preload(t, 4096);
    std::size_t visited = 0;
    t.scan(mt::u64Key(0), 10, [&visited](std::string_view, void *) {
        ++visited;
    });
    EXPECT_EQ(visited, 10u);
}

TEST(Driver, DeterministicForSeed)
{
    // Same seed: the exact same operation mix runs (observable through
    // the number of puts, i.e. allocator activity); different seeds
    // draw different mixes with overwhelming probability.
    auto putsForSeed = [](std::uint64_t seed) {
        mt::MasstreeMTPlus t;
        preload(t, 512);
        Spec spec;
        spec.mix = Mix::kA;
        spec.numKeys = 512;
        spec.opsPerThread = 5000;
        spec.threads = 1;
        spec.seed = seed;
        std::uint64_t puts = 0;
        // Re-derive the op stream exactly as the driver does.
        Rng rng(seed * 1000003);
        const KeyChooser chooser(spec.dist, spec.numKeys, spec.theta);
        for (std::uint64_t i = 0; i < spec.opsPerThread; ++i) {
            (void)chooser.next(rng);
            puts += rng.nextBool(putFraction(spec.mix));
        }
        run(t, spec); // and the real run must execute without incident
        EXPECT_EQ(t.tree().size(), 512u);
        return puts;
    };
    EXPECT_EQ(putsForSeed(5), putsForSeed(5));
    EXPECT_NE(putsForSeed(5), putsForSeed(6));
}

} // namespace
} // namespace incll::ycsb
