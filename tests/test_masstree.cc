/**
 * @file
 * Functional tests for the transient Masstree configurations (MT, MT+):
 * basic operations, splits at scale, ordering, string keys and trie
 * layers, scans, and multithreaded tests racing gets and bounded scans
 * against splits.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "masstree/durable_tree.h"

namespace incll::mt {
namespace {

void *
tag(std::uint64_t v)
{
    return reinterpret_cast<void *>(v << 4); // 16-aligned fake pointers
}

TEST(MasstreeMTTest, EmptyTreeMisses)
{
    MasstreeMT t;
    void *out = nullptr;
    EXPECT_FALSE(t.get("missing", out));
    EXPECT_FALSE(t.remove("missing"));
}

TEST(MasstreeMTTest, PutGetSingle)
{
    MasstreeMT t;
    EXPECT_TRUE(t.put("hello", tag(1)));
    void *out = nullptr;
    ASSERT_TRUE(t.get("hello", out));
    EXPECT_EQ(out, tag(1));
}

TEST(MasstreeMTTest, UpdateReturnsOldValue)
{
    MasstreeMT t;
    EXPECT_TRUE(t.put("k", tag(1)));
    void *old = nullptr;
    EXPECT_FALSE(t.put("k", tag(2), &old)); // update, not insert
    EXPECT_EQ(old, tag(1));
    void *out = nullptr;
    ASSERT_TRUE(t.get("k", out));
    EXPECT_EQ(out, tag(2));
}

TEST(MasstreeMTTest, RemoveThenMiss)
{
    MasstreeMT t;
    t.put("k", tag(1));
    void *old = nullptr;
    EXPECT_TRUE(t.remove("k", &old));
    EXPECT_EQ(old, tag(1));
    void *out = nullptr;
    EXPECT_FALSE(t.get("k", out));
    EXPECT_FALSE(t.remove("k"));
}

TEST(MasstreeMTTest, DistinguishesKeyLengths)
{
    // Same slice prefix, different lengths: "a", "ab", ... share slices.
    MasstreeMT t;
    std::vector<std::string> keys = {"", "a", "ab", "abc", "abcd",
                                     "abcde", "abcdef", "abcdefg",
                                     "abcdefgh"};
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_TRUE(t.put(keys[i], tag(i + 1)));
    for (std::size_t i = 0; i < keys.size(); ++i) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(keys[i], out)) << "key len " << keys[i].size();
        EXPECT_EQ(out, tag(i + 1));
    }
}

TEST(MasstreeMTTest, ManyIntegerKeysWithSplits)
{
    MasstreeMT t;
    constexpr std::uint64_t kN = 20000;
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_TRUE(t.put(u64Key(i * 2654435761u % (1u << 30)), tag(i + 1)));
    for (std::uint64_t i = 0; i < kN; ++i) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(u64Key(i * 2654435761u % (1u << 30)), out));
        EXPECT_EQ(out, tag(i + 1));
    }
}

TEST(MasstreeMTTest, SequentialInsertAscending)
{
    MasstreeMT t;
    for (std::uint64_t i = 0; i < 5000; ++i)
        ASSERT_TRUE(t.put(u64Key(i), tag(i + 1)));
    for (std::uint64_t i = 0; i < 5000; ++i) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(u64Key(i), out));
        EXPECT_EQ(out, tag(i + 1));
    }
}

TEST(MasstreeMTTest, SequentialInsertDescending)
{
    MasstreeMT t;
    for (std::uint64_t i = 5000; i-- > 0;)
        ASSERT_TRUE(t.put(u64Key(i), tag(i + 1)));
    void *out = nullptr;
    ASSERT_TRUE(t.get(u64Key(0), out));
    EXPECT_EQ(out, tag(1));
    ASSERT_TRUE(t.get(u64Key(4999), out));
    EXPECT_EQ(out, tag(5000));
}

TEST(MasstreeMTTest, LongKeysCreateLayers)
{
    MasstreeMT t;
    // Keys sharing 8-, 16- and 24-byte prefixes force layer chains.
    std::vector<std::string> keys = {
        "prefix00suffix_a",
        "prefix00suffix_b",
        "prefix00suffix_b_even_longer_tail",
        "prefix00different",
        "prefix00",
        "prefix00suffix_a00000000999999997777",
        "prefix00suffix_a00000000999999998888",
    };
    for (std::size_t i = 0; i < keys.size(); ++i)
        ASSERT_TRUE(t.put(keys[i], tag(i + 1))) << keys[i];
    for (std::size_t i = 0; i < keys.size(); ++i) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(keys[i], out)) << keys[i];
        EXPECT_EQ(out, tag(i + 1)) << keys[i];
    }
    // Unrelated long key misses.
    void *out = nullptr;
    EXPECT_FALSE(t.get("prefix00suffix_c", out));
    EXPECT_FALSE(t.get("prefix00suffix_a0000000099999999", out));
}

TEST(MasstreeMTTest, UpdateAndRemoveInLayers)
{
    MasstreeMT t;
    const std::string a = "0123456789abcdeX";
    const std::string b = "0123456789abcdeY";
    t.put(a, tag(1));
    t.put(b, tag(2)); // converts the shared-slice slot into a layer
    void *old = nullptr;
    EXPECT_FALSE(t.put(a, tag(3), &old));
    EXPECT_EQ(old, tag(1));
    EXPECT_TRUE(t.remove(b, &old));
    EXPECT_EQ(old, tag(2));
    void *out = nullptr;
    ASSERT_TRUE(t.get(a, out));
    EXPECT_EQ(out, tag(3));
    EXPECT_FALSE(t.get(b, out));
}

TEST(MasstreeMTTest, ScanInOrder)
{
    MasstreeMT t;
    std::map<std::string, void *> model;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const std::string k = u64Key(rng.nextBounded(1u << 24));
        void *v = tag(i + 1);
        t.put(k, v);
        model[k] = v;
    }
    std::vector<std::string> seen;
    t.scan({}, SIZE_MAX, [&seen](std::string_view k, void *) {
        seen.emplace_back(k);
    });
    ASSERT_EQ(seen.size(), model.size());
    auto it = model.begin();
    for (std::size_t i = 0; i < seen.size(); ++i, ++it)
        ASSERT_EQ(seen[i], it->first) << "position " << i;
}

TEST(MasstreeMTTest, ScanFromStartKey)
{
    MasstreeMT t;
    for (std::uint64_t i = 0; i < 100; ++i)
        t.put(u64Key(i * 10), tag(i + 1));
    std::vector<std::string> seen;
    t.scan(u64Key(500), 10, [&seen](std::string_view k, void *) {
        seen.emplace_back(k);
    });
    ASSERT_EQ(seen.size(), 10u);
    EXPECT_EQ(seen.front(), u64Key(500));
    EXPECT_EQ(seen.back(), u64Key(590));
}

TEST(MasstreeMTTest, ScanAcrossLayers)
{
    MasstreeMT t;
    std::map<std::string, void *> model;
    for (int i = 0; i < 50; ++i) {
        std::string k = "commonprefix_" + std::to_string(1000 + i) +
                        "_tail_tail_tail";
        t.put(k, tag(i + 1));
        model[k] = tag(i + 1);
    }
    std::vector<std::string> seen;
    t.scan({}, SIZE_MAX, [&seen](std::string_view k, void *) {
        seen.emplace_back(k);
    });
    ASSERT_EQ(seen.size(), model.size());
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(MasstreeMTTest, SizeCountsKeys)
{
    MasstreeMT t;
    EXPECT_EQ(t.tree().size(), 0u);
    for (std::uint64_t i = 0; i < 500; ++i)
        t.put(u64Key(i), tag(i + 1));
    EXPECT_EQ(t.tree().size(), 500u);
    for (std::uint64_t i = 0; i < 100; ++i)
        t.remove(u64Key(i * 5));
    EXPECT_EQ(t.tree().size(), 400u);
}

TEST(MasstreeMTPlusTest, SameSemanticsAsMT)
{
    MasstreeMTPlus t;
    for (std::uint64_t i = 0; i < 5000; ++i)
        ASSERT_TRUE(t.put(u64Key(i * 7), tag(i + 1)));
    for (std::uint64_t i = 0; i < 5000; ++i) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(u64Key(i * 7), out));
        EXPECT_EQ(out, tag(i + 1));
    }
    EXPECT_TRUE(t.remove(u64Key(7)));
    void *out = nullptr;
    EXPECT_FALSE(t.get(u64Key(7), out));
}

TEST(MasstreeConcurrency, ParallelDisjointWriters)
{
    MasstreeMTPlus t;
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 4000;
    std::vector<std::thread> threads;
    for (int tid = 0; tid < kThreads; ++tid) {
        threads.emplace_back([&t, tid] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const std::uint64_t k =
                    (i << 8) | static_cast<std::uint64_t>(tid);
                ASSERT_TRUE(t.put(u64Key(k), tag(k + 1)));
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int tid = 0; tid < kThreads; ++tid) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            const std::uint64_t k =
                (i << 8) | static_cast<std::uint64_t>(tid);
            void *out = nullptr;
            ASSERT_TRUE(t.get(u64Key(k), out));
            ASSERT_EQ(out, tag(k + 1));
        }
    }
}

TEST(MasstreeConcurrency, ReadersDuringWrites)
{
    MasstreeMTPlus t;
    constexpr std::uint64_t kKeys = 20000;
    for (std::uint64_t i = 0; i < kKeys; i += 2)
        t.put(u64Key(i), tag(i + 1));

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> misses{0};
    std::thread reader([&] {
        Rng rng(3);
        while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t k = rng.nextBounded(kKeys / 2) * 2;
            void *out = nullptr;
            if (!t.get(u64Key(k), out) || out != tag(k + 1))
                misses.fetch_add(1);
        }
    });
    // Writer inserts the odd keys, forcing splits under the reader.
    for (std::uint64_t i = 1; i < kKeys; i += 2)
        ASSERT_TRUE(t.put(u64Key(i), tag(i + 1)));
    stop.store(true);
    reader.join();
    // Pre-existing even keys must never be missed.
    EXPECT_EQ(misses.load(), 0u);
}

/**
 * Why a limit-10 scan from @p from over keys @p got is wrong, or empty
 * when it is right: the even keys below @p total are always present and
 * odd ones may be, so the result must be strictly ascending, start at
 * or above @p from and skip no even key from there to its last key, and
 * hold 10 keys unless it reached the last even key.
 */
std::string
scanFault(std::uint64_t from, const std::vector<std::uint64_t> &got,
          std::uint64_t total)
{
    if (got.empty())
        return from >= total - 1 ? "" : "empty";
    // An even key skipped at the front: the first key must be `from`,
    // or from + 1 when `from` is odd and absent.
    if (got.front() < from || got.front() - from > (from % 2))
        return "first key " + std::to_string(got.front());
    for (std::size_t i = 1; i < got.size(); ++i) {
        const std::uint64_t a = got[i - 1], b = got[i];
        if (b <= a)
            return "not ascending at " + std::to_string(b);
        // Only an absent odd key may fall between neighbours.
        if (b - a > 2 || (b - a == 2 && a % 2 == 1))
            return "even key skipped after " + std::to_string(a);
    }
    if (got.size() < 10 && got.back() < total - 2)
        return "short scan ending at " + std::to_string(got.back());
    return {};
}

TEST(MasstreeConcurrency, BoundedScansDuringSplits)
{
    // Limit-10 scans race a writer whose inserts split leaves and
    // interiors under them, so a scan follows next pointers into
    // siblings a split is still publishing. Half the starts are uniform;
    // half trail the writer by under 8 keys, where the splits are.
    constexpr std::uint64_t kKeys = 100000;
    constexpr int kReaders = 2;
    for (int round = 0; round < 3; ++round) {
        MasstreeMTPlus t;
        for (std::uint64_t i = 0; i < kKeys; i += 2)
            t.put(u64Key(i), tag(i + 1));

        std::atomic<std::uint64_t> frontier{0};
        std::atomic<bool> stop{false};
        std::atomic<int> readersUp{0};
        std::vector<std::uint64_t> scans(kReaders, 0);
        std::vector<std::string> faults(kReaders);
        std::vector<std::thread> readers;
        for (int r = 0; r < kReaders; ++r) {
            readers.emplace_back([&, r] {
                Rng rng(11 + 17 * round + r);
                std::vector<std::uint64_t> got;
                readersUp.fetch_add(1);
                while (!stop.load(std::memory_order_relaxed)) {
                    const std::uint64_t behind = rng.nextBounded(8);
                    const std::uint64_t at =
                        frontier.load(std::memory_order_relaxed);
                    const std::uint64_t from =
                        scans[r] % 2 == 0 ? rng.nextBounded(kKeys)
                                          : at - std::min(at, behind);
                    got.clear();
                    bool valuesMatch = true;
                    t.scan(u64Key(from), 10,
                           [&](std::string_view k, void *v) {
                               const std::uint64_t key = sliceAt(k, 0);
                               valuesMatch &=
                                   k.size() == 8 && v == tag(key + 1);
                               got.push_back(key);
                           });
                    ++scans[r];
                    const std::string why =
                        valuesMatch ? scanFault(from, got, kKeys)
                                    : "value mismatch";
                    if (!why.empty()) {
                        faults[r] =
                            "scan from " + std::to_string(from) + ": " + why;
                        return;
                    }
                }
            });
        }
        while (readersUp.load() < kReaders)
            std::this_thread::yield();
        bool allInserted = true;
        for (std::uint64_t i = 1; i < kKeys; i += 2) {
            allInserted &= t.put(u64Key(i), tag(i + 1));
            frontier.store(i, std::memory_order_relaxed);
        }
        stop.store(true);
        for (auto &th : readers)
            th.join();
        EXPECT_TRUE(allInserted);
        for (int r = 0; r < kReaders; ++r) {
            EXPECT_EQ(faults[r], "") << "round " << round;
            EXPECT_GT(scans[r], 0u);
        }
    }
}

} // namespace
} // namespace incll::mt
