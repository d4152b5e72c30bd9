/**
 * @file
 * Model-based property tests for the (transient) Masstree: random
 * operation streams checked after every step against std::map, with
 * whole-tree and bounded scans audited against the map's order, swept
 * over seeds and key-shape regimes; plus directed edge-case keys.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "masstree/durable_tree.h"

namespace incll::mt {
namespace {

void *
tag(std::uint64_t v)
{
    return reinterpret_cast<void *>(v << 4);
}

enum class KeyShape { kShortInts, kMixed, kSharedPrefixes };

std::string
makeKey(KeyShape shape, Rng &rng, std::uint64_t universe)
{
    const std::uint64_t id = rng.nextBounded(universe);
    switch (shape) {
      case KeyShape::kShortInts:
        return u64Key(id);
      case KeyShape::kMixed:
        switch (id % 3) {
          case 0:
            return u64Key(id);
          case 1:
            return std::string("k") + std::to_string(id);
          default:
            return "namespace/" + std::to_string(id % 13) + "/item/" +
                   std::to_string(id);
        }
      case KeyShape::kSharedPrefixes:
        // Deep trie layers: 24-byte shared prefix, diverging tails.
        return "0123456789abcdef01234567-" + std::to_string(id);
    }
    return {};
}

class ModelCheck
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(ModelCheck, MatchesStdMap)
{
    const auto [seed, shapeInt] = GetParam();
    const auto shape = static_cast<KeyShape>(shapeInt);
    Rng rng(seed);
    Rng scanRng(seed + 1000);
    MasstreeMTPlus tree;
    std::map<std::string, void *> model;
    const std::uint64_t universe = 600;

    for (int step = 0; step < 4000; ++step) {
        const std::string key = makeKey(shape, rng, universe);
        const unsigned op = static_cast<unsigned>(rng.nextBounded(10));
        if (op < 6) { // put
            void *v = tag(step + 1);
            void *old = nullptr;
            const bool inserted = tree.put(key, v, &old);
            ASSERT_EQ(inserted, !model.contains(key)) << key;
            if (!inserted) {
                ASSERT_EQ(old, model[key]);
            }
            model[key] = v;
        } else if (op < 8) { // remove
            void *old = nullptr;
            const bool removed = tree.remove(key, &old);
            ASSERT_EQ(removed, model.contains(key)) << key;
            if (removed) {
                ASSERT_EQ(old, model[key]);
                model.erase(key);
            }
        } else { // get
            void *out = nullptr;
            const bool found = tree.get(key, out);
            ASSERT_EQ(found, model.contains(key)) << key;
            if (found) {
                ASSERT_EQ(out, model[key]);
            }
        }
        if (step % 1000 == 999) {
            // Full-order audit via scan.
            auto it = model.begin();
            std::size_t n = 0;
            bool ok = true;
            tree.scan({}, SIZE_MAX,
                      [&](std::string_view k, void *v) {
                          if (it == model.end() || k != it->first ||
                              v != it->second)
                              ok = false;
                          else
                              ++it;
                          ++n;
                      });
            ASSERT_TRUE(ok);
            ASSERT_EQ(n, model.size());
            ASSERT_EQ(it, model.end());

            // Bounded audits: starts drawn like the op keys (present,
            // absent and, under kSharedPrefixes, deep inside a trie
            // layer), limits 1-20, each checked against the model's
            // run from lower_bound(start). A third of the starts lose
            // their last byte (a start inside a slice) and a third gain
            // a NUL (the immediate successor of a drawn key, so a key of
            // the start's own slice falls below it and is filtered). A
            // separate stream keeps the op sequence independent of the
            // audits.
            for (int q = 0; q < 64; ++q) {
                std::string start = makeKey(shape, scanRng, universe);
                switch (scanRng.nextBounded(3)) {
                  case 1:
                    start.pop_back();
                    break;
                  case 2:
                    start.push_back('\0');
                    break;
                }
                const auto limit =
                    static_cast<std::size_t>(1 + scanRng.nextBounded(20));
                std::vector<std::pair<std::string, void *>> got;
                const std::size_t visited = tree.scan(
                    start, limit, [&got](std::string_view k, void *v) {
                        got.emplace_back(k, v);
                    });
                std::vector<std::pair<std::string, void *>> want;
                for (auto m = model.lower_bound(start);
                     m != model.end() && want.size() < limit; ++m)
                    want.emplace_back(m->first, m->second);
                ASSERT_EQ(visited, got.size());
                ASSERT_EQ(got, want)
                    << "start " << start << " limit " << limit;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, ModelCheck,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(0, 1, 2)));

TEST(MasstreeEdgeKeys, EmbeddedZeroBytes)
{
    MasstreeMTPlus t;
    const std::string a("a\0b", 3);
    const std::string b("a\0c", 3);
    const std::string c("a", 1);
    EXPECT_TRUE(t.put(a, tag(1)));
    EXPECT_TRUE(t.put(b, tag(2)));
    EXPECT_TRUE(t.put(c, tag(3)));
    void *out = nullptr;
    ASSERT_TRUE(t.get(a, out));
    EXPECT_EQ(out, tag(1));
    ASSERT_TRUE(t.get(b, out));
    EXPECT_EQ(out, tag(2));
    ASSERT_TRUE(t.get(c, out));
    EXPECT_EQ(out, tag(3));
    // "a\0" (2 bytes) was never inserted: zero-padding of slices must
    // not make it alias "a".
    EXPECT_FALSE(t.get(std::string("a\0", 2), out));
}

TEST(MasstreeEdgeKeys, HighBytes)
{
    MasstreeMTPlus t;
    const std::string hi8(8, '\xff');
    const std::string hi16(16, '\xff');
    t.put(hi8, tag(1));
    t.put(hi16, tag(2));
    void *out = nullptr;
    ASSERT_TRUE(t.get(hi8, out));
    EXPECT_EQ(out, tag(1));
    ASSERT_TRUE(t.get(hi16, out));
    EXPECT_EQ(out, tag(2));
}

TEST(MasstreeEdgeKeys, EmptyKey)
{
    MasstreeMTPlus t;
    EXPECT_TRUE(t.put("", tag(1)));
    void *out = nullptr;
    ASSERT_TRUE(t.get("", out));
    EXPECT_EQ(out, tag(1));
    EXPECT_TRUE(t.remove(""));
    EXPECT_FALSE(t.get("", out));
}

class BoundaryLengths : public ::testing::TestWithParam<int>
{
};

TEST_P(BoundaryLengths, AllPrefixLengthsCoexist)
{
    // Keys of every length 0..N sharing the same byte prefix exercise
    // the per-slice length disambiguation and layer transitions at the
    // 8/9, 16/17, ... boundaries.
    const int maxLen = GetParam();
    MasstreeMTPlus t;
    const std::string full(static_cast<std::size_t>(maxLen), 'q');
    for (int len = 0; len <= maxLen; ++len)
        ASSERT_TRUE(t.put(full.substr(0, len), tag(len + 1))) << len;
    for (int len = 0; len <= maxLen; ++len) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(full.substr(0, len), out)) << len;
        EXPECT_EQ(out, tag(len + 1)) << len;
    }
    // Remove the even lengths; odd ones must survive.
    for (int len = 0; len <= maxLen; len += 2)
        ASSERT_TRUE(t.remove(full.substr(0, len)));
    for (int len = 0; len <= maxLen; ++len) {
        void *out = nullptr;
        EXPECT_EQ(t.get(full.substr(0, len), out), len % 2 == 1) << len;
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, BoundaryLengths,
                         ::testing::Values(8, 9, 16, 17, 24, 40));

TEST(MasstreeStress, RemoveAllReinsertAll)
{
    MasstreeMTPlus t;
    constexpr std::uint64_t kN = 3000;
    for (std::uint64_t i = 0; i < kN; ++i)
        t.put(u64Key(i), tag(i + 1));
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_TRUE(t.remove(u64Key(i)));
    EXPECT_EQ(t.tree().size(), 0u);
    // Reinsert into the (empty but fully split) structure.
    for (std::uint64_t i = 0; i < kN; ++i)
        ASSERT_TRUE(t.put(u64Key(i), tag(i + 2)));
    EXPECT_EQ(t.tree().size(), kN);
    void *out = nullptr;
    ASSERT_TRUE(t.get(u64Key(kN / 2), out));
    EXPECT_EQ(out, tag(kN / 2 + 2));
}

TEST(MasstreeStress, AlternatingInsertRemoveChurnsSlots)
{
    // Slot reuse churn within single leaves.
    MasstreeMTPlus t;
    Rng rng(77);
    std::map<std::uint64_t, void *> model;
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t k = rng.nextBounded(40); // a couple of leaves
        if (model.contains(k)) {
            ASSERT_TRUE(t.remove(u64Key(k)));
            model.erase(k);
        } else {
            void *v = tag(step + 1);
            ASSERT_TRUE(t.put(u64Key(k), v));
            model[k] = v;
        }
    }
    for (const auto &[k, v] : model) {
        void *out = nullptr;
        ASSERT_TRUE(t.get(u64Key(k), out));
        ASSERT_EQ(out, v);
    }
    EXPECT_EQ(t.tree().size(), model.size());
}

} // namespace
} // namespace incll::mt
