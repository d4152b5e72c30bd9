/**
 * @file
 * Placement policy tests (tier1): routing equivalence under both
 * policies, range-scan shard-interval selection (the acceptance bar:
 * a scan enters no more gates than shards whose ranges intersect it),
 * durable boundary-table recovery, crash mid-preload under range
 * placement, the merged-scan gate-release fix under hash, and the store
 * manifest (round trip, torn and corrupt slots, a 16-member store
 * through merge, add, crash and shuffled recovery).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "store/sharded_store.h"
#include "store/value_util.h"
#include "ycsb/driver.h"

namespace incll::store {
namespace {

void *
tag(std::uint64_t v)
{
    return reinterpret_cast<void *>(v << 4);
}

ShardedStore::Options
directOptions(unsigned shards)
{
    ShardedStore::Options o;
    o.shards = shards;
    o.mode = nvm::Mode::kDirect;
    o.poolBytesPerShard = std::size_t{1} << 25;
    o.config.logBuffers = 4;
    o.config.logBufferBytes = 1u << 20;
    return o;
}

ShardedStore::Options
rangeOptions(unsigned shards, std::vector<std::string> boundaries = {})
{
    ShardedStore::Options o = directOptions(shards);
    o.config.placement = PlacementKind::kRange;
    o.config.rangeBoundaries = std::move(boundaries);
    return o;
}

/** kScanShardsEntered delta around one call. */
template <typename F>
std::uint64_t
gatesEnteredBy(F &&scanCall)
{
    const std::uint64_t before =
        globalStats().get(Stat::kScanShardsEntered);
    scanCall();
    return globalStats().get(Stat::kScanShardsEntered) - before;
}

TEST(PlacementRouting, EveryKeyRoutesToExactlyOneShard)
{
    for (const PlacementKind kind :
         {PlacementKind::kHash, PlacementKind::kRange}) {
        ShardedStore st(kind == PlacementKind::kHash ? directOptions(4)
                                                     : rangeOptions(4));
        Rng rng(7);
        for (int i = 0; i < 512; ++i) {
            const std::string k = mt::u64Key(rng.next());
            const unsigned owner = st.shardOf(k);
            ASSERT_LT(owner, 4u);
            ASSERT_EQ(owner, st.shardOf(k)) << "routing must be stable";
            st.put(k, tag(i + 1));
            // The key landed in exactly the shard the policy names.
            for (unsigned s = 0; s < 4; ++s) {
                void *out = nullptr;
                EXPECT_EQ(st.shard(s).tree().get(k, out), s == owner)
                    << placementName(kind) << " key in wrong shard";
            }
        }
    }
}

TEST(PlacementRouting, RangeBoundaryTableEdges)
{
    // shard 0: ["", "g")  shard 1: ["g", "n")  shard 2: ["n", "t")
    // shard 3: ["t", +inf)
    ShardedStore st(rangeOptions(4, {"g", "n", "t"}));
    const auto &p = st.placement();
    EXPECT_EQ(p.kind(), PlacementKind::kRange);
    EXPECT_TRUE(p.ordered());
    EXPECT_EQ(st.shardOf(""), 0u);
    EXPECT_EQ(st.shardOf("a"), 0u);
    EXPECT_EQ(st.shardOf("fzzz"), 0u);
    EXPECT_EQ(st.shardOf("g"), 1u) << "boundaries are inclusive lower bounds";
    EXPECT_EQ(st.shardOf(std::string_view("f\0z", 3)), 0u);
    EXPECT_EQ(st.shardOf("mzz"), 1u);
    EXPECT_EQ(st.shardOf("n"), 2u);
    EXPECT_EQ(st.shardOf("t"), 3u);
    EXPECT_EQ(st.shardOf("zzzz"), 3u);
}

TEST(PlacementConfig, RejectsMalformedTables)
{
    // Wrong boundary count.
    EXPECT_THROW(ShardedStore{rangeOptions(4, {"g", "n"})},
                 std::invalid_argument);
    // Not strictly increasing.
    EXPECT_THROW(ShardedStore{rangeOptions(3, {"n", "g"})},
                 std::invalid_argument);
    EXPECT_THROW(ShardedStore{rangeOptions(3, {"g", "g"})},
                 std::invalid_argument);
    // Empty boundary (shard 0 already starts at the empty key).
    EXPECT_THROW(ShardedStore{rangeOptions(3, {"", "g"})},
                 std::invalid_argument);
    // Over-long boundary cannot be persisted.
    EXPECT_THROW(
        ShardedStore{rangeOptions(
            2, {std::string(Manifest::kMaxBoundaryBytes + 1, 'x')})},
        std::invalid_argument);
    // Boundaries with hash placement are a configuration error.
    ShardedStore::Options o = directOptions(2);
    o.config.rangeBoundaries = {"m"};
    EXPECT_THROW(ShardedStore{o}, std::invalid_argument);
    // Name parsing.
    EXPECT_EQ(placementKindFromString("hash"), PlacementKind::kHash);
    EXPECT_EQ(placementKindFromString("range"), PlacementKind::kRange);
    EXPECT_THROW(placementKindFromString("rendezvous"),
                 std::invalid_argument);
}

TEST(PlacementConfig, SampleBoundaryDerivation)
{
    std::vector<std::string> samples;
    for (int i = 0; i < 1000; ++i)
        samples.push_back(mt::u64Key(mix64(i)));
    const auto b = RangePlacement::boundariesFromSamples(samples, 4);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_LT(b[0], b[1]);
    EXPECT_LT(b[1], b[2]);
    // Quantile cuts spread the sampled universe roughly evenly.
    ShardedStore st(rangeOptions(4, b));
    unsigned perShard[4] = {};
    for (const std::string &s : samples)
        ++perShard[st.shardOf(s)];
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_GT(perShard[s], 125u) << "shard " << s << " under-filled";
    // Too few distinct samples to cut 3 boundaries.
    EXPECT_THROW(RangePlacement::boundariesFromSamples({"a", "a", "a"}, 4),
                 std::invalid_argument);
}

TEST(RangeScan, EntersOnlyIntersectingShards)
{
    ShardedStore st(rangeOptions(4, {"g", "n", "t"}));
    std::map<std::string, void *> model;
    int n = 0;
    for (char c = 'a'; c <= 'z'; ++c)
        for (int i = 0; i < 8; ++i) {
            const std::string k =
                std::string(1, c) + "-" + std::to_string(i);
            st.put(k, tag(++n));
            model[k] = tag(n);
        }

    // Contained in shard 1's range ["g", "n"): one gate, like a
    // single-tree scan — the acceptance criterion.
    std::vector<std::string> seen;
    EXPECT_EQ(gatesEnteredBy([&] {
                  st.scan("h", 5, [&seen](std::string_view k, void *) {
                      seen.emplace_back(k);
                  });
              }),
              1u);
    ASSERT_EQ(seen.size(), 5u);
    auto it = model.lower_bound("h");
    for (const std::string &k : seen)
        EXPECT_EQ(k, (it++)->first);

    // Crossing one boundary ("m" keys end shard 1, "n" starts shard 2):
    // exactly the two intersecting shards.
    seen.clear();
    EXPECT_EQ(gatesEnteredBy([&] {
                  st.scan("m", 12, [&seen](std::string_view k, void *) {
                      seen.emplace_back(k);
                  });
              }),
              2u);
    it = model.lower_bound("m");
    for (const std::string &k : seen)
        EXPECT_EQ(k, (it++)->first);

    // Start in the last shard: one gate, even with an unbounded limit.
    EXPECT_EQ(gatesEnteredBy(
                  [&] { st.scan("u", SIZE_MAX, [](std::string_view, void *) {}); }),
              1u);

    // Whole-store scan touches all four — and streams in global order.
    seen.clear();
    EXPECT_EQ(gatesEnteredBy([&] {
                  st.scan({}, SIZE_MAX, [&seen](std::string_view k, void *) {
                      seen.emplace_back(k);
                  });
              }),
              4u);
    EXPECT_EQ(seen.size(), model.size());
    it = model.begin();
    for (const std::string &k : seen)
        EXPECT_EQ(k, (it++)->first);

    // The same contained scan against hash placement pays the full
    // N-way gather: the locality is the policy's, not the scan code's.
    ShardedStore hashed(directOptions(4));
    for (const auto &[k, v] : model)
        hashed.put(k, v);
    EXPECT_EQ(gatesEnteredBy(
                  [&] { hashed.scan("h", 5, [](std::string_view, void *) {}); }),
              4u);
}

TEST(RangeScan, FullMixAndValuesIntact)
{
    // The YCSB driver end-to-end against range placement with the
    // even-u64 default table: point mixes route, YCSB_E streams.
    constexpr std::uint64_t kKeys = 4096;
    ShardedStore st(rangeOptions(4));
    ycsb::preload(st, kKeys);
    st.advanceEpoch();

    // The scrambled-key universe spreads over all four range shards.
    std::uint64_t perShard[4] = {};
    for (std::uint64_t r = 0; r < kKeys; ++r)
        ++perShard[st.shardOf(mt::u64Key(ycsb::scrambledKey(r)))];
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_GT(perShard[i], kKeys / 8) << "shard " << i;

    for (const auto mix :
         {ycsb::Mix::kA, ycsb::Mix::kB, ycsb::Mix::kE}) {
        ycsb::Spec spec;
        spec.mix = mix;
        spec.numKeys = kKeys;
        spec.opsPerThread = 2048;
        spec.threads = 2;
        const auto res = ycsb::run(st, spec);
        EXPECT_GT(res.mops(), 0.0) << ycsb::mixName(mix);
    }
    for (std::uint64_t r = 0; r < kKeys; ++r) {
        void *out = nullptr;
        ASSERT_TRUE(st.get(mt::u64Key(ycsb::scrambledKey(r)), out)) << r;
        std::uint64_t stored;
        std::memcpy(&stored, out, sizeof(stored));
        ASSERT_EQ(stored, r);
    }
    ycsb::destroyWithValues(st);
}

TEST(HashScan, NonContributingShardGatesReleasedBeforeCallbacks)
{
    // The merged-scan gate fix: shards the merge can prove it will
    // never deliver from must not stay gated across the callbacks.
    ShardedStore st(directOptions(4));

    // Craft per-shard key populations: shard 3 owns only keys below the
    // scan start, shard 2 only keys past the merge window.
    auto fill = [&st](unsigned shard, const std::string &prefix, int want) {
        int placed = 0;
        for (int i = 0; placed < want && i < 100000; ++i) {
            const std::string k = prefix + std::to_string(100000 + i);
            if (st.shardOf(k) == shard) {
                st.put(k, tag(1));
                ++placed;
            }
        }
        ASSERT_EQ(placed, want);
    };
    fill(0, "n-", 20);
    fill(1, "n-", 20);
    fill(2, "zz-", 20); // sorts after every "n-" key
    fill(3, "a-", 20);  // sorts before the scan start

    bool checked = false;
    const auto got = st.scan("b", 15, [&](std::string_view k, void *) {
        if (checked)
            return;
        checked = true;
        EXPECT_TRUE(k.starts_with("n-"));
        // Delivering shards stay gated for pointer stability...
        EXPECT_TRUE(
            st.shard(0).tree().epochs().gate().heldByThisThread());
        EXPECT_TRUE(
            st.shard(1).tree().epochs().gate().heldByThisThread());
        // ...the shard whose hits all fall past the 15-key window and
        // the shard that gathered nothing are already released.
        EXPECT_FALSE(
            st.shard(2).tree().epochs().gate().heldByThisThread());
        EXPECT_FALSE(
            st.shard(3).tree().epochs().gate().heldByThisThread());
    });
    EXPECT_EQ(got, 15u);
    EXPECT_TRUE(checked);
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_FALSE(st.shard(s).tree().epochs().gate().heldByThisThread())
            << "gate leaked past scan return, shard " << s;
}

TEST(PlacementRecovery, BoundaryTableRestoredByteIdentically)
{
    const std::vector<std::string> boundaries = {
        "golf", "november", std::string("tango\0with-nul", 14)};
    ShardedStore::Options o = rangeOptions(4, boundaries);
    o.mode = nvm::Mode::kTracked;
    o.seed = 4242;
    auto st = std::make_unique<ShardedStore>(o);

    std::map<std::string, void *> model;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const std::string k = mt::u64Key(rng.next());
        st->put(k, tag(i + 1));
        model[k] = tag(i + 1);
    }
    st->advanceEpoch();

    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.4);
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        StoreConfig{.logBuffers = 4,
                                                    .logBufferBytes = 1u
                                                                      << 20});

    // The policy came back from the pool manifests, byte for byte.
    ASSERT_EQ(st->placement().kind(), PlacementKind::kRange);
    const auto &rp = static_cast<const RangePlacement &>(st->placement());
    EXPECT_EQ(rp.boundaries(), boundaries);

    // Routing after recovery is the crashed store's: every committed
    // key is found, and found in the shard the table names.
    for (const auto &[k, v] : model) {
        void *out = nullptr;
        ASSERT_TRUE(st->get(k, out)) << k;
        EXPECT_EQ(out, v);
        void *direct = nullptr;
        EXPECT_TRUE(st->shard(st->shardOf(k)).tree().get(k, direct));
    }
}

TEST(PlacementRecovery, HashPoolsRecoverAsHash)
{
    ShardedStore::Options o = directOptions(2);
    o.mode = nvm::Mode::kTracked;
    auto st = std::make_unique<ShardedStore>(o);
    st->put("k", tag(1));
    st->advanceEpoch();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash();
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        StoreConfig{.logBuffers = 4,
                                                    .logBufferBytes = 1u
                                                                      << 20});
    EXPECT_EQ(st->placement().kind(), PlacementKind::kHash);
    void *out = nullptr;
    EXPECT_TRUE(st->get("k", out));
}

TEST(PlacementRecovery, ShuffledPoolsResolvedByDurableIdentity)
{
    // Range stores name members by durable pool id, not by the order
    // the operator hands the pools back — a shuffled vector must
    // recover the exact crashed routing, not a transposed one.
    ShardedStore::Options o = rangeOptions(2, {"m"});
    o.mode = nvm::Mode::kTracked;
    auto st = std::make_unique<ShardedStore>(o);
    st->put("a", tag(1)); // below "m": shard 0
    st->put("z", tag(2)); // at/above "m": shard 1
    st->advanceEpoch();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash();
    std::swap(pools[0], pools[1]);
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        StoreConfig{.logBuffers = 4,
                                                    .logBufferBytes = 1u
                                                                      << 20});
    const auto &rp = static_cast<const RangePlacement &>(st->placement());
    EXPECT_EQ(rp.lowerBoundOf(1), "m");
    void *out = nullptr;
    ASSERT_TRUE(st->get("a", out));
    EXPECT_EQ(out, tag(1));
    ASSERT_TRUE(st->get("z", out));
    EXPECT_EQ(out, tag(2));
    EXPECT_EQ(st->shardOf("a"), 0u);
    EXPECT_EQ(st->shardOf("z"), 1u);
    void *direct = nullptr;
    EXPECT_TRUE(st->shard(0).tree().get("a", direct));
    EXPECT_TRUE(st->shard(1).tree().get("z", direct));
}

TEST(PlacementRecovery, DuplicatePoolIdentityIsRejected)
{
    // Corrupt metadata must refuse loudly, never silently re-route: two
    // pools claiming the same durable identity cannot be one store's
    // shards, whatever the manifest says.
    ShardedStore::Options o = rangeOptions(2, {"m"});
    o.mode = nvm::Mode::kTracked;
    auto st = std::make_unique<ShardedStore>(o);
    st->advanceEpoch();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash();
    Manifest forged = *readManifest(*pools[1]);
    forged.seq += 1;   // the newest manifest of its pool...
    forged.poolId = 0; // ...so now both pools claim id 0
    writeManifest(*pools[1], forged);
    EXPECT_THROW(ShardedStore(std::move(pools), kRecover, StoreConfig{}),
                 std::runtime_error);
}

TEST(PlacementRecovery, MissingMemberPoolIsRejected)
{
    // The committed membership names two pool ids; handing back only
    // one pool must throw rather than recover a half store.
    ShardedStore::Options o = rangeOptions(2, {"m"});
    o.mode = nvm::Mode::kTracked;
    auto st = std::make_unique<ShardedStore>(o);
    st->advanceEpoch();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash();
    pools.resize(1);
    EXPECT_THROW(ShardedStore(std::move(pools), kRecover, StoreConfig{}),
                 std::runtime_error);
}

TEST(PlacementRecovery, CrashMidPreloadRecoversCleanly)
{
    constexpr std::uint64_t kCommitted = 1500;
    ShardedStore::Options o = rangeOptions(4);
    o.mode = nvm::Mode::kTracked;
    o.seed = 777;
    auto st = std::make_unique<ShardedStore>(o);
    st->forEachShard(
        [](Shard &s) { s.pool().setEvictionRate(0.02); });

    // Commit a preload prefix, then crash with the rest mid-flight —
    // no shard has checkpointed the tail, some shards may not even
    // have seen it.
    for (std::uint64_t r = 0; r < kCommitted; ++r) {
        const std::uint64_t payload = r;
        st->put(mt::u64Key(ycsb::scrambledKey(r)), tag(payload + 1));
    }
    st->advanceEpoch();
    for (std::uint64_t r = kCommitted; r < kCommitted + 900; ++r)
        st->put(mt::u64Key(ycsb::scrambledKey(r)), tag(r + 1));

    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.5);
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        StoreConfig{.logBuffers = 4,
                                                    .logBufferBytes = 1u
                                                                      << 20});

    // The boundary table survived the mid-preload crash (it was
    // flushed at creation, before the first key), so routing works and
    // exactly the committed prefix is visible.
    ASSERT_EQ(st->placement().kind(), PlacementKind::kRange);
    for (std::uint64_t r = 0; r < kCommitted; ++r) {
        void *out = nullptr;
        ASSERT_TRUE(st->get(mt::u64Key(ycsb::scrambledKey(r)), out)) << r;
        EXPECT_EQ(out, tag(r + 1));
    }
    std::size_t total = 0;
    st->scan({}, SIZE_MAX, [&total](std::string_view, void *) { ++total; });
    EXPECT_EQ(total, kCommitted);

    // The recovered store keeps working: new writes, a checkpoint, and
    // range-local scans.
    st->put("post-crash-key", tag(99));
    st->advanceEpoch();
    void *out = nullptr;
    EXPECT_TRUE(st->get("post-crash-key", out));
    EXPECT_EQ(out, tag(99));
}

// ---- the store manifest ------------------------------------------------

/** Root-area bytes of manifest slot @p slot (byte map in placement.h). */
char *
slotBytes(nvm::Pool &pool, unsigned slot)
{
    return static_cast<char *>(pool.rootArea()) + manifestSlotOffset(slot);
}

/** The write sequence number stored in slot @p slot (offset 16). */
std::uint64_t
slotSeq(nvm::Pool &pool, unsigned slot)
{
    std::uint64_t seq;
    std::memcpy(&seq, slotBytes(pool, slot) + 16, sizeof(seq));
    return seq;
}

/** Crash every pool of @p st (after a checkpoint) and hand them back. */
std::vector<std::unique_ptr<nvm::Pool>>
crashPools(std::unique_ptr<ShardedStore> &st)
{
    st->advanceEpoch();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.3);
    return pools;
}

StoreConfig
smallConfig()
{
    return StoreConfig{.logBuffers = 4, .logBufferBytes = 1u << 20};
}

TEST(StoreManifest, KeysWithNulAndAtMaxLengthRoundTrip)
{
    const std::string maxLen(Manifest::kMaxBoundaryBytes, 'm');
    const std::string nulAtMax =
        std::string("t\0", 2) +
        std::string(Manifest::kMaxBoundaryBytes - 2, '\xff');
    const std::vector<std::string> boundaries = {std::string("g\0nul", 5),
                                                 maxLen, nulAtMax};

    // Writer and reader directly: every field, the intent included.
    nvm::Pool pool(std::size_t{4} << 20, nvm::Mode::kDirect);
    Manifest m;
    m.seq = 7;
    m.version = 3;
    m.poolId = 2;
    m.nextPoolId = 9;
    m.members = {0, 5, 2, 8};
    m.boundaries = boundaries;
    m.intent = MigrationIntent{.version = 4,
                               .src = 5,
                               .dst = 2,
                               .valueBytes = 32,
                               .lo = nulAtMax,
                               .hi = {}};
    writeManifest(pool, m);
    const std::optional<Manifest> back = readManifest(pool);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seq, 7u);
    EXPECT_EQ(back->version, 3u);
    EXPECT_EQ(back->poolId, 2u);
    EXPECT_EQ(back->nextPoolId, 9u);
    EXPECT_EQ(back->members, m.members);
    EXPECT_EQ(back->boundaries, boundaries);
    ASSERT_TRUE(back->intent.has_value());
    EXPECT_EQ(back->intent->version, 4u);
    EXPECT_EQ(back->intent->src, 5u);
    EXPECT_EQ(back->intent->dst, 2u);
    EXPECT_EQ(back->intent->valueBytes, 32u);
    EXPECT_EQ(back->intent->lo, nulAtMax);
    EXPECT_EQ(back->intent->hi, "");

    // Unpersistable manifests are refused before anything is written.
    Manifest bad = m;
    bad.boundaries[1].push_back('x');
    EXPECT_THROW(writeManifest(pool, bad), std::invalid_argument);
    bad = m;
    bad.boundaries.pop_back();
    EXPECT_THROW(writeManifest(pool, bad), std::invalid_argument);
    EXPECT_EQ(readManifest(pool)->seq, 7u);

    // And through a store's crash and recovery.
    ShardedStore::Options o = rangeOptions(4, boundaries);
    o.mode = nvm::Mode::kTracked;
    auto st = std::make_unique<ShardedStore>(o);
    st = std::make_unique<ShardedStore>(crashPools(st), kRecover,
                                        smallConfig());
    const auto &rp = static_cast<const RangePlacement &>(st->placement());
    EXPECT_EQ(rp.boundaries(), boundaries);
}

TEST(StoreManifest, SlotWithoutMagicLosesToTheOther)
{
    nvm::Pool pool(std::size_t{4} << 20, nvm::Mode::kDirect);
    Manifest m;
    m.members = {0};
    m.seq = 1;
    writeManifest(pool, m); // slot 0
    m.seq = 2;
    writeManifest(pool, m); // slot 1: never the newest slot's
    ASSERT_EQ(slotSeq(pool, 0), 1u);
    ASSERT_EQ(slotSeq(pool, 1), 2u);
    std::memset(slotBytes(pool, 1), 0, sizeof(std::uint64_t));
    EXPECT_EQ(readManifest(pool)->seq, 1u)
        << "a slot whose magic never landed must lose to the other";
    m.seq = 3;
    writeManifest(pool, m); // refills the slot without a magic word
    EXPECT_EQ(slotSeq(pool, 1), 3u);
    EXPECT_EQ(readManifest(pool)->seq, 3u);

    // A store whose newest manifest lost its magic in every pool: the
    // move's commit manifest ({new table, intent}) decides, and
    // recovery finishes the move's bookkeeping from its intent.
    ShardedStore::Options o = rangeOptions(2, {"m"});
    o.mode = nvm::Mode::kTracked;
    auto st = std::make_unique<ShardedStore>(o);
    for (const char *k : {"a", "h", "k", "z"})
        st->put(k, tag(static_cast<std::uint64_t>(k[0])));
    ASSERT_TRUE(st->moveBoundary(0, 1, "h").completed);
    auto pools = crashPools(st);
    for (auto &pool : pools) {
        const unsigned newest = slotSeq(*pool, 0) > slotSeq(*pool, 1) ? 0 : 1;
        std::memset(slotBytes(*pool, newest), 0, sizeof(std::uint64_t));
    }
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        smallConfig());
    const auto &rp = static_cast<const RangePlacement &>(st->placement());
    EXPECT_EQ(rp.boundaries(), std::vector<std::string>{"h"});
    EXPECT_EQ(st->placementVersion(), 1u);
    EXPECT_TRUE(st->lastRecoveryInfo().migrationPending);
    EXPECT_TRUE(st->lastRecoveryInfo().migrationCommitted);
    for (const char *k : {"a", "h", "k", "z"}) {
        void *out = nullptr;
        ASSERT_TRUE(st->get(k, out)) << k;
        EXPECT_EQ(out, tag(static_cast<std::uint64_t>(k[0])));
    }
    for (unsigned s = 0; s < st->shardCount(); ++s)
        EXPECT_FALSE(readManifest(st->shard(s).pool())->intent.has_value());
}

TEST(StoreManifest, ChecksumMismatchFailsRecoveryLoudly)
{
    for (const unsigned slot : {0u, 1u}) {
        ShardedStore::Options o = rangeOptions(3, {"g", "t"});
        o.mode = nvm::Mode::kTracked;
        auto st = std::make_unique<ShardedStore>(o);
        st->put("k", tag(1));
        ASSERT_TRUE(st->moveBoundary(1, 2, "p").completed);
        auto pools = crashPools(st);
        // One flipped payload byte (the first boundary's first byte) in
        // one slot of one pool, magic intact.
        slotBytes(*pools[1], slot)[336 + 4] ^= 0x01;
        EXPECT_THROW(ShardedStore(std::move(pools), kRecover, smallConfig()),
                     std::runtime_error)
            << "slot " << slot;
    }
}

TEST(StoreManifest, SixteenShardStoreMergesAddsAndRecoversShuffled)
{
    // A 16-member range store is governed like any other: it merges,
    // adds, and recovers its exact membership from shuffled pools.
    constexpr unsigned kShards = 16;
    std::vector<std::string> boundaries;
    for (unsigned s = 1; s < kShards; ++s)
        boundaries.push_back(mt::u64Key(100 * s));
    ShardedStore::Options o = rangeOptions(kShards, boundaries);
    o.mode = nvm::Mode::kTracked;
    o.poolBytesPerShard = std::size_t{1} << 24;
    auto st = std::make_unique<ShardedStore>(o);
    std::map<std::string, void *> model;
    for (std::uint64_t r = 0; r < 100 * kShards; r += 3) {
        st->put(mt::u64Key(r), tag(r + 1));
        model[mt::u64Key(r)] = tag(r + 1);
    }

    ASSERT_TRUE(st->mergeBoundary(5, 4).completed);
    ASSERT_TRUE(st->addShard(9, mt::u64Key(1050)).completed);
    ASSERT_EQ(st->shardCount(), kShards);
    EXPECT_EQ(st->unroutedPoolIds(), std::vector<std::uint32_t>{5});
    std::vector<std::uint32_t> ids;
    for (unsigned s = 0; s < st->shardCount(); ++s)
        ids.push_back(st->shardPoolId(s));
    EXPECT_EQ(ids[4], 4u);
    EXPECT_EQ(ids[10], kShards) << "the added member takes the next id";
    const auto table =
        static_cast<const RangePlacement &>(st->placement()).boundaries();

    // Crash with the merged-out pool still unretired, and hand the pools
    // back reversed.
    auto pools = crashPools(st);
    std::reverse(pools.begin(), pools.end());
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        smallConfig());
    EXPECT_EQ(st->lastRecoveryInfo().orphanPools, 1u);
    EXPECT_EQ(st->placementVersion(), 2u);
    std::vector<std::uint32_t> recoveredIds;
    for (unsigned s = 0; s < st->shardCount(); ++s)
        recoveredIds.push_back(st->shardPoolId(s));
    EXPECT_EQ(recoveredIds, ids);
    EXPECT_EQ(static_cast<const RangePlacement &>(st->placement()).boundaries(),
              table);
    auto it = model.begin();
    std::size_t n = 0;
    st->scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
        ASSERT_NE(it, model.end());
        EXPECT_EQ(std::string(k), it->first);
        EXPECT_EQ(v, it->second);
        ++it;
        ++n;
    });
    EXPECT_EQ(n, model.size());

    // Still elastic after recovery.
    EXPECT_TRUE(st->mergeBoundary(10, 11).completed);
    EXPECT_EQ(st->shardCount(), kShards - 1);
}

} // namespace
} // namespace incll::store
