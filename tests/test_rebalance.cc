/**
 * @file
 * Online shard rebalancing tests (tier1).
 *
 * Centerpiece: a crash-injection matrix over every phase of the
 * key-move migration protocol — {before copy, mid-copy, after copy
 * pre-commit, post-commit pre-GC} × {inline, service-driven advances}
 * — asserting that recovery lands on exactly the old or exactly the new placement
 * (boundary tables compared byte-for-byte) with zero lost and zero
 * duplicated keys against a std::map oracle. Plus: the live protocol
 * end-to-end (with writes injected at every phase through the
 * crash-injection hook), dual-write/dual-route behaviour, validation
 * errors, the Rebalancer's detection loop, and a lossy-crash variant.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "service/epoch_service.h"
#include "service/rebalancer.h"
#include "store/sharded_store.h"
#include "store/value_util.h"
#include "ycsb/driver.h"

namespace incll::store {
namespace {

constexpr std::uint64_t kKeys = 2000;
constexpr std::size_t kValueBytes = 32;

std::string
key(std::uint64_t rank)
{
    return mt::u64Key(rank);
}

/** Old table: 4 shards × 500 ordered ranks each. */
std::vector<std::string>
oldBoundaries()
{
    return {key(500), key(1000), key(1500)};
}

ShardedStore::Options
rebalanceOptions(std::uint64_t seed)
{
    ShardedStore::Options o;
    o.shards = 4;
    o.mode = nvm::Mode::kTracked;
    o.seed = seed;
    o.poolBytesPerShard = std::size_t{1} << 25;
    o.config.logBuffers = 4;
    o.config.logBufferBytes = 1u << 20;
    o.config.placement = PlacementKind::kRange;
    o.config.rangeBoundaries = oldBoundaries();
    o.config.trackHotness = true;
    return o;
}

StoreConfig
recoverConfig()
{
    StoreConfig c;
    c.logBuffers = 4;
    c.logBufferBytes = 1u << 20;
    c.trackHotness = true;
    return c;
}

using Model = std::map<std::string, std::uint64_t>;

void
install(ShardedStore &st, Model &model, const std::string &k,
        std::uint64_t payload)
{
    store::installValue(st, k, &payload, sizeof(payload), kValueBytes);
    model[k] = payload;
}

void
removeKey(ShardedStore &st, Model &model, const std::string &k)
{
    void *old = nullptr;
    if (st.remove(k, &old) && old != nullptr)
        st.freeValueFor(k, old, kValueBytes);
    model.erase(k);
}

void
preloadModel(ShardedStore &st, Model &model)
{
    for (std::uint64_t r = 0; r < kKeys; ++r)
        install(st, model, key(r), r);
    st.advanceEpoch();
}

/** Full-range scan must equal the model key-for-key, payload included,
 *  with no duplicates (strictly ascending keys prove that). */
void
expectScanMatchesModel(ShardedStore &st, const Model &model,
                       const char *where)
{
    auto it = model.begin();
    std::size_t n = 0;
    std::string prev;
    st.scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
        if (n > 0) {
            EXPECT_LT(prev, std::string(k)) << where << ": duplicate/order";
        }
        prev = std::string(k);
        ASSERT_NE(it, model.end()) << where << ": extra key in scan";
        EXPECT_EQ(std::string(k), it->first) << where;
        std::uint64_t payload;
        std::memcpy(&payload, v, sizeof(payload));
        EXPECT_EQ(payload, it->second) << where << " key " << n;
        ++it;
        ++n;
    });
    EXPECT_EQ(n, model.size()) << where << ": lost keys";
    EXPECT_EQ(it, model.end()) << where;
}

/** Every key in every shard's tree lies inside the range the current
 *  table assigns that shard (no orphan copies / leftovers). */
void
expectShardsContainOnlyOwnedRanges(ShardedStore &st)
{
    ASSERT_EQ(st.placement().kind(), PlacementKind::kRange);
    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    for (unsigned s = 0; s < st.shardCount(); ++s) {
        const std::string lower{rp.lowerBoundOf(s)};
        std::string_view upper;
        const bool hasUpper = rp.upperBoundOf(s, upper);
        st.shard(s).tree().scan({}, SIZE_MAX, [&](std::string_view k, void *) {
            EXPECT_GE(std::string(k), lower) << "shard " << s;
            if (hasUpper) {
                EXPECT_LT(std::string(k), std::string(upper))
                    << "shard " << s;
            }
        });
    }
}

TEST(MoveBoundary, LiveMoveWithWritesAtEveryPhase)
{
    ShardedStore::Options o = rebalanceOptions(11);
    o.mode = nvm::Mode::kDirect; // live protocol only, no crash here
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    // Move the head [500, 750) of shard 1 LEFT into shard 0, injecting
    // writes at every phase through the gate hook: updates, a fresh
    // insert and a remove inside the moving interval (dual-write
    // territory), plus an outside-the-window control key.
    int copyCalls = 0;
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    mo.phaseGate = [&](MovePhase p) {
        switch (p) {
          case MovePhase::kCopy:
            if (copyCalls++ == 1) { // mid-copy, chunk already streamed
                install(st, model, key(600), 9001);
                install(st, model, std::string(key(601)) + "-fresh", 9002);
                removeKey(st, model, key(602));
                install(st, model, key(1700), 9003);
                // A second migration while one is in flight must be
                // refused.
                EXPECT_THROW(st.moveBoundary(2, 3, key(1600), {}),
                             std::runtime_error);
            }
            break;
          case MovePhase::kCommit:
            install(st, model, key(603), 9004);
            break;
          case MovePhase::kGc: {
            // Post-commit: the interval now routes to shard 0.
            install(st, model, key(604), 9005);
            removeKey(st, model, key(605));
            // Regression: the remove above must also kill the source's
            // not-yet-GC'd copy, or the dual-route read fallback
            // resurrects the key from the leftover.
            void *ghost = nullptr;
            EXPECT_FALSE(st.get(key(605), ghost))
                << "removed key resurrected via dual-route fallback";
            break;
          }
          default:
            break;
        }
        return true;
    };
    const MoveResult res = st.moveBoundary(1, 0, key(750), mo);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.reached, MovePhase::kDone);
    EXPECT_EQ(res.version, 1u);
    EXPECT_GT(res.keysMoved, 200u);
    EXPECT_EQ(st.placementVersion(), 1u);
    EXPECT_FALSE(st.migrationInProgress());

    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    const std::vector<std::string> want = {key(750), key(1000), key(1500)};
    EXPECT_EQ(rp.boundaries(), want);

    expectScanMatchesModel(st, model, "live move");
    expectShardsContainOnlyOwnedRanges(st);

    // Moved keys are found and writable under the new routing.
    for (std::uint64_t r = 500; r < 750; ++r) {
        if (!model.contains(key(r)))
            continue;
        void *out = nullptr;
        ASSERT_TRUE(st.get(key(r), out)) << r;
        EXPECT_EQ(st.shardOf(key(r)), 0u);
    }
    ycsb::destroyWithValues(st);
}

TEST(MoveBoundary, RejectsInvalidRequests)
{
    ShardedStore::Options o = rebalanceOptions(12);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);

    EXPECT_THROW(st.moveBoundary(0, 2, key(250), {}),
                 std::invalid_argument); // not adjacent
    EXPECT_THROW(st.moveBoundary(1, 2, key(500), {}),
                 std::invalid_argument); // split == lower bound
    EXPECT_THROW(st.moveBoundary(1, 2, key(1000), {}),
                 std::invalid_argument); // split == upper bound
    EXPECT_THROW(st.moveBoundary(1, 2, "", {}),
                 std::invalid_argument); // empty split
    EXPECT_THROW(
        st.moveBoundary(
            1, 2, std::string(Manifest::kMaxBoundaryBytes + 1, 'x'),
            {}),
        std::invalid_argument); // not persistable

    // Hash-placed stores cannot migrate.
    ShardedStore::Options hash;
    hash.shards = 2;
    hash.mode = nvm::Mode::kDirect;
    hash.poolBytesPerShard = std::size_t{1} << 24;
    hash.config.logBuffers = 4;
    hash.config.logBufferBytes = 1u << 20;
    ShardedStore hashed(hash);
    EXPECT_THROW(hashed.moveBoundary(0, 1, "m", {}), std::invalid_argument);
}

/**
 * The crash-injection matrix. Phase names follow the migration's
 * durable timeline:
 *   kBeforeCopy   intent manifest durable, zero keys copied
 *   kMidCopy      one chunk copied, the rest not
 *   kPreCommit    whole interval copied, commit manifest never written
 *   kPostCommit   commit manifest durable, source leftovers not GC'd
 * crossed with inline advances and with an EpochService racing the
 * copy with 1 ms boundaries (move advances routed through it).
 */
enum CrashPoint { kBeforeCopy = 0, kMidCopy, kPreCommit, kPostCommit };

class RebalanceCrashMatrix
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(RebalanceCrashMatrix, RecoversToExactlyOldOrNewPlacement)
{
    const auto [crashPoint, withService] = GetParam();
    const auto seed =
        static_cast<std::uint64_t>(1000 + crashPoint * 2 + withService);

    auto st = std::make_unique<ShardedStore>(rebalanceOptions(seed));
    Model model;
    preloadModel(*st, model);

    std::unique_ptr<service::EpochService> svc;
    if (withService) {
        service::EpochService::Options so;
        so.threads = 2;
        so.interval = std::chrono::milliseconds(1);
        svc = std::make_unique<service::EpochService>(*st, so);
        svc->start();
    }

    // Moving the tail [750, 1000) of shard 1 RIGHT into shard 2; the
    // new table differs from the old in exactly shard 2's lower bound.
    const std::vector<std::string> oldB = oldBoundaries();
    const std::vector<std::string> newB = {key(500), key(750), key(1500)};

    int copyCalls = 0;
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64; // [750, 1000) = 250 keys -> 4 chunks
    if (svc)
        mo.advanceShard = [&](unsigned s) { svc->advanceShardAndWait(s); };
    mo.phaseGate = [&](MovePhase p) {
        switch (crashPoint) {
          case kBeforeCopy:
            return p != MovePhase::kCopy;
          case kMidCopy:
            if (p == MovePhase::kCopy && copyCalls++ == 1) {
                // One chunk is in the destination; dual-write a key the
                // copy stream already passed, so the matrix also proves
                // the mirror survives (or is swept) at this phase.
                install(*st, model, key(760), 4242);
                return false;
            }
            return true;
          case kPreCommit:
            return p != MovePhase::kCommit;
          case kPostCommit:
            return p != MovePhase::kGc;
        }
        return true;
    };

    const MoveResult res = st->moveBoundary(1, 2, key(750), mo);
    EXPECT_FALSE(res.completed);
    const bool committed = crashPoint == kPostCommit;

    // Power failure: stop the world, make everything transient durable
    // (the adversary still drops whatever it likes via crash()), crash
    // every pool and recover.
    if (svc) {
        svc->stop();
        svc.reset();
    }
    st->advanceEpoch();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.3);
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        recoverConfig());

    // Placement is byte-for-byte exactly the old or the new table —
    // decided solely by whether the commit manifest became durable.
    ASSERT_EQ(st->placement().kind(), PlacementKind::kRange);
    const auto &rp = static_cast<const RangePlacement &>(st->placement());
    EXPECT_EQ(rp.boundaries(), committed ? newB : oldB);
    EXPECT_EQ(st->placementVersion(), committed ? 1u : 0u);

    const RecoveryInfo &info = st->lastRecoveryInfo();
    EXPECT_TRUE(info.migrationPending);
    EXPECT_EQ(info.migrationCommitted, committed);
    if (crashPoint == kBeforeCopy && !withService) {
        EXPECT_EQ(info.sweptKeys, 0u);
    }
    if (crashPoint == kPostCommit) {
        EXPECT_GT(info.sweptKeys, 0u) << "source leftovers must be swept";
    }
    if (crashPoint == kPreCommit) {
        EXPECT_GT(info.sweptKeys, 0u) << "destination copies must be swept";
    }

    // Zero lost, zero duplicated keys; every tree holds only its range.
    expectScanMatchesModel(*st, model, "post-recovery");
    expectShardsContainOnlyOwnedRanges(*st);

    // The intent is cleared: a second crash-free recovery round
    // trips nothing.
    for (unsigned s = 0; s < st->shardCount(); ++s)
        EXPECT_FALSE(readManifest(st->shard(s).pool())->intent.has_value())
            << "shard " << s;

    // The recovered store is fully operational: writes, a checkpoint,
    // and a complete re-run of the migration.
    install(*st, model, key(123456), 7);
    st->advanceEpoch();
    MoveOptions redo;
    redo.valueBytes = kValueBytes;
    // Committed case: shard 1 now owns [500, 750) — split the shrunken
    // range again; torn case: re-run the identical move.
    const MoveResult second =
        st->moveBoundary(1, 2, key(committed ? 600 : 750), redo);
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(second.version, committed ? 2u : 1u);
    EXPECT_EQ(st->placementVersion(), second.version);
    expectScanMatchesModel(*st, model, "post-recovery re-migration");
    expectShardsContainOnlyOwnedRanges(*st);
}

INSTANTIATE_TEST_SUITE_P(
    PhasesTimesEpochModes, RebalanceCrashMatrix,
    ::testing::Combine(::testing::Values(kBeforeCopy, kMidCopy, kPreCommit,
                                         kPostCommit),
                       ::testing::Bool()));

TEST(RebalanceCrash, LossyCrashWithoutFinalCheckpoint)
{
    // No advance before the crash and an aggressive eviction adversary:
    // the committed state is exactly the preload (everything later was
    // in the interrupted epochs), so recovery must land on the OLD
    // table with the oracle intact — copies and mirrors die with the
    // destination's in-flight epoch or are swept.
    auto st = std::make_unique<ShardedStore>(rebalanceOptions(77));
    Model model;
    preloadModel(*st, model);

    int copyCalls = 0;
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    mo.phaseGate = [&](MovePhase p) {
        return p != MovePhase::kCopy || copyCalls++ < 2;
    };
    const MoveResult res = st->moveBoundary(1, 2, key(750), mo);
    EXPECT_FALSE(res.completed);

    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.5);
    st = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                        recoverConfig());

    const auto &rp = static_cast<const RangePlacement &>(st->placement());
    EXPECT_EQ(rp.boundaries(), oldBoundaries());
    expectScanMatchesModel(*st, model, "lossy crash");
    expectShardsContainOnlyOwnedRanges(*st);
}

TEST(RebalancerService, DetectsSkewAndSplitsHotShard)
{
    ShardedStore::Options o = rebalanceOptions(21);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    service::Rebalancer::Options ro;
    ro.skewFactor = 2.0;
    ro.minShardOps = 256;
    ro.valueBytes = kValueBytes;
    service::Rebalancer reb(st, ro);

    // Balanced load: no migration fires.
    for (std::uint64_t r = 0; r < kKeys; ++r) {
        void *out = nullptr;
        st.get(key(r), out);
    }
    EXPECT_FALSE(reb.rebalanceOnce());

    // Hammer shard 1's range: detection must split it toward a cooler
    // neighbour and commit a new placement version.
    for (unsigned s = 0; s < st.shardCount(); ++s)
        st.hotness(s).reset();
    for (int round = 0; round < 8; ++round)
        for (std::uint64_t r = 500; r < 1000; ++r) {
            void *out = nullptr;
            st.get(key(r), out);
        }
    const std::uint64_t pausesBefore =
        obs::hist(obs::Hist::kMigrationPauseNs).snapshot().count;
    EXPECT_TRUE(reb.rebalanceOnce());
    EXPECT_EQ(reb.counters().migrations, 1u);
    EXPECT_EQ(st.placementVersion(), 1u);
    // The commit recorded its writer pause.
    EXPECT_EQ(obs::hist(obs::Hist::kMigrationPauseNs).snapshot().count,
              pausesBefore + 1);

    // The split point divides the former hot range: shard 1's span
    // shrank, its neighbour's grew, and nothing was lost.
    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    EXPECT_NE(rp.boundaries(), oldBoundaries());
    expectScanMatchesModel(st, model, "after rebalanceOnce");
    expectShardsContainOnlyOwnedRanges(st);

    // Idle store afterwards: counters were reset, nothing re-fires.
    EXPECT_FALSE(reb.rebalanceOnce());
    ycsb::destroyWithValues(st);
}

TEST(RebalancerService, BackgroundThreadRebalancesUnderHotspotLoad)
{
    ShardedStore::Options o = rebalanceOptions(22);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    service::EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::milliseconds(4);
    service::EpochService svc(st, so);
    svc.start();

    service::Rebalancer::Options ro;
    ro.interval = std::chrono::milliseconds(5);
    ro.skewFactor = 1.5;
    ro.minShardOps = 512;
    ro.valueBytes = kValueBytes;
    service::Rebalancer reb(st, ro, &svc);
    reb.start();
    EXPECT_TRUE(reb.running());

    // Drive a hotspot on shard 3's range from two threads until the
    // background loop has split it (bounded wait, barrier-free: the
    // migration counter is the explicit signal).
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 2; ++t) {
        workers.emplace_back([&st, &stop, t] {
            Rng rng(91 + t);
            while (!stop.load(std::memory_order_acquire)) {
                const std::uint64_t r = 1500 + rng.nextBounded(500);
                const std::uint64_t payload = r;
                store::installValue(st, key(r), &payload, sizeof(payload),
                                    kValueBytes);
            }
        });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (reb.counters().migrations == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    stop.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    reb.stop();
    svc.stop();

    EXPECT_GE(reb.counters().migrations, 1u)
        << "background rebalancer never split the hot shard";
    EXPECT_GE(st.placementVersion(), 1u);

    // Writers only ever updated existing keys with payload == rank, so
    // the oracle still holds exactly.
    expectScanMatchesModel(st, model, "after background rebalance");
    expectShardsContainOnlyOwnedRanges(st);
    ycsb::destroyWithValues(st);
}

} // namespace
} // namespace incll::store
