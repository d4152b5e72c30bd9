/**
 * @file
 * Elastic topology tests (tier1).
 *
 * Centerpiece: crash-injection matrices over every phase of the merge
 * and add transitions — {before copy, mid-copy, after copy pre-commit,
 * post-commit pre-GC} × {inline, service-driven advances} — asserting
 * that recovery lands on exactly the old or exactly the new topology
 * (member ids and boundary tables compared byte-for-byte), that pools
 * outside the committed member set are discarded as orphans, and that
 * zero keys are lost or duplicated against a std::map oracle. Plus: the live
 * protocols end-to-end with writes injected at every phase, retirement
 * (idempotence, crash-equivalence, refusal while routed), validation
 * errors including the membership cap, the routing-table-epoch
 * regression (a reader parked across each commit type, and more
 * scanners than thread slots, some nesting a second pin, parked across
 * one commit per pin set), and the elastic Rebalancer cost model.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/pin_slots.h"
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
topologyOptions(std::uint64_t seed)
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

void
expectShardsContainOnlyOwnedRanges(ShardedStore &st)
{
    ASSERT_EQ(st.placement().kind(), PlacementKind::kRange);
    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    for (unsigned s = 0; s < st.shardCount(); ++s) {
        const std::string lower{rp.lowerBoundOf(s)};
        std::string_view upper;
        const bool hasUpper = rp.upperBoundOf(s, upper);
        st.shard(s).tree().scan({}, SIZE_MAX,
                                [&](std::string_view k, void *) {
                                    EXPECT_GE(std::string(k), lower)
                                        << "shard " << s;
                                    if (hasUpper) {
                                        EXPECT_LT(std::string(k),
                                                  std::string(upper))
                                            << "shard " << s;
                                    }
                                });
    }
}

std::vector<std::uint32_t>
memberIds(const ShardedStore &st)
{
    std::vector<std::uint32_t> ids;
    for (unsigned s = 0; s < st.shardCount(); ++s)
        ids.push_back(st.shardPoolId(s));
    return ids;
}

// ---------------------------------------------------------------------
// Live transitions with writers at every phase.
// ---------------------------------------------------------------------

TEST(TopologyMerge, LiveMergeWithWritesAtEveryPhase)
{
    ShardedStore::Options o = topologyOptions(31);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);
    ASSERT_EQ(st.placement().kind(), PlacementKind::kRange);

    // Merge shard 1 LEFT into shard 0 (the surviving bound is dst's own
    // "" edge), with traffic at every phase: updates, a fresh insert and
    // a remove inside the moving range, a read of a moved key post-
    // commit, and the in-flight-exclusion check.
    int copyCalls = 0;
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    mo.phaseGate = [&](MovePhase p) {
        switch (p) {
          case MovePhase::kCopy:
            if (copyCalls++ == 1) {
                install(st, model, key(600), 9001);
                install(st, model, std::string(key(601)) + "-new", 9002);
                removeKey(st, model, key(602));
                EXPECT_THROW(st.addShard(2, key(1200), {}),
                             std::runtime_error);
                EXPECT_THROW(st.mergeBoundary(2, 3, {}),
                             std::runtime_error);
            }
            break;
          case MovePhase::kCommit:
            install(st, model, key(603), 9004);
            break;
          case MovePhase::kGc: {
            install(st, model, key(604), 9005);
            removeKey(st, model, key(605));
            void *ghost = nullptr;
            EXPECT_FALSE(st.get(key(605), ghost))
                << "removed key resurrected via the merged-out source";
            break;
          }
          default:
            break;
        }
        return true;
    };
    const MoveResult res = st.mergeBoundary(1, 0, mo);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.reached, MovePhase::kDone);
    EXPECT_EQ(res.version, 1u);
    EXPECT_GT(res.keysMoved, 400u);
    EXPECT_EQ(st.placementVersion(), 1u);
    EXPECT_FALSE(st.migrationInProgress());
    ASSERT_EQ(st.shardCount(), 3u);

    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    const std::vector<std::string> want = {key(1000), key(1500)};
    EXPECT_EQ(rp.boundaries(), want);
    EXPECT_EQ(memberIds(st), (std::vector<std::uint32_t>{0, 2, 3}));

    expectScanMatchesModel(st, model, "live merge");
    expectShardsContainOnlyOwnedRanges(st);

    // Moved keys found and writable under the new routing.
    for (std::uint64_t r = 500; r < 1000; ++r) {
        if (!model.contains(key(r)))
            continue;
        void *out = nullptr;
        ASSERT_TRUE(st.get(key(r), out)) << r;
        EXPECT_EQ(st.shardOf(key(r)), 0u);
    }

    // The emptied member awaits retirement; retiring it is idempotent
    // and refuses ids the topology still routes to.
    const auto unrouted = st.unroutedPoolIds();
    ASSERT_EQ(unrouted.size(), 1u);
    EXPECT_EQ(unrouted[0], 1u);
    EXPECT_THROW(st.retireShard(0), std::invalid_argument);
    const RetireResult retired = st.retireShard(1);
    EXPECT_TRUE(retired.retired);
    EXPECT_FALSE(st.retireShard(1).retired);
    EXPECT_TRUE(st.unroutedPoolIds().empty());

    ycsb::destroyWithValues(st);
}

TEST(TopologyAdd, LiveAddWithWritesAtEveryPhase)
{
    ShardedStore::Options o = topologyOptions(32);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    int copyCalls = 0;
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    mo.phaseGate = [&](MovePhase p) {
        switch (p) {
          case MovePhase::kCopy:
            if (copyCalls++ == 1) {
                install(st, model, key(800), 9001);
                install(st, model, std::string(key(801)) + "-new", 9002);
                removeKey(st, model, key(802));
                EXPECT_THROW(st.moveBoundary(2, 3, key(1200), {}),
                             std::runtime_error);
            }
            break;
          case MovePhase::kCommit:
            install(st, model, key(803), 9004);
            break;
          case MovePhase::kGc: {
            // Post-commit the split tail routes to the new member.
            install(st, model, key(804), 9005);
            removeKey(st, model, key(805));
            void *ghost = nullptr;
            EXPECT_FALSE(st.get(key(805), ghost))
                << "removed key resurrected via the source leftover";
            break;
          }
          default:
            break;
        }
        return true;
    };
    const MoveResult res = st.addShard(1, key(750), mo);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.reached, MovePhase::kDone);
    EXPECT_EQ(res.version, 1u);
    EXPECT_GT(res.keysMoved, 200u);
    ASSERT_EQ(st.shardCount(), 5u);

    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    const std::vector<std::string> want = {key(500), key(750), key(1000),
                                           key(1500)};
    EXPECT_EQ(rp.boundaries(), want);
    // The fresh member takes the next durable pool id and the position
    // right of its source.
    EXPECT_EQ(memberIds(st), (std::vector<std::uint32_t>{0, 1, 4, 2, 3}));

    expectScanMatchesModel(st, model, "live add");
    expectShardsContainOnlyOwnedRanges(st);
    for (std::uint64_t r = 750; r < 1000; ++r) {
        if (!model.contains(key(r)))
            continue;
        EXPECT_EQ(st.shardOf(key(r)), 2u) << r;
    }
    ycsb::destroyWithValues(st);
}

TEST(TopologyValidation, RejectsInvalidRequests)
{
    ShardedStore::Options o = topologyOptions(33);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);

    EXPECT_THROW(st.mergeBoundary(0, 2, {}),
                 std::invalid_argument); // not adjacent
    EXPECT_THROW(st.mergeBoundary(0, 4, {}),
                 std::invalid_argument); // out of range
    EXPECT_THROW(st.addShard(9, key(100), {}),
                 std::invalid_argument); // source out of range
    EXPECT_THROW(st.addShard(1, key(500), {}),
                 std::invalid_argument); // split == lower bound
    EXPECT_THROW(st.addShard(1, key(1000), {}),
                 std::invalid_argument); // split == upper bound
    EXPECT_THROW(st.addShard(1, "", {}),
                 std::invalid_argument); // empty split
    EXPECT_THROW(
        st.addShard(1,
                    std::string(Manifest::kMaxBoundaryBytes + 1, 'x'),
                    {}),
        std::invalid_argument); // not persistable
    EXPECT_THROW(st.retireShard(0),
                 std::invalid_argument); // still routed
    EXPECT_FALSE(st.retireShard(99).retired); // unknown id: no-op

    // Hash-placed stores have no elastic topology.
    ShardedStore::Options hash;
    hash.shards = 2;
    hash.mode = nvm::Mode::kDirect;
    hash.poolBytesPerShard = std::size_t{1} << 24;
    hash.config.logBuffers = 4;
    hash.config.logBufferBytes = 1u << 20;
    ShardedStore hashed(hash);
    EXPECT_EQ(hashed.placement().kind(), PlacementKind::kHash);
    EXPECT_THROW(hashed.mergeBoundary(0, 1, {}), std::invalid_argument);
    EXPECT_THROW(hashed.addShard(0, "m", {}), std::invalid_argument);
}

TEST(TopologyValidation, MembershipCapIsEnforced)
{
    // A store at the manifest's member cap refuses to grow.
    ShardedStore::Options o;
    o.shards = Manifest::kMaxMembers;
    o.mode = nvm::Mode::kDirect;
    o.poolBytesPerShard = std::size_t{1} << 24;
    o.config.logBuffers = 4;
    o.config.logBufferBytes = 1u << 20;
    o.config.placement = PlacementKind::kRange;
    ShardedStore full(o);
    ASSERT_EQ(full.placement().kind(), PlacementKind::kRange);
    EXPECT_THROW(full.addShard(0, key(20), {}), std::invalid_argument);

    // A range store beyond the cap cannot be built at all.
    o.shards = Manifest::kMaxMembers + 1;
    EXPECT_THROW(ShardedStore{o}, std::invalid_argument);
}

// ---------------------------------------------------------------------
// The crash-injection matrices. Phase names follow the durable
// timeline shared by merge and add:
//   kBeforeCopy   intent manifest durable (for add: on the new pool
//                 too, with its id), zero keys copied
//   kMidCopy      one chunk copied, the rest not
//   kPreCommit    whole interval copied, commit manifest never written
//   kPostCommit   commit manifest durable, source leftovers not GC'd
// crossed with inline advances and with an EpochService racing the
// copy with 1 ms boundaries (advances routed through it).
// ---------------------------------------------------------------------

enum CrashPoint { kBeforeCopy = 0, kMidCopy, kPreCommit, kPostCommit };

class CrashRig
{
  public:
    explicit CrashRig(std::uint64_t seed)
        : st(std::make_unique<ShardedStore>(topologyOptions(seed)))
    {
        preloadModel(*st, model);
    }

    void
    startService()
    {
        service::EpochService::Options so;
        so.threads = 2;
        so.interval = std::chrono::milliseconds(1);
        svc = std::make_unique<service::EpochService>(*st, so);
        svc->start();
    }

    MoveOptions
    moveOptions(int crashPoint)
    {
        MoveOptions mo;
        mo.valueBytes = kValueBytes;
        mo.chunkKeys = 64;
        if (svc)
            mo.advanceShard = [this](unsigned s) {
                svc->advanceShardAndWait(s);
            };
        mo.phaseGate = [this, crashPoint](MovePhase p) {
            switch (crashPoint) {
              case kBeforeCopy:
                return p != MovePhase::kCopy;
              case kMidCopy:
                if (p == MovePhase::kCopy && copyCalls++ == 1) {
                    // One chunk already in the destination; dual-write a
                    // key the copy stream passed so the matrix also
                    // proves the mirror is swept (or kept) per side.
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
        return mo;
    }

    /** Power failure: checkpoint (the adversary still drops lines via
     *  crash()), crash every pool, recover. */
    void
    crashAndRecover()
    {
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
    }

    std::unique_ptr<ShardedStore> st;
    std::unique_ptr<service::EpochService> svc;
    Model model;
    int copyCalls = 0;
};

class MergeCrashMatrix
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(MergeCrashMatrix, RecoversToExactlyOldOrNewTopology)
{
    const auto [crashPoint, withService] = GetParam();
    CrashRig rig(static_cast<std::uint64_t>(2000 + crashPoint * 2 +
                                            withService));
    if (withService)
        rig.startService();

    // Merging shard 1 RIGHT into shard 2: the survivor's lower bound
    // drops to key(500), so the new table differs from the old in one
    // boundary AND one member.
    const MoveResult res =
        rig.st->mergeBoundary(1, 2, rig.moveOptions(crashPoint));
    EXPECT_FALSE(res.completed);
    const bool committed = crashPoint == kPostCommit;

    rig.crashAndRecover();
    ShardedStore &st = *rig.st;

    ASSERT_EQ(st.placement().kind(), PlacementKind::kRange);
    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    if (committed) {
        EXPECT_EQ(rp.boundaries(),
                  (std::vector<std::string>{key(500), key(1500)}));
        EXPECT_EQ(memberIds(st), (std::vector<std::uint32_t>{0, 2, 3}));
        EXPECT_EQ(st.placementVersion(), 1u);
        // The merged-out source fell outside the committed membership:
        // discarded wholesale, value buffers and all.
        EXPECT_EQ(st.lastRecoveryInfo().orphanPools, 1u);
    } else {
        EXPECT_EQ(rp.boundaries(), oldBoundaries());
        EXPECT_EQ(memberIds(st), (std::vector<std::uint32_t>{0, 1, 2, 3}));
        EXPECT_EQ(st.placementVersion(), 0u);
        EXPECT_EQ(st.lastRecoveryInfo().orphanPools, 0u);
    }
    const RecoveryInfo &info = st.lastRecoveryInfo();
    EXPECT_TRUE(info.migrationPending);
    EXPECT_EQ(info.migrationCommitted, committed);
    if (crashPoint == kMidCopy || crashPoint == kPreCommit) {
        EXPECT_GT(info.sweptKeys, 0u)
            << "destination copies of the torn merge must be swept";
    }
    if (committed) {
        EXPECT_EQ(info.sweptKeys, 0u)
            << "a committed merge has no out-of-range keys to sweep";
    }

    expectScanMatchesModel(st, rig.model, "post-recovery");
    expectShardsContainOnlyOwnedRanges(st);
    EXPECT_TRUE(st.unroutedPoolIds().empty());
    for (unsigned s = 0; s < st.shardCount(); ++s)
        EXPECT_FALSE(readManifest(st.shard(s).pool())->intent.has_value())
            << "shard " << s;

    // Fully operational: writes, a checkpoint, and a full transition —
    // the identical merge for the torn case, a re-split for the
    // committed one.
    install(st, rig.model, key(123456), 7);
    st.advanceEpoch();
    MoveOptions redo;
    redo.valueBytes = kValueBytes;
    if (committed) {
        const MoveResult second = st.addShard(1, key(1000), redo);
        EXPECT_TRUE(second.completed);
        EXPECT_EQ(second.version, 2u);
        EXPECT_EQ(st.shardCount(), 4u);
    } else {
        const MoveResult second = st.mergeBoundary(1, 2, redo);
        EXPECT_TRUE(second.completed);
        EXPECT_EQ(second.version, 1u);
        EXPECT_EQ(st.shardCount(), 3u);
        for (const std::uint32_t id : st.unroutedPoolIds())
            EXPECT_TRUE(st.retireShard(id).retired);
    }
    EXPECT_EQ(st.placementVersion(), committed ? 2u : 1u);
    expectScanMatchesModel(st, rig.model, "post-recovery re-transition");
    expectShardsContainOnlyOwnedRanges(st);
}

INSTANTIATE_TEST_SUITE_P(
    PhasesTimesEpochModes, MergeCrashMatrix,
    ::testing::Combine(::testing::Values(kBeforeCopy, kMidCopy, kPreCommit,
                                         kPostCommit),
                       ::testing::Bool()));

class AddCrashMatrix
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(AddCrashMatrix, RecoversToExactlyOldOrNewTopology)
{
    const auto [crashPoint, withService] = GetParam();
    CrashRig rig(static_cast<std::uint64_t>(3000 + crashPoint * 2 +
                                            withService));
    if (withService)
        rig.startService();

    // Splitting shard 1's tail [750, 1000) into a brand-new member
    // (durable pool id 4, position 2).
    const MoveResult res =
        rig.st->addShard(1, key(750), rig.moveOptions(crashPoint));
    EXPECT_FALSE(res.completed);
    const bool committed = crashPoint == kPostCommit;

    rig.crashAndRecover();
    ShardedStore &st = *rig.st;

    ASSERT_EQ(st.placement().kind(), PlacementKind::kRange);
    const auto &rp = static_cast<const RangePlacement &>(st.placement());
    if (committed) {
        EXPECT_EQ(rp.boundaries(), (std::vector<std::string>{
                                       key(500), key(750), key(1000),
                                       key(1500)}));
        EXPECT_EQ(memberIds(st),
                  (std::vector<std::uint32_t>{0, 1, 4, 2, 3}));
        EXPECT_EQ(st.placementVersion(), 1u);
        EXPECT_EQ(st.lastRecoveryInfo().orphanPools, 0u);
        EXPECT_GT(st.lastRecoveryInfo().sweptKeys, 0u)
            << "the committed add's source leftovers must be swept";
    } else {
        EXPECT_EQ(rp.boundaries(), oldBoundaries());
        EXPECT_EQ(memberIds(st), (std::vector<std::uint32_t>{0, 1, 2, 3}));
        EXPECT_EQ(st.placementVersion(), 0u);
        // The half-filled new pool never made the membership: its
        // manifest carries its id but no table names it — discarded
        // wholesale.
        EXPECT_EQ(st.lastRecoveryInfo().orphanPools, 1u);
        EXPECT_EQ(st.lastRecoveryInfo().sweptKeys, 0u)
            << "the torn add's copies die with the orphan pool";
    }
    EXPECT_TRUE(st.lastRecoveryInfo().migrationPending);
    EXPECT_EQ(st.lastRecoveryInfo().migrationCommitted, committed);

    expectScanMatchesModel(st, rig.model, "post-recovery");
    expectShardsContainOnlyOwnedRanges(st);
    for (unsigned s = 0; s < st.shardCount(); ++s)
        EXPECT_FALSE(readManifest(st.shard(s).pool())->intent.has_value())
            << "shard " << s;

    // Fully operational: re-run the identical add (torn) or merge the
    // new member straight back (committed).
    install(st, rig.model, key(123456), 7);
    st.advanceEpoch();
    MoveOptions redo;
    redo.valueBytes = kValueBytes;
    if (committed) {
        const MoveResult second = st.mergeBoundary(2, 1, redo);
        EXPECT_TRUE(second.completed);
        EXPECT_EQ(st.shardCount(), 4u);
        for (const std::uint32_t id : st.unroutedPoolIds())
            EXPECT_TRUE(st.retireShard(id).retired);
    } else {
        const MoveResult second = st.addShard(1, key(750), redo);
        EXPECT_TRUE(second.completed);
        EXPECT_EQ(st.shardCount(), 5u);
    }
    EXPECT_EQ(st.placementVersion(), committed ? 2u : 1u);
    expectScanMatchesModel(st, rig.model, "post-recovery re-transition");
    expectShardsContainOnlyOwnedRanges(st);
}

INSTANTIATE_TEST_SUITE_P(
    PhasesTimesEpochModes, AddCrashMatrix,
    ::testing::Combine(::testing::Values(kBeforeCopy, kMidCopy, kPreCommit,
                                         kPostCommit),
                       ::testing::Bool()));

TEST(TopologyRetire, CrashBeforeRetirementDiscardsTheOrphan)
{
    // Retirement writes nothing durable — the shard left the membership
    // at the merge commit. A crash between the merge and the
    // retireShard() call must recover the identical topology and
    // re-discard the orphan pool; a crash after it recovers the same
    // store minus one orphan. Both sides of "did we get to retire"
    // are byte-equivalent.
    CrashRig rig(41);
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    const MoveResult res = rig.st->mergeBoundary(3, 2, mo);
    ASSERT_TRUE(res.completed);
    ASSERT_EQ(rig.st->unroutedPoolIds(),
              (std::vector<std::uint32_t>{3})); // NOT retired: crash now

    rig.crashAndRecover();
    ShardedStore &st = *rig.st;
    EXPECT_EQ(st.lastRecoveryInfo().orphanPools, 1u);
    EXPECT_EQ(st.shardCount(), 3u);
    EXPECT_EQ(memberIds(st), (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(st.placementVersion(), 1u);
    EXPECT_TRUE(st.unroutedPoolIds().empty())
        << "recovery discards orphans; nothing is left to retire";
    EXPECT_FALSE(st.retireShard(3).retired) << "idempotent after discard";
    expectScanMatchesModel(st, rig.model, "post-recovery");
    expectShardsContainOnlyOwnedRanges(st);

    // Second crash round: re-discarding nothing, same topology.
    rig.crashAndRecover();
    EXPECT_EQ(rig.st->lastRecoveryInfo().orphanPools, 0u);
    EXPECT_EQ(rig.st->shardCount(), 3u);
    EXPECT_EQ(rig.st->placementVersion(), 1u);
    expectScanMatchesModel(*rig.st, rig.model, "second recovery");
}

// ---------------------------------------------------------------------
// The routing-table-epoch regression: a reader that loaded the table
// just before a topology commit parks mid-scan while the transition
// commits underneath it. The GC/teardown side must outwait the
// reader's snapshot pin (graceNs proves the wait happened), so the
// parked scan streams exactly the key population frozen at its start —
// moved keys never observed as absent, never twice.
// ---------------------------------------------------------------------

class ParkedReader
{
  public:
    /** Start a full scan that parks inside its first callback until
     *  release() is called. */
    explicit ParkedReader(ShardedStore &st)
    {
        thread_ = std::thread([this, &st] {
            bool first = true;
            st.scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
                if (first) {
                    first = false;
                    std::unique_lock lk(mu_);
                    started_ = true;
                    cv_.notify_all();
                    cv_.wait(lk, [this] { return released_; });
                    lk.unlock();
                    // Hold the pin a beat past the commit so the grace
                    // wait is observably non-zero.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
                std::uint64_t payload;
                std::memcpy(&payload, v, sizeof(payload));
                seen_.emplace_back(std::string(k), payload);
            });
        });
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return started_; });
    }

    void
    release()
    {
        std::lock_guard lk(mu_);
        released_ = true;
        cv_.notify_all();
    }

    /** Join and check the scan saw exactly @p frozen. */
    void
    expectSawExactly(const Model &frozen, const char *where)
    {
        thread_.join();
        auto it = frozen.begin();
        for (const auto &[k, payload] : seen_) {
            ASSERT_NE(it, frozen.end())
                << where << ": extra/duplicate key " << k;
            ASSERT_EQ(k, it->first) << where;
            ASSERT_EQ(payload, it->second) << where << " " << k;
            ++it;
        }
        ASSERT_EQ(it, frozen.end()) << where << ": lost keys";
    }

  private:
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool started_ = false;
    bool released_ = false;
    std::vector<std::pair<std::string, std::uint64_t>> seen_;
};

TEST(TopologyTableEpoch, ReaderParkedAcrossMergeCommit)
{
    // The parked scan holds shard 0's gate and a pin on the pre-merge
    // snapshot; shards 2 and 3 merge and commit underneath it. Under
    // the retired table the scan routes the moved range to the old
    // source — whose pool must therefore survive until the pin drops.
    ShardedStore::Options o = topologyOptions(51);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);
    const Model frozen = model;

    ParkedReader reader(st);
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.phaseGate = [&](MovePhase p) {
        if (p == MovePhase::kGc)
            reader.release(); // straight into the grace window
        return true;
    };
    const MoveResult res = st.mergeBoundary(3, 2, mo);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.graceNs, 0u)
        << "merge GC ran without waiting out the reader's table pin";
    reader.expectSawExactly(frozen, "scan across merge");
    expectScanMatchesModel(st, model, "after merge");

    // And the emptied member cannot be torn down under a parked reader
    // either: the retire below runs with no stale pins left (the merge
    // drained them), so it must succeed immediately.
    for (const std::uint32_t id : st.unroutedPoolIds())
        EXPECT_TRUE(st.retireShard(id).retired);
    ycsb::destroyWithValues(st);
}

TEST(TopologyTableEpoch, ReaderParkedAcrossAddCommit)
{
    // Same rig for addShard: the commit inserts a member and the GC
    // deletes the source's copied tail — under the retired table the
    // parked scan still routes that tail to the source, so the sweep
    // must outwait the pin or the keys vanish from its snapshot.
    ShardedStore::Options o = topologyOptions(52);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);
    const Model frozen = model;

    ParkedReader reader(st);
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.phaseGate = [&](MovePhase p) {
        if (p == MovePhase::kGc)
            reader.release();
        return true;
    };
    const MoveResult res = st.addShard(2, key(1200), mo);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.graceNs, 0u)
        << "add GC swept the source without waiting out the table pin";
    reader.expectSawExactly(frozen, "scan across add");
    expectScanMatchesModel(st, model, "after add");
    ycsb::destroyWithValues(st);
}

TEST(TopologyTableEpoch, ReaderParkedAcrossRetirement)
{
    // Retirement under a live reader on the CURRENT topology: the
    // reader never references the unrouted victim, so the teardown must
    // neither wait for it nor disturb its stream.
    ShardedStore::Options o = topologyOptions(53);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    ASSERT_TRUE(st.mergeBoundary(3, 2, mo).completed);
    const Model frozen = model;

    ParkedReader reader(st);
    const auto unrouted = st.unroutedPoolIds();
    ASSERT_EQ(unrouted.size(), 1u);
    const RetireResult res = st.retireShard(unrouted[0]);
    EXPECT_TRUE(res.retired)
        << "teardown of an unrouted shard must not block on current "
           "readers";
    reader.release();
    reader.expectSawExactly(frozen, "scan across retirement");
    expectScanMatchesModel(st, model, "after retirement");
    ycsb::destroyWithValues(st);
}

/**
 * More scanners than thread slots, parked together: each runs a full
 * scan that parks in its first callback (shard 0, which no transition
 * below touches) until released, once per round. Odd scanners also
 * run a store get from inside the callback, before parking and right
 * after release, so their thread holds two table pins at once.
 */
class ParkedFleet
{
  public:
    static constexpr unsigned kScanners = kThreadSlots + 16;
    static constexpr std::uint64_t kNestedRank = 100; ///< held shard 0

    explicit ParkedFleet(ShardedStore &st) : st_(st), scanners_(kScanners)
    {
        for (unsigned i = 0; i < kScanners; ++i)
            threads_.emplace_back([this, i] { run(i); });
    }

    ~ParkedFleet()
    {
        {
            std::lock_guard lk(mu_);
            quit_ = true;
        }
        cv_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    /** Start a round's scans and wait until every one is parked. */
    void
    parkAll()
    {
        std::unique_lock lk(mu_);
        ++round_;
        parked_ = 0;
        cv_.notify_all();
        cv_.wait(lk, [this] { return parked_ == kScanners; });
    }

    /** Distinct thread slots the scanners pin from. */
    std::size_t
    distinctSlots()
    {
        std::lock_guard lk(mu_);
        std::vector<bool> used(kThreadSlots, false);
        for (const Scanner &s : scanners_)
            used[s.slot] = true;
        return static_cast<std::size_t>(
            std::count(used.begin(), used.end(), true));
    }

    /** Release every parked scan whose thread slot is (or is not, with
     *  @p onSlot false) @p slot, and wait for those scans to end. */
    void
    release(unsigned slot, bool onSlot)
    {
        std::unique_lock lk(mu_);
        std::size_t want = finished_;
        for (Scanner &s : scanners_)
            if ((s.slot == slot) == onSlot && s.released < round_) {
                s.released = round_;
                ++want;
            }
        cv_.notify_all();
        cv_.wait(lk, [&] { return finished_ == want; });
    }

    /** Every scanner's last round saw exactly @p frozen, and every
     *  nested get found its key. */
    void
    expectSawExactly(const Model &frozen, const char *where)
    {
        std::lock_guard lk(mu_);
        EXPECT_EQ(nestedMisses_, 0u) << where << ": nested get missed";
        for (unsigned i = 0; i < kScanners; ++i) {
            const auto &seen = scanners_[i].seen;
            auto it = frozen.begin();
            std::size_t n = 0;
            for (; n < seen.size() && it != frozen.end(); ++n, ++it) {
                ASSERT_EQ(seen[n].first, it->first)
                    << where << ": scanner " << i << " slot "
                    << scanners_[i].slot << " diverged";
                ASSERT_EQ(seen[n].second, it->second) << where;
            }
            ASSERT_EQ(n, seen.size()) << where << ": scanner " << i
                                      << " saw extra/duplicate keys";
            ASSERT_EQ(it, frozen.end())
                << where << ": scanner " << i << " slot "
                << scanners_[i].slot << " lost keys";
        }
    }

  private:
    struct Scanner
    {
        unsigned slot = 0;
        unsigned released = 0; ///< last round released
        std::vector<std::pair<std::string, std::uint64_t>> seen;
    };

    void
    nestedGet()
    {
        void *v = nullptr;
        std::uint64_t payload = 0;
        if (st_.get(key(kNestedRank), v))
            std::memcpy(&payload, v, sizeof(payload));
        if (payload != kNestedRank) {
            std::lock_guard lk(mu_);
            ++nestedMisses_;
        }
    }

    void
    run(unsigned i)
    {
        for (unsigned round = 1;; ++round) {
            {
                std::unique_lock lk(mu_);
                cv_.wait(lk, [&] { return round_ >= round || quit_; });
                if (round_ < round)
                    return;
            }
            std::vector<std::pair<std::string, std::uint64_t>> seen;
            bool first = true;
            st_.scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
                if (first) {
                    first = false;
                    if (i % 2 == 1)
                        nestedGet();
                    std::unique_lock lk(mu_);
                    scanners_[i].slot = threadSlot();
                    ++parked_;
                    cv_.notify_all();
                    cv_.wait(lk, [&] {
                        return scanners_[i].released >= round || quit_;
                    });
                    lk.unlock();
                    if (i % 2 == 1)
                        nestedGet();
                }
                std::uint64_t payload;
                std::memcpy(&payload, v, sizeof(payload));
                seen.emplace_back(std::string(k), payload);
            });
            std::lock_guard lk(mu_);
            scanners_[i].seen = std::move(seen);
            ++finished_;
            cv_.notify_all();
        }
    }

    ShardedStore &st_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Scanner> scanners_;
    std::vector<std::thread> threads_;
    unsigned round_ = 0;
    std::size_t parked_ = 0;
    std::size_t finished_ = 0;
    std::size_t nestedMisses_ = 0;
    bool quit_ = false;
};

/**
 * Run @p commit on its own thread with @p fleet parked; once it reaches
 * its GC, release every scan except those on thread slot @p lastSlot.
 * The commit must then still be waiting — those scans pin the retired
 * snapshot — until the last ones are released too.
 */
MoveResult
commitUnderParkedFleet(ShardedStore &st, ParkedFleet &fleet,
                       unsigned lastSlot,
                       const std::function<MoveResult(MoveOptions)> &commit)
{
    std::atomic<bool> inGc{false};
    MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.phaseGate = [&](MovePhase p) {
        if (p == MovePhase::kGc)
            inGc.store(true);
        return true;
    };
    MoveResult res;
    std::thread mover([&] { res = commit(mo); });
    while (!inGc.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fleet.release(lastSlot, /*onSlot=*/false);
    for (int i = 0; i < 50 && st.migrationInProgress(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_TRUE(st.migrationInProgress())
        << "the commit finished while scans on thread slot " << lastSlot
        << " still pinned the retired snapshot";
    fleet.release(lastSlot, /*onSlot=*/true);
    mover.join();
    return res;
}

TEST(TopologyTableEpoch, SharedAndNestedPinsHoldBothPinSets)
{
    // The table epoch's pins are per thread slot, in two sets that each
    // grace drain flips between. 80 scanners (more than the 64 slots,
    // so 16 slots carry two threads' pins) park across a move commit
    // and again across an add commit, so both sets are drained. Each
    // commit's GC must wait for every slot — the scans on the slot
    // released last included — and every scan must stream exactly the
    // frozen key population.
    ShardedStore::Options o = topologyOptions(54);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);
    const Model frozen = model;
    ParkedFleet fleet(st);

    fleet.parkAll();
    ASSERT_EQ(fleet.distinctSlots(), kThreadSlots)
        << "every thread slot must hold a parked scan's pin";
    MoveResult res = commitUnderParkedFleet(
        st, fleet, kThreadSlots - 1, [&](MoveOptions mo) {
            return st.moveBoundary(2, 3, key(1200), mo);
        });
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.graceNs, 0u) << "move GC skipped the grace wait";
    fleet.expectSawExactly(frozen, "scans across the move");
    expectScanMatchesModel(st, model, "after move");

    fleet.parkAll();
    res = commitUnderParkedFleet(st, fleet, 0, [&](MoveOptions mo) {
        return st.addShard(1, key(700), mo);
    });
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.graceNs, 0u) << "add GC skipped the grace wait";
    fleet.expectSawExactly(frozen, "scans across the add");
    expectScanMatchesModel(st, model, "after add");
    EXPECT_EQ(st.shardCount(), 5u);
    ycsb::destroyWithValues(st);
}

// ---------------------------------------------------------------------
// The elastic Rebalancer cost model.
// ---------------------------------------------------------------------

TEST(ElasticRebalancer, MergesColdShardAndRetiresIt)
{
    ShardedStore::Options o = topologyOptions(61);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    service::Rebalancer::Options ro;
    ro.valueBytes = kValueBytes;
    ro.minShardOps = 256;
    ro.elastic = true;
    ro.coldShardOps = 128;
    service::Rebalancer reb(st, ro);

    // Shards 0..2 busy, shard 3 idle (the preload's put traffic is
    // cleared first — "cold" means cold under the measured load, not
    // freshly created): the pass must merge 3 into its neighbour and
    // retire it.
    for (unsigned s = 0; s < st.shardCount(); ++s)
        st.hotness(s).reset();
    for (int round = 0; round < 2; ++round)
        for (std::uint64_t r = 0; r < 1500; ++r) {
            void *out = nullptr;
            st.get(key(r), out);
        }
    EXPECT_TRUE(reb.rebalanceOnce());
    EXPECT_EQ(reb.counters().merges, 1u);
    EXPECT_EQ(reb.counters().retires, 1u);
    EXPECT_EQ(st.shardCount(), 3u);
    EXPECT_TRUE(st.unroutedPoolIds().empty());
    expectScanMatchesModel(st, model, "after cold merge");
    expectShardsContainOnlyOwnedRanges(st);

    // Idle store: no further merges — with no load there is no
    // imbalance to fix.
    for (unsigned s = 0; s < st.shardCount(); ++s)
        st.hotness(s).reset();
    EXPECT_FALSE(reb.rebalanceOnce());
    EXPECT_EQ(reb.counters().merges, 1u);
    ycsb::destroyWithValues(st);
}

TEST(ElasticRebalancer, SplitsHotShardWhenNeighboursAreLoaded)
{
    ShardedStore::Options o = topologyOptions(62);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    service::Rebalancer::Options ro;
    ro.valueBytes = kValueBytes;
    ro.minShardOps = 256;
    ro.skewFactor = 1.3;
    ro.elastic = true;
    service::Rebalancer reb(st, ro);

    // Shard 1 hot, every neighbour more than half as hot: a move would
    // only slosh load, so the elastic pass must SPLIT shard 1 into a
    // new member instead.
    for (unsigned s = 0; s < st.shardCount(); ++s)
        st.hotness(s).reset();
    for (int round = 0; round < 8; ++round)
        for (std::uint64_t r = 500; r < 1000; ++r) {
            void *out = nullptr;
            st.get(key(r), out);
        }
    for (int round = 0; round < 5; ++round)
        for (std::uint64_t r = 0; r < 500; ++r) {
            void *out = nullptr;
            st.get(key(r), out);
        }
    for (int round = 0; round < 5; ++round)
        for (std::uint64_t r = 1000; r < 2000; ++r) {
            void *out = nullptr;
            st.get(key(r), out);
        }
    EXPECT_TRUE(reb.rebalanceOnce());
    EXPECT_EQ(reb.counters().adds, 1u);
    EXPECT_EQ(reb.counters().migrations, 0u);
    EXPECT_EQ(st.shardCount(), 5u);
    expectScanMatchesModel(st, model, "after hot split");
    expectShardsContainOnlyOwnedRanges(st);
    ycsb::destroyWithValues(st);
}

TEST(ElasticRebalancer, MergeCostCapVetoesLargeColdShards)
{
    ShardedStore::Options o = topologyOptions(63);
    o.mode = nvm::Mode::kDirect;
    ShardedStore st(o);
    Model model;
    preloadModel(st, model);

    service::Rebalancer::Options ro;
    ro.valueBytes = kValueBytes;
    ro.minShardOps = 256;
    ro.elastic = true;
    ro.coldShardOps = 128;
    // 500 keys × (8-byte key + 32-byte value) ≈ 20 KB: a 1 KB cap makes
    // every merge lose the cost model.
    ro.mergeMaxBytes = 1024;
    service::Rebalancer reb(st, ro);

    for (unsigned s = 0; s < st.shardCount(); ++s)
        st.hotness(s).reset();
    for (int round = 0; round < 2; ++round)
        for (std::uint64_t r = 0; r < 1500; ++r) {
            void *out = nullptr;
            st.get(key(r), out);
        }
    EXPECT_FALSE(reb.rebalanceOnce());
    EXPECT_EQ(reb.counters().merges, 0u);
    EXPECT_EQ(st.shardCount(), 4u);
    ycsb::destroyWithValues(st);
}

} // namespace
} // namespace incll::store
