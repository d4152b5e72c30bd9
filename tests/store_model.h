/**
 * @file
 * Property-based model fuzzer for the ShardedStore: the test_masstree
 * model oracle extended to the store layer. A seed-reproducible random
 * stream of put/remove/get/scan/rebalance/crash operations runs against
 * a tracked multi-shard range-placed store and is checked against a
 * std::map reference — scans after every batch of mutations, the full
 * key space after every crash recovery, and per-shard range containment
 * (no key may sit in a tree outside the range the table assigns it).
 *
 * Rebalance operations use the model to pick a valid split (the median
 * of the source shard's owned keys) and inject random store operations
 * at every migration phase through the crash-injection hook — the same
 * seam the crash matrix uses — so dual-writes and dual-routes are
 * exercised deterministically. Crashes advance all epochs first, so the
 * oracle comparison is exact (epoch-rollback lossiness is covered by
 * the directed crash suites).
 *
 * Shared by test_store_model (tier1, bounded) and
 * test_store_model_stress (stress label, longer).
 */
#pragma once

#include <gtest/gtest.h>

#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "store/sharded_store.h"
#include "store/value_util.h"
#include "ycsb/driver.h"

namespace incll::store::modeltest {

struct FuzzParams
{
    std::uint64_t seed = 1;
    int steps = 5000;
    unsigned shards = 4;
    std::uint64_t universe = 800; ///< distinct key ranks
    int crashEveryAbout = 900;    ///< mean steps between crash+recover
    int rebalanceEveryAbout = 260; ///< mean steps between migrations
    /** Mean steps between topology transitions (merge / add / retire);
     *  0 disables them (the pre-elasticity op mix). */
    int topologyEveryAbout = 350;
};

class StoreModelFuzzer
{
  public:
    explicit StoreModelFuzzer(const FuzzParams &p) : p_(p), rng_(p.seed) {}

    void
    run()
    {
        buildFreshStore();
        for (int step = 0; step < p_.steps; ++step) {
            const auto dice = rng_.nextBounded(1000);
            if (dice < 540)
                opPut(step);
            else if (dice < 720)
                opRemove();
            else if (dice < 870)
                opGet();
            else
                opScan();
            if (rng_.nextBounded(static_cast<std::uint64_t>(
                    p_.rebalanceEveryAbout)) == 0)
                opRebalance(step);
            if (rng_.nextBounded(static_cast<std::uint64_t>(
                    p_.rebalanceEveryAbout * 2)) == 0)
                opScanSpanningMove();
            if (p_.topologyEveryAbout > 0 &&
                rng_.nextBounded(static_cast<std::uint64_t>(
                    p_.topologyEveryAbout)) == 0) {
                if (rng_.nextBool(0.5))
                    opAddShard(step);
                else
                    opMergeBoundary(step);
            }
            if (rng_.nextBounded(
                    static_cast<std::uint64_t>(p_.crashEveryAbout)) == 0)
                opCrashRecover(step);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        opCrashRecover(p_.steps);
        opRetireShard(/*retireAll=*/true);
        ycsb::destroyWithValues(*store_);
    }

    /** How many long-held scans actually spanned a move commit (the
     *  guards skip sparse/degenerate layouts) — lets directed tests
     *  assert the grace-window path really ran. */
    std::uint64_t
    spanningScans() const
    {
        return spanningScans_;
    }

    /** Completed topology transitions, so callers can assert the
     *  elastic paths actually ran under their parameters. */
    std::uint64_t merges() const { return merges_; }
    std::uint64_t adds() const { return adds_; }
    std::uint64_t retires() const { return retires_; }

  private:
    static constexpr std::size_t kValueBytes = ycsb::kValueBytes;

    std::string
    keyOf(std::uint64_t rank) const
    {
        return mt::u64Key(rank);
    }

    void
    buildFreshStore()
    {
        ShardedStore::Options o;
        o.shards = p_.shards;
        o.mode = nvm::Mode::kTracked;
        o.seed = p_.seed * 31 + 7;
        o.poolBytesPerShard = std::size_t{1} << 25;
        o.config.logBuffers = 4;
        o.config.logBufferBytes = 1u << 20;
        o.config.placement = PlacementKind::kRange;
        o.config.trackHotness = true;
        for (unsigned s = 1; s < p_.shards; ++s)
            o.config.rangeBoundaries.push_back(
                keyOf(p_.universe * s / p_.shards));
        store_ = std::make_unique<ShardedStore>(o);
    }

    StoreConfig
    recoverConfig() const
    {
        StoreConfig c;
        c.logBuffers = 4;
        c.logBufferBytes = 1u << 20;
        c.trackHotness = true;
        return c;
    }

    void
    opPut(int step)
    {
        const std::string k = keyOf(rng_.nextBounded(p_.universe));
        const std::uint64_t payload =
            (static_cast<std::uint64_t>(step) << 20) ^ p_.seed;
        const bool inserted = store::installValue(*store_, k, &payload,
                                                  sizeof(payload),
                                                  kValueBytes);
        ASSERT_EQ(inserted, !model_.contains(k)) << k;
        model_[k] = payload;
    }

    void
    opRemove()
    {
        const std::string k = keyOf(rng_.nextBounded(p_.universe));
        void *old = nullptr;
        const bool removed = store_->remove(k, &old);
        ASSERT_EQ(removed, model_.contains(k)) << k;
        if (removed) {
            std::uint64_t payload;
            std::memcpy(&payload, old, sizeof(payload));
            ASSERT_EQ(payload, model_[k]) << k;
            store_->freeValueFor(k, old, kValueBytes);
            model_.erase(k);
        }
    }

    void
    opGet()
    {
        const std::string k = keyOf(rng_.nextBounded(p_.universe));
        void *out = nullptr;
        const bool found = store_->get(k, out);
        ASSERT_EQ(found, model_.contains(k)) << k;
        if (found) {
            std::uint64_t payload;
            std::memcpy(&payload, out, sizeof(payload));
            ASSERT_EQ(payload, model_[k]) << k;
        }
    }

    void
    opScan()
    {
        const std::string start = keyOf(rng_.nextBounded(p_.universe));
        const std::size_t limit = 1 + rng_.nextBounded(64);
        auto it = model_.lower_bound(start);
        std::size_t n = 0;
        bool ok = true;
        store_->scan(start, limit, [&](std::string_view k, void *v) {
            std::uint64_t payload;
            std::memcpy(&payload, v, sizeof(payload));
            if (it == model_.end() || k != it->first ||
                payload != it->second)
                ok = false;
            else
                ++it;
            ++n;
        });
        ASSERT_TRUE(ok) << "scan diverged from model at " << start;
        ASSERT_EQ(n, std::min<std::size_t>(
                         limit, static_cast<std::size_t>(std::distance(
                                    model_.lower_bound(start),
                                    model_.end()))));
    }

    /** A random store op stream injected at a migration phase — reads
     *  and scans included: the dual-route fallback and the scan clip
     *  are only observable while the window is live, so a mix without
     *  them would leave exactly those paths outside the oracle. */
    void
    injectDuringMigration(int step)
    {
        const auto ops = rng_.nextBounded(4);
        for (std::uint64_t i = 0; i < ops; ++i) {
            const auto pick = rng_.nextBounded(10);
            if (pick < 4)
                opPut(step);
            else if (pick < 6)
                opRemove();
            else if (pick < 8)
                opGet();
            else
                opScan();
        }
    }

    /** Median of @p src's owned keys, from the model (the model IS the
     *  key population); empty when the shard is too sparse to split. */
    std::string
    pickSplit(unsigned src) const
    {
        const auto &rp =
            static_cast<const RangePlacement &>(store_->placement());
        const std::string lower{rp.lowerBoundOf(src)};
        std::string_view upper;
        const bool hasUpper = rp.upperBoundOf(src, upper);
        std::vector<const std::string *> owned;
        for (auto it = model_.upper_bound(lower);
             it != model_.end() &&
             (!hasUpper || std::string_view(it->first) < upper);
             ++it)
            owned.push_back(&it->first);
        if (owned.size() < 4)
            return {}; // too sparse to split meaningfully
        const std::string split = *owned[owned.size() / 2];
        if (split <= lower || (hasUpper && std::string_view(split) >= upper))
            return {};
        return split;
    }

    void
    opRebalance(int step)
    {
        const unsigned n = store_->shardCount();
        if (n < 2)
            return;
        const unsigned src = static_cast<unsigned>(rng_.nextBounded(n));
        const unsigned dst = src == 0              ? 1
                             : src == n - 1        ? src - 1
                             : rng_.nextBool(0.5)  ? src - 1
                                                   : src + 1;
        const std::string split = pickSplit(src);
        if (split.empty())
            return;

        MoveOptions mo;
        mo.valueBytes = kValueBytes;
        mo.chunkKeys = 1 + rng_.nextBounded(48);
        mo.phaseGate = [&](MovePhase) {
            injectDuringMigration(step);
            return !::testing::Test::HasFatalFailure();
        };
        const MoveResult res = store_->moveBoundary(src, dst, split, mo);
        if (::testing::Test::HasFatalFailure())
            return;
        ASSERT_TRUE(res.completed);
        ASSERT_EQ(store_->placementVersion(), res.version);
        auditFull("post-rebalance");
    }

    /** -1 = run the transition to completion; otherwise the MovePhase
     *  at which the gate abandons it ("the power fails here") and the
     *  fuzzer immediately crash-recovers — the topology op analogue of
     *  the directed crash matrix, with the oracle checking both sides
     *  of the commit. */
    int
    maybeCrashPhase()
    {
        if (!rng_.nextBool(0.25))
            return -1;
        return static_cast<int>(rng_.nextBounded(4)); // kPrepare..kGc
    }

    /** Phase gate shared by the topology ops: random store traffic at
     *  every phase, then abandon iff this is the chosen crash phase. */
    std::function<bool(MovePhase)>
    topologyGate(int step, int crashPhase)
    {
        return [this, step, crashPhase](MovePhase ph) {
            injectDuringMigration(step);
            if (::testing::Test::HasFatalFailure())
                return false;
            return crashPhase < 0 || static_cast<int>(ph) != crashPhase;
        };
    }

    void
    opMergeBoundary(int step)
    {
        const unsigned n = store_->shardCount();
        if (n < 2)
            return;
        const unsigned src = static_cast<unsigned>(rng_.nextBounded(n));
        const unsigned dst = src == 0              ? 1
                             : src == n - 1        ? src - 1
                             : rng_.nextBool(0.5)  ? src - 1
                                                   : src + 1;
        const int crashPhase = maybeCrashPhase();
        MoveOptions mo;
        mo.valueBytes = kValueBytes;
        mo.chunkKeys = 1 + rng_.nextBounded(48);
        mo.phaseGate = topologyGate(step, crashPhase);
        const MoveResult res = store_->mergeBoundary(src, dst, mo);
        if (::testing::Test::HasFatalFailure())
            return;
        if (!res.completed) {
            // Abandoned mid-protocol: the store is only recoverable,
            // exactly like after a real power failure there.
            opCrashRecover(step);
            return;
        }
        ASSERT_EQ(store_->placementVersion(), res.version);
        ASSERT_EQ(store_->shardCount(), n - 1);
        ++merges_;
        // Usually retire the emptied member at once; sometimes leave it
        // unrouted so a later crash exercises the orphan-discard path.
        if (rng_.nextBool(0.7))
            opRetireShard(/*retireAll=*/false);
        auditFull("post-merge");
    }

    void
    opAddShard(int step)
    {
        // A local bound well under Manifest::kMaxMembers keeps the
        // explored space (and the per-step cost) of the fuzz fixed.
        constexpr unsigned kMaxFuzzMembers = 12;
        const unsigned n = store_->shardCount();
        if (n >= kMaxFuzzMembers)
            return;
        const unsigned src = static_cast<unsigned>(rng_.nextBounded(n));
        const std::string split = pickSplit(src);
        if (split.empty())
            return;
        const int crashPhase = maybeCrashPhase();
        MoveOptions mo;
        mo.valueBytes = kValueBytes;
        mo.chunkKeys = 1 + rng_.nextBounded(48);
        mo.phaseGate = topologyGate(step, crashPhase);
        const MoveResult res = store_->addShard(src, split, mo);
        if (::testing::Test::HasFatalFailure())
            return;
        if (!res.completed) {
            opCrashRecover(step);
            return;
        }
        ASSERT_EQ(store_->placementVersion(), res.version);
        ASSERT_EQ(store_->shardCount(), n + 1);
        ++adds_;
        auditFull("post-add");
    }

    void
    opRetireShard(bool retireAll)
    {
        for (const std::uint32_t id : store_->unroutedPoolIds()) {
            const RetireResult r = store_->retireShard(id);
            ASSERT_TRUE(r.retired) << "unrouted pool " << id;
            // Retirement is idempotent: a second call finds nothing.
            ASSERT_FALSE(store_->retireShard(id).retired);
            ++retires_;
            if (!retireAll)
                return;
        }
    }

    /**
     * The placement-table grace-window regression. A full-range scan
     * parks inside its first callback — holding the first shard's epoch
     * gate and, crucially, its TablePin on the current placement table
     * — while a boundary between the LAST two shards runs the whole
     * migration protocol to commit underneath it. The mover's GC phase
     * must outwait the pin (res.graceNs proves it actually waited):
     * the parked scan still routes the moved interval to the source, so
     * sweeping the source's copies early would make those keys vanish
     * from its snapshot, while the destination's new copies must stay
     * clipped out of the retired table's ranges or they'd appear twice.
     * The scan must stream exactly the key population frozen at its
     * start — nothing lost, nothing duplicated.
     */
    void
    opScanSpanningMove()
    {
        const unsigned n = store_->shardCount();
        if (n < 3 || model_.size() < 8)
            return;
        const unsigned src = n - 2;
        const unsigned dst = n - 1;
        // The scan parks in the gate of the shard owning the lowest
        // key; the mover advances src/dst epochs (exclusive gate
        // acquisition), so that shard must be neither of them.
        if (store_->shardOf(model_.begin()->first) >= src)
            return;
        const std::string split = pickSplit(src);
        if (split.empty())
            return;
        const auto frozen = model_;

        std::mutex m;
        std::condition_variable cv;
        bool started = false;
        bool committed = false;
        std::vector<std::pair<std::string, std::uint64_t>> seen;
        std::thread scanner([&] {
            bool first = true;
            store_->scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
                if (first) {
                    first = false;
                    std::unique_lock lk(m);
                    started = true;
                    cv.notify_all();
                    cv.wait(lk, [&] { return committed; });
                    // Hold the pin a beat past the commit so the GC's
                    // grace wait is observably non-zero.
                    lk.unlock();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                }
                std::uint64_t payload;
                std::memcpy(&payload, v, sizeof(payload));
                seen.emplace_back(std::string(k), payload);
            });
        });
        {
            std::unique_lock lk(m);
            cv.wait(lk, [&] { return started; });
        }

        MoveOptions mo;
        mo.valueBytes = kValueBytes;
        mo.chunkKeys = 1 + rng_.nextBounded(48);
        mo.phaseGate = [&](MovePhase ph) {
            if (ph == MovePhase::kGc) {
                // Table swapped, source not yet swept: release the
                // parked scan straight into the grace window.
                std::lock_guard lk(m);
                committed = true;
                cv.notify_all();
            }
            return true;
        };
        const MoveResult res = store_->moveBoundary(src, dst, split, mo);
        scanner.join();
        ASSERT_TRUE(res.completed);
        ASSERT_GT(res.graceNs, 0u)
            << "GC swept without waiting out the scan's table pin";

        auto it = frozen.begin();
        for (const auto &[k, payload] : seen) {
            ASSERT_NE(it, frozen.end())
                << "long-held scan saw extra/duplicate key " << k;
            ASSERT_EQ(k, it->first) << "long-held scan diverged";
            ASSERT_EQ(payload, it->second) << k;
            ++it;
        }
        ASSERT_EQ(it, frozen.end())
            << "long-held scan lost keys across the commit";
        ++spanningScans_;
        auditFull("post scan-spanning move");
    }

    void
    opCrashRecover(int step)
    {
        // Make everything durable first so the oracle stays exact; the
        // adversary still chooses what was "already written back" when
        // the power fails.
        store_->advanceEpoch();
        auto pools = store_->releasePools();
        store_.reset();
        const double extra = rng_.nextDouble() * 0.5;
        for (auto &pool : pools)
            pool->crash(extra);
        store_ = std::make_unique<ShardedStore>(std::move(pools), kRecover,
                                                recoverConfig());
        auditFull("post-recovery");
        if (::testing::Test::HasFatalFailure())
            return;
        // The recovered store must accept new work.
        opPut(step);
        opGet();
    }

    /** Full-range scan == model, plus per-shard range containment. */
    void
    auditFull(const char *where)
    {
        auto it = model_.begin();
        std::size_t n = 0;
        store_->scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
            if (it == model_.end()) {
                ++n;
                return;
            }
            EXPECT_EQ(std::string(k), it->first) << where;
            std::uint64_t payload;
            std::memcpy(&payload, v, sizeof(payload));
            EXPECT_EQ(payload, it->second) << where;
            ++it;
            ++n;
        });
        ASSERT_EQ(n, model_.size()) << where;
        ASSERT_EQ(it, model_.end()) << where;

        const auto &rp =
            static_cast<const RangePlacement &>(store_->placement());
        for (unsigned s = 0; s < store_->shardCount(); ++s) {
            const std::string lower{rp.lowerBoundOf(s)};
            std::string_view upper;
            const bool hasUpper = rp.upperBoundOf(s, upper);
            store_->shard(s).tree().scan(
                {}, SIZE_MAX, [&](std::string_view k, void *) {
                    EXPECT_GE(std::string(k), lower)
                        << where << " shard " << s;
                    if (hasUpper) {
                        EXPECT_LT(std::string(k), std::string(upper))
                            << where << " shard " << s;
                    }
                });
        }
    }

    FuzzParams p_;
    Rng rng_;
    std::unique_ptr<ShardedStore> store_;
    std::map<std::string, std::uint64_t> model_;
    std::uint64_t spanningScans_ = 0;
    std::uint64_t merges_ = 0;
    std::uint64_t adds_ = 0;
    std::uint64_t retires_ = 0;
};

inline void
runStoreModelFuzz(const FuzzParams &p)
{
    StoreModelFuzzer fuzzer(p);
    fuzzer.run();
}

} // namespace incll::store::modeltest
