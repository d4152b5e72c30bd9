/**
 * @file
 * EpochService tests (tier1): async per-shard advance scheduling,
 * urgent advances and the advanceAllAndWait barrier, write
 * backpressure, the batched multiGet/multiPut front-end, the
 * gate-held-across-scan value-lifetime guarantee, crash recovery
 * when the crash lands during an asynchronous boundary, idle-shard
 * elision (every durable write marks its epoch, and a shard whose
 * epoch was never marked skips its scheduled boundary without losing
 * a write), and the member set changing under the running service
 * (per-shard state follows the shard's pool id across re-numbering).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nvm/pool.h"
#include "service/epoch_service.h"
#include "store/sharded_store.h"
#include "store/value_util.h"
#include "ycsb/driver.h"

namespace incll::service {
namespace {

using store::ShardedStore;

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
trackedOptions(unsigned shards, std::uint64_t seed)
{
    ShardedStore::Options o = directOptions(shards);
    o.mode = nvm::Mode::kTracked;
    o.seed = seed;
    return o;
}

std::vector<std::uint64_t>
shardEpochs(ShardedStore &st)
{
    std::vector<std::uint64_t> epochs;
    for (unsigned i = 0; i < st.shardCount(); ++i)
        epochs.push_back(st.shard(i).tree().epochs().currentEpoch());
    return epochs;
}

TEST(EpochServiceScheduling, DeadlinesAdvanceEveryShard)
{
    ShardedStore st(directOptions(3));
    const auto before = shardEpochs(st);

    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::milliseconds(2);
    EpochService svc(st, so);
    svc.start();
    EXPECT_TRUE(svc.running());
    // Writers keep running while boundaries fire off this thread; keep
    // writing until the deadline scheduler has advanced every shard.
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    int round = 0;
    auto allAdvanced = [&] {
        const auto now = shardEpochs(st);
        for (unsigned i = 0; i < st.shardCount(); ++i)
            if (now[i] <= before[i])
                return false;
        return true;
    };
    do {
        for (std::uint64_t k = 0; k < 50; ++k)
            st.put(mt::u64Key(round * 1000 + k), tag(k + 1));
        ++round;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (!allAdvanced() && std::chrono::steady_clock::now() < giveUp);
    svc.stop();
    EXPECT_FALSE(svc.running());

    const auto after = shardEpochs(st);
    for (unsigned i = 0; i < st.shardCount(); ++i)
        EXPECT_GT(after[i], before[i]) << "shard " << i;
    EXPECT_GE(svc.totalCounters().advances, st.shardCount());
    EXPECT_GT(svc.totalCounters().boundaryNs, 0u);

    // The structure survived concurrent async boundaries.
    void *out = nullptr;
    ASSERT_TRUE(st.get(mt::u64Key(7), out));
    EXPECT_EQ(out, tag(8));
}

TEST(EpochServiceScheduling, UrgentAdvanceAndBarrier)
{
    ShardedStore st(directOptions(4));
    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::seconds(100); // deadlines never fire
    EpochService svc(st, so);
    svc.start();

    const auto before = shardEpochs(st);

    // advanceAllAndWait is a barrier: on return every shard took
    // exactly one urgent boundary (the interval is unreachable).
    svc.advanceAllAndWait();
    auto after = shardEpochs(st);
    for (unsigned i = 0; i < st.shardCount(); ++i)
        EXPECT_EQ(after[i], before[i] + 1) << "shard " << i;

    // advanceShardAndWait targets one shard only, and is a barrier:
    // no sleep-polling on counters (duty-cycle pacing stretches
    // *scheduled* advances, so timing-based waits flake; the explicit
    // per-shard barrier rides an urgent advance, which is exempt).
    svc.advanceShardAndWait(2);
    EXPECT_EQ(svc.counters(2).advances, 2u);
    after = shardEpochs(st);
    EXPECT_EQ(after[2], before[2] + 2);
    EXPECT_EQ(after[0], before[0] + 1);
    EXPECT_EQ(after[1], before[1] + 1);
    EXPECT_EQ(after[3], before[3] + 1);

    svc.stop();

    // Stopped service: the barrier falls back to an inline advance.
    svc.advanceAllAndWait();
    const auto atEnd = shardEpochs(st);
    for (unsigned i = 0; i < st.shardCount(); ++i)
        EXPECT_GT(atEnd[i], after[i]) << "shard " << i;

    svc.stop(); // idempotent
}

TEST(EpochServiceBackpressure, ThrottleBlocksWritersUntilBoundary)
{
    ShardedStore st(directOptions(2));

    // Preload and checkpoint: nodes born in the current epoch never
    // need the external log (allocator rollback undoes them), so the
    // log-driving updates must land in a later epoch than the inserts.
    for (std::uint64_t k = 0; k < 256; ++k)
        store::installValue(st, mt::u64Key(k), &k, sizeof(k), 32);
    st.advanceEpoch();

    EpochService::Options so;
    so.threads = 1;
    so.interval = std::chrono::seconds(100); // only urgent advances
    so.maxLogBytesPerEpoch = 1;              // throttle at the first entry
    EpochService svc(st, so);
    svc.start();

    // Drive the external log: re-updating the same keys within one
    // epoch exhausts each leaf's value InCLLs and falls back to logging
    // whole nodes.
    for (int round = 0; round < 4; ++round)
        for (std::uint64_t k = 0; k < 256; ++k)
            store::installValue(st, mt::u64Key(k), &k, sizeof(k), 32);
    std::uint64_t debt = 0;
    for (unsigned s = 0; s < st.shardCount(); ++s)
        debt += svc.logDebt(s);
    ASSERT_GT(debt, 0u) << "workload did not reach the external log";

    // A batched write must hit the throttle hook, trigger an urgent
    // boundary, and return only once the debt at hook time is gone.
    const auto epochsBefore = shardEpochs(st);
    std::uint64_t payload = 7;
    std::vector<std::string> keyStore; // owns the batch's key bytes
    keyStore.reserve(64);
    std::vector<store::InstallOp> batch;
    for (std::uint64_t k = 0; k < 64; ++k) {
        keyStore.push_back(mt::u64Key(k));
        batch.push_back({keyStore.back(), &payload, sizeof(payload)});
    }
    store::installValueBatch(st, batch, 32);

    const auto total = svc.totalCounters();
    EXPECT_GE(total.throttleStalls, 1u);
    EXPECT_GE(total.advances, 1u);
    const auto epochsAfter = shardEpochs(st);
    bool anyAdvanced = false;
    for (unsigned s = 0; s < st.shardCount(); ++s)
        anyAdvanced |= epochsAfter[s] > epochsBefore[s];
    EXPECT_TRUE(anyAdvanced);

    svc.stop();
    ycsb::destroyWithValues(st);
}

TEST(EpochServiceAdaptive, DebtKickAdvancesAheadOfDeadline)
{
    ShardedStore st(directOptions(2));

    // Same log-driving recipe as the backpressure test: checkpointed
    // preload, then same-epoch re-updates exhaust value InCLLs and fall
    // back to logging whole nodes.
    for (std::uint64_t k = 0; k < 256; ++k)
        store::installValue(st, mt::u64Key(k), &k, sizeof(k), 32);
    st.advanceEpoch();

    EpochService::Options so;
    so.threads = 1;
    so.interval = std::chrono::seconds(100); // deadlines never fire
    so.maxLogBytesPerEpoch = 0;              // no blocking backpressure
    so.adaptiveDebtBytes = 1;                // kick at the first entry
    EpochService svc(st, so);
    svc.start();

    const auto epochsBefore = shardEpochs(st);
    // Batched writes run the throttle hook; once the log takes its
    // first entry the hook must request a debt advance without ever
    // blocking this writer (there is no backpressure threshold).
    std::uint64_t payload = 7;
    std::vector<std::string> keyStore;
    keyStore.reserve(256);
    for (int round = 0; round < 6; ++round) {
        std::vector<store::InstallOp> batch;
        for (std::uint64_t k = 0; k < 256; ++k) {
            keyStore.push_back(mt::u64Key(k));
            batch.push_back({keyStore.back(), &payload, sizeof(payload)});
        }
        store::installValueBatch(st, batch, 32);
        keyStore.clear();
    }

    // The kick is async: bounded, generous poll for the boundary.
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.totalCounters().advances == 0 &&
           std::chrono::steady_clock::now() < giveUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    const auto total = svc.totalCounters();
    EXPECT_GE(total.debtAdvances, 1u)
        << "throttle hook never requested a debt advance";
    EXPECT_GE(total.advances, 1u);
    EXPECT_EQ(total.throttleStalls, 0u)
        << "adaptive kick must not block writers";
    svc.stop();

    const auto epochsAfter = shardEpochs(st);
    bool anyAdvanced = false;
    for (unsigned s = 0; s < st.shardCount(); ++s)
        anyAdvanced |= epochsAfter[s] > epochsBefore[s];
    EXPECT_TRUE(anyAdvanced)
        << "debt advance never reached an epoch boundary";
    ycsb::destroyWithValues(st);
}

TEST(BatchedOps, MultiGetMultiPutMatchPointOps)
{
    ShardedStore st(directOptions(4));
    constexpr std::uint64_t kKeys = 1024;

    // multiPut insert phase.
    std::vector<std::string> keys;
    for (std::uint64_t k = 0; k < kKeys; ++k)
        keys.push_back(mt::u64Key(ycsb::scrambledKey(k)));
    std::vector<ShardedStore::PutOp> puts(kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        puts[k].key = keys[k];
        puts[k].val = tag(k + 1);
    }
    EXPECT_EQ(st.multiPut(puts), kKeys);
    for (const auto &op : puts) {
        EXPECT_TRUE(op.inserted);
        EXPECT_EQ(op.old, nullptr);
    }

    // multiPut update phase reports the replaced values.
    for (std::uint64_t k = 0; k < kKeys; ++k)
        puts[k].val = tag(k + 10000);
    EXPECT_EQ(st.multiPut(puts), 0u);
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        EXPECT_FALSE(puts[k].inserted);
        EXPECT_EQ(puts[k].old, tag(k + 1));
    }

    // multiGet agrees with point gets, misses are nullptr.
    std::vector<std::string_view> getKeys;
    for (std::uint64_t k = 0; k < kKeys; ++k)
        getKeys.push_back(keys[k]);
    const std::string missing = mt::u64Key(0xdeadbeefcafeULL);
    getKeys.push_back(missing);
    std::vector<void *> out(getKeys.size(), tag(999));
    EXPECT_EQ(st.multiGet(getKeys, out.data()), kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k)
        EXPECT_EQ(out[k], tag(k + 10000)) << k;
    EXPECT_EQ(out.back(), nullptr);

    // Batches work from inside a gate-holding scan callback (nested).
    std::size_t checked = 0;
    st.scan({}, 16, [&](std::string_view k, void *) {
        const std::string_view one[] = {k};
        void *v = nullptr;
        EXPECT_EQ(st.multiGet(one, &v), 1u);
        EXPECT_NE(v, nullptr);
        ++checked;
    });
    EXPECT_EQ(checked, 16u);
}

TEST(ScanLifetime, GatesHeldAcrossMergedCallbacks)
{
    ShardedStore st(directOptions(4));
    for (std::uint64_t k = 0; k < 512; ++k)
        st.put(mt::u64Key(ycsb::scrambledKey(k)), tag(k + 1));

    std::size_t seen = 0;
    st.scan({}, SIZE_MAX, [&](std::string_view, void *) {
        for (unsigned s = 0; s < st.shardCount(); ++s) {
            EXPECT_TRUE(st.shard(s)
                            .tree()
                            .epochs()
                            .gate()
                            .heldByThisThread())
                << "shard " << s << " gate released during merge";
        }
        ++seen;
    });
    EXPECT_EQ(seen, 512u);

    // All gates released after the scan.
    for (unsigned s = 0; s < st.shardCount(); ++s)
        EXPECT_FALSE(
            st.shard(s).tree().epochs().gate().heldByThisThread());
}

TEST(ScanLifetime, ValuesDereferenceableUnderConcurrentAdvances)
{
    // The acceptance test for the re-entrant gate: writers free value
    // buffers while the EpochService advances epochs underneath a
    // scanning thread. Every pointer a merged callback sees must stay
    // dereferenceable and hold its key's payload: a freed buffer can
    // only be recycled at an epoch boundary, and the scan holds every
    // owning shard's gate, so no boundary can land mid-merge. (Without
    // the held gates, a boundary between gather and callback lets the
    // writer reuse a gathered buffer and the payload check fails.)
    constexpr std::uint64_t kKeys = 1500;
    ShardedStore st(directOptions(4));

    std::map<std::string, std::uint64_t> expected;
    for (std::uint64_t r = 0; r < kKeys; ++r) {
        const std::string key = mt::u64Key(ycsb::scrambledKey(r));
        store::installValue(st, key, &r, sizeof(r), 32);
        expected[key] = r;
    }
    st.advanceEpoch();

    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::milliseconds(1);
    EpochService svc(st, so);
    svc.start();

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        Rng rng(17);
        while (!stop.load(std::memory_order_acquire)) {
            const std::uint64_t r = rng.nextBounded(kKeys);
            const std::string key = mt::u64Key(ycsb::scrambledKey(r));
            // Re-install: allocates a fresh buffer (possibly recycling
            // one freed >= one boundary ago) and frees the old one.
            store::installValue(st, key, &r, sizeof(r), 32);
        }
    });

    std::uint64_t mismatches = 0;
    for (int iter = 0; iter < 40; ++iter) {
        st.scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
            std::uint64_t payload;
            std::memcpy(&payload, v, sizeof(payload));
            const auto it = expected.find(std::string(k));
            if (it == expected.end() || payload != it->second)
                ++mismatches;
        });
    }
    stop.store(true, std::memory_order_release);
    writer.join();
    svc.stop();
    EXPECT_EQ(mismatches, 0u);

    EXPECT_GT(svc.totalCounters().advances, 0u)
        << "service never advanced; the test exercised nothing";
    ycsb::destroyWithValues(st);
}

TEST(ServiceCrash, InterruptedBoundaryRollsBackOnlyThatShard)
{
    // A service thread is mid-boundary on shard 1 when the power fails:
    // the flush (step 1 of the advance) has completed but the durable
    // epoch increment (step 2) has not. Recovery must mark exactly
    // shard 1's interrupted epoch failed and roll it back — the paper's
    // "harmless rollback" of a fully flushed epoch — while the shards
    // the service did advance keep their writes.
    constexpr unsigned kShards = 4;
    auto st = std::make_unique<ShardedStore>(trackedOptions(kShards, 401));
    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::seconds(100);
    auto svc = std::make_unique<EpochService>(*st, so);
    svc->start();

    // Committed base, via the service barrier.
    std::map<std::string, void *> model;
    Rng rng(9);
    for (int i = 0; i < 2000; ++i) {
        const std::string k = mt::u64Key(rng.next());
        st->put(k, tag(i + 1));
        model[k] = tag(i + 1);
    }
    svc->advanceAllAndWait();
    const auto epochAfterBase = st->shard(1).tree().epochs().currentEpoch();

    // In-flight batch, committed only where the service advances next.
    std::map<std::string, void *> batch;
    for (int i = 0; i < 600; ++i) {
        const std::string k = mt::u64Key(rng.next());
        st->put(k, tag(5000 + i));
        batch[k] = tag(5000 + i);
    }
    // Explicit per-shard barriers instead of requestAdvance + counter
    // polling: deterministic, and immune to duty-cycle stretching.
    svc->advanceShardAndWait(0);
    svc->advanceShardAndWait(2);
    ASSERT_EQ(svc->counters(0).advances, 2u);
    ASSERT_EQ(svc->counters(2).advances, 2u);
    for (const auto &[k, v] : batch)
        if (const unsigned s = st->shardOf(k); s == 0 || s == 2)
            model[k] = v;

    svc->stop();
    svc.reset();

    // Shard 1's boundary was interrupted after its flush: emulate the
    // advance's step 1 (wbinvd) having run, with the epoch word still
    // naming the old epoch, then cut the power everywhere.
    st->shard(1).pool().wbinvdFlushAll();
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.3);
    st = std::make_unique<ShardedStore>(
        std::move(pools), store::kRecover,
        store::StoreConfig{.logBuffers = 4, .logBufferBytes = 1u << 20});

    // Exactly the interrupted epoch of each shard is failed; shards 0/2
    // lost only the epoch after their async boundary.
    EXPECT_TRUE(st->shard(1).tree().epochs().isFailed(epochAfterBase));
    EXPECT_FALSE(st->shard(1).tree().epochs().isFailed(epochAfterBase - 1));
    EXPECT_TRUE(st->shard(3).tree().epochs().isFailed(epochAfterBase));
    EXPECT_TRUE(st->shard(0).tree().epochs().isFailed(epochAfterBase + 1));
    EXPECT_FALSE(st->shard(0).tree().epochs().isFailed(epochAfterBase));
    EXPECT_TRUE(st->shard(2).tree().epochs().isFailed(epochAfterBase + 1));
    EXPECT_FALSE(st->shard(2).tree().epochs().isFailed(epochAfterBase));

    // Shard 1 rolled back its flushed-but-uncommitted epoch: the model
    // (base + only shards 0/2's share of the batch) is exactly what a
    // merged scan sees.
    auto it = model.begin();
    std::size_t n = 0;
    st->scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
        ASSERT_NE(it, model.end());
        ASSERT_EQ(k, it->first);
        ASSERT_EQ(v, it->second);
        ++it;
        ++n;
    });
    EXPECT_EQ(n, model.size());
}

TEST(ServiceCrash, ChurnUnderServiceThenCrashRecovers)
{
    // Live variant: writers churn fresh keys while the service advances
    // every few milliseconds; after a crash each shard recovers to one
    // of its own boundaries — every committed base key survives, every
    // recovered churn key carries the value its writer gave it.
    constexpr unsigned kShards = 4;
    auto st = std::make_unique<ShardedStore>(trackedOptions(kShards, 733));

    std::map<std::string, void *> base;
    Rng rng(21);
    for (int i = 0; i < 1500; ++i) {
        const std::string k = "base/" + std::to_string(rng.next());
        st->put(k, tag(i + 1));
        base[k] = tag(i + 1);
    }
    st->advanceEpoch();

    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::milliseconds(3);
    {
        EpochService svc(*st, so);
        svc.start();
        std::vector<std::thread> writers;
        for (unsigned t = 0; t < 2; ++t) {
            writers.emplace_back([&st, t] {
                for (std::uint64_t i = 0; i < 4000; ++i) {
                    const std::uint64_t id = (i << 2) | t;
                    st->put("churn/" + std::to_string(id), tag(id + 1));
                }
            });
        }
        for (auto &w : writers)
            w.join();
        // Under load the scheduled ticks may all land during the churn,
        // but a starved scheduler (CI) can also finish the whole loop
        // before the first tick — force one boundary so at least the
        // final churn state is committed before the crash.
        svc.advanceAllAndWait();
        svc.stop();
    }

    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.4);
    st = std::make_unique<ShardedStore>(
        std::move(pools), store::kRecover,
        store::StoreConfig{.logBuffers = 4, .logBufferBytes = 1u << 20});

    for (const auto &[k, v] : base) {
        void *out = nullptr;
        ASSERT_TRUE(st->get(k, out)) << k;
        ASSERT_EQ(out, v) << k;
    }
    std::size_t churnSeen = 0;
    st->scan("churn/", SIZE_MAX, [&](std::string_view k, void *v) {
        if (k.substr(0, 6) != "churn/")
            return;
        const std::uint64_t id =
            std::strtoull(std::string(k.substr(6)).c_str(), nullptr, 10);
        EXPECT_EQ(v, tag(id + 1)) << k;
        ++churnSeen;
    });
    // A boundary ran after the writers finished, so at least part of
    // the churn must have committed.
    EXPECT_GT(churnSeen, 0u);
}

TEST(WriteMarks, EveryDurableWriteMarksItsEpoch)
{
    // The elision's correctness burden: after a committed boundary, each
    // kind of durable write on its own must mark the epoch, or the
    // service would skip a boundary that has something to persist.
    constexpr std::size_t kValueBytes = 32;
    auto st = std::make_unique<ShardedStore>(trackedOptions(1, 61));
    auto epochs = [&]() -> EpochManager & {
        return st->shard(0).tree().epochs();
    };
    auto stat = [](Stat s) { return globalStats().get(s); };

    // Committed base: one full leaf of 14 keys, one of them with a
    // suffix to grow a layer under, and a value buffer to free later.
    for (std::uint64_t k = 100; k < 113; ++k)
        st->put(mt::u64Key(k), tag(k));
    const std::string layerKey = mt::u64Key(500) + "-long-a";
    st->put(layerKey, tag(500));
    void *spare = st->shard(0).tree().allocValue(kValueBytes);
    st->advanceEpoch();

    // Two boundaries: the second commits whatever the first promoted
    // (a write's frees mark the epoch their promotion runs in).
    auto expectMarks = [&](const char *what, auto &&write) {
        st->advanceEpoch();
        st->advanceEpoch();
        ASSERT_FALSE(epochs().epochWritten()) << "before " << what;
        write();
        EXPECT_TRUE(epochs().epochWritten())
            << what << " did not mark its epoch";
    };

    // A read-only mix leaves the epoch clean and writes no line.
    st->advanceEpoch();
    const std::uint64_t dirtyBefore = st->shard(0).pool().dirtyLineCount();
    void *out = nullptr;
    EXPECT_TRUE(st->get(mt::u64Key(105), out));
    EXPECT_FALSE(st->get(mt::u64Key(9999), out));
    EXPECT_EQ(st->scan({}, SIZE_MAX, [](std::string_view, void *) {}),
              14u);
    const std::string k1 = mt::u64Key(101), k2 = mt::u64Key(7777);
    const std::string_view getKeys[] = {k1, k2};
    void *got[2] = {};
    EXPECT_EQ(st->multiGet(getKeys, got), 1u);
    EXPECT_FALSE(epochs().epochWritten()) << "a read marked the epoch";
    EXPECT_EQ(st->shard(0).pool().dirtyLineCount(), dirtyBefore)
        << "a read wrote a durable line";

    expectMarks("update absorbed by an InCLL", [&] {
        const auto logged = stat(Stat::kNodesLogged);
        const auto inCll = stat(Stat::kInCllVal);
        st->put(mt::u64Key(100), tag(1100));
        EXPECT_EQ(stat(Stat::kNodesLogged), logged);
        EXPECT_GT(stat(Stat::kInCllVal), inCll);
    });
    expectMarks("updates spilling to the external log", [&] {
        // Three distinct slots: two share a value line, so one update
        // finds its line's InCLL taken and logs the node.
        const auto logged = stat(Stat::kNodesLogged);
        for (std::uint64_t k = 101; k <= 103; ++k)
            st->put(mt::u64Key(k), tag(k + 1000));
        EXPECT_GT(stat(Stat::kNodesLogged), logged);
    });
    // The spill above follows its epoch's first update, which already
    // marked it; the external-log append it makes marks on its own too.
    expectMarks("an external-log append", [&] {
        auto &tree = st->shard(0).tree();
        tree.context().logObjectOrDie(&tree.root().layer0,
                                      sizeof(mt::LayerRoot));
    });
    expectMarks("a remove", [&] { st->remove(mt::u64Key(112)); });
    expectMarks("an insert", [&] { st->put(mt::u64Key(120), tag(120)); });
    expectMarks("a split", [&] {
        // The insert refilled the leaf; one more key splits it, logging
        // the leaf for the complex operation.
        const auto logged = stat(Stat::kNodesLogged);
        st->put(mt::u64Key(121), tag(121));
        EXPECT_GT(stat(Stat::kNodesLogged), logged);
    });
    expectMarks("a long-key layer creation", [&] {
        st->put(mt::u64Key(500) + "-long-b", tag(501));
        void *v = nullptr;
        EXPECT_TRUE(st->get(layerKey, v));
        EXPECT_EQ(v, tag(500));
    });
    expectMarks("a freeValue", [&] {
        st->shard(0).tree().freeValue(spare, kValueBytes);
    });
    // The boundary that commits the free promotes it and marks the new
    // epoch, so the promotion itself is committed by the next one.
    st->advanceEpoch();
    EXPECT_TRUE(epochs().epochWritten()) << "promotion did not mark";
    st->advanceEpoch();
    EXPECT_FALSE(epochs().epochWritten());

    // Recovery marks the first epoch after a crash, and lazy node
    // recovery marks the epoch it runs in.
    auto pools = st->releasePools();
    st.reset();
    pools[0]->crash();
    st = std::make_unique<ShardedStore>(
        std::move(pools), store::kRecover,
        store::StoreConfig{.logBuffers = 4, .logBufferBytes = 1u << 20});
    EXPECT_TRUE(epochs().epochWritten()) << "recovery did not mark";
    expectMarks("lazy recovery after a crash", [&] {
        const auto recovered = stat(Stat::kNodeRecoveries);
        void *v = nullptr;
        EXPECT_TRUE(st->get(mt::u64Key(105), v));
        EXPECT_EQ(v, tag(105));
        EXPECT_GT(stat(Stat::kNodeRecoveries), recovered);
    });
}

TEST(IdleElision, WrittenShardAdvancesIdleShardsSkipCrashKeepsCommits)
{
    // Four range shards; only one is written while the service runs.
    // The written shard must take real boundaries that commit its
    // writes; the idle ones must only skip. A crash with no flush
    // first then loses nothing committed anywhere.
    constexpr unsigned kShards = 4;
    constexpr unsigned kWritten = 2;
    constexpr std::size_t kValueBytes = 32;
    ShardedStore::Options o = trackedOptions(kShards, 907);
    o.config.placement = store::PlacementKind::kRange;
    auto st = std::make_unique<ShardedStore>(o);
    for (unsigned s = 0; s < kShards; ++s)
        st->shard(s).pool().setEvictionRate(0.0);

    // Even u64 range boundaries: the top two key bits pick the shard.
    auto keyOf = [](unsigned s, std::uint64_t i) {
        return mt::u64Key((std::uint64_t{s} << 62) | i);
    };
    std::map<std::string, std::uint64_t> model;
    auto install = [&](const std::string &k, std::uint64_t payload) {
        store::installValue(*st, k, &payload, sizeof(payload),
                            kValueBytes);
        model[k] = payload;
    };
    for (unsigned s = 0; s < kShards; ++s) {
        for (std::uint64_t i = 0; i < 300; ++i) {
            ASSERT_EQ(st->shardOf(keyOf(s, i)), s);
            install(keyOf(s, i), s * 1000 + i);
        }
    }
    // A buffer filled and committed now, so that the put below is a
    // pure tree write: no allocator call marks its epoch.
    const std::string hot = keyOf(kWritten, 7);
    void *spare = st->allocValueFor(hot, kValueBytes);
    const std::uint64_t sparePayload = 424242;
    nvm::pmemcpy(spare, &sparePayload, sizeof(sparePayload));
    st->advanceEpoch();

    EpochService::Options so;
    so.threads = 1;
    so.interval = std::chrono::milliseconds(2);
    auto svc = std::make_unique<EpochService>(*st, so);
    svc->start();

    auto waitFor = [&](auto &&done) {
        const auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!done() && std::chrono::steady_clock::now() < giveUp)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return done();
    };

    // 1. The pure tree write, then a boundary of its shard past it,
    //    while every other shard only skipped.
    void *old = nullptr;
    EXPECT_FALSE(st->put(hot, spare, &old));
    model[hot] = sparePayload;
    ASSERT_TRUE(waitFor([&] {
        if (svc->counters(kWritten).advances < 1)
            return false;
        for (unsigned s = 0; s < kShards; ++s)
            if (s != kWritten && svc->counters(s).idleSkips < 1)
                return false;
        return true;
    })) << "the written shard never advanced, or an idle one never "
           "skipped";
    auto expectIdleNeverAdvanced = [&] {
        for (unsigned s = 0; s < kShards; ++s) {
            if (s != kWritten) {
                EXPECT_EQ(svc->counters(s).advances, 0u)
                    << "idle shard " << s;
            }
        }
    };
    expectIdleNeverAdvanced();

    // 2. More write kinds on the same shard: a fresh insert, an update,
    //    a remove and the replaced buffer's free. A boundary in flight
    //    now may have cleared the flag before these writes, so wait for
    //    two more: the second is certain, since the first promotes the
    //    free and so marks its new epoch.
    const std::uint64_t before = svc->counters(kWritten).advances;
    install(keyOf(kWritten, 5000), 5000);
    install(keyOf(kWritten, 8), 8008);
    void *removed = nullptr;
    EXPECT_TRUE(st->remove(keyOf(kWritten, 9), &removed));
    model.erase(keyOf(kWritten, 9));
    st->freeValueFor(keyOf(kWritten, 9), removed, kValueBytes);
    st->freeValueFor(hot, old, kValueBytes);
    ASSERT_TRUE(waitFor(
        [&] { return svc->counters(kWritten).advances >= before + 2; }));
    svc->stop();
    expectIdleNeverAdvanced();
    svc.reset(); // it unhooks itself from the store, so it goes first
    EXPECT_GT(globalStats().get(Stat::kEpochIdleSkips), 0u);

    // 3. An uncommitted write on an idle shard, then power off with no
    //    flush: it is rolled back, the skipped boundaries lose nothing.
    std::uint64_t lost = 99;
    store::installValue(*st, keyOf(0, 3), &lost, sizeof(lost), kValueBytes);
    auto pools = st->releasePools();
    st.reset();
    for (auto &pool : pools)
        pool->crash(0.0);
    st = std::make_unique<ShardedStore>(
        std::move(pools), store::kRecover,
        store::StoreConfig{.logBuffers = 4, .logBufferBytes = 1u << 20});

    // 4. Every key of every shard against the oracle.
    for (const auto &[k, payload] : model) {
        void *v = nullptr;
        ASSERT_TRUE(st->get(k, v)) << "lost key of shard " << st->shardOf(k);
        std::uint64_t got;
        std::memcpy(&got, v, sizeof(got));
        EXPECT_EQ(got, payload) << "shard " << st->shardOf(k);
    }
    EXPECT_EQ(st->scan({}, SIZE_MAX, [](std::string_view, void *) {}),
              model.size());
}

TEST(EpochServiceTopology, FollowsAddedMemberAndRetiresMergedOne)
{
    // The one epoch driver follows the member set: a shard added while
    // the service runs takes scheduled boundaries from its commit on,
    // and a shard merged away under the running service is retired
    // with nothing stopped first — the table-epoch pin drain waits out
    // any advance still on it.
    ShardedStore::Options o = directOptions(2);
    o.config.placement = store::PlacementKind::kRange;
    ShardedStore st(o);
    // Even u64 range boundaries: the top key bit picks the shard, and
    // quarter 3 is the range the added member takes over.
    auto keyOf = [](std::uint64_t quarter, std::uint64_t i) {
        return mt::u64Key((quarter << 62) | i);
    };
    std::map<std::string, void *> model;
    auto put = [&](std::uint64_t quarter, std::uint64_t i) {
        const std::string k = keyOf(quarter, i);
        st.put(k, tag(quarter * 100000 + i + 1));
        model[k] = tag(quarter * 100000 + i + 1);
    };
    for (std::uint64_t q = 0; q < 4; ++q)
        for (std::uint64_t i = 0; i < 200; ++i)
            put(q, i);
    st.advanceEpoch();

    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::milliseconds(2);
    EpochService svc(st, so);
    svc.start();

    // Writes to every member each round (an unwritten epoch is skipped,
    // not advanced) until @p done or the suite's 30 s bound.
    std::uint64_t round = 1000;
    auto writeUntil = [&](auto &&done) {
        const auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!done() && std::chrono::steady_clock::now() < giveUp) {
            for (std::uint64_t q = 0; q < 4; ++q)
                put(q, round);
            ++round;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return done();
    };

    const store::MoveResult added = st.addShard(1, keyOf(3, 0));
    ASSERT_TRUE(added.completed);
    ASSERT_EQ(st.shardCount(), 3u);
    const std::uint64_t epochAtAdd =
        st.shard(2).tree().epochs().currentEpoch();
    // Nothing here asks for an urgent advance (no barrier, backpressure
    // or debt kick), so every advance counted is a scheduled one.
    ASSERT_TRUE(writeUntil([&] { return svc.counters(2).advances >= 2; }))
        << "the added member took " << svc.counters(2).advances
        << " boundaries";
    EXPECT_GE(st.shard(2).tree().epochs().currentEpoch(), epochAtAdd + 2);
    EXPECT_EQ(svc.counters(2).debtAdvances, 0u);
    EXPECT_EQ(svc.counters(2).throttleStalls, 0u);

    const store::MoveResult merged = st.mergeBoundary(2, 1);
    ASSERT_TRUE(merged.completed);
    ASSERT_EQ(st.shardCount(), 2u);
    const std::vector<std::uint32_t> unrouted = st.unroutedPoolIds();
    ASSERT_EQ(unrouted.size(), 1u);
    EXPECT_TRUE(st.retireShard(unrouted[0]).retired);
    EXPECT_TRUE(st.unroutedPoolIds().empty());

    // The service keeps driving the position that absorbed the range.
    const std::uint64_t absorbed = svc.counters(1).advances;
    ASSERT_TRUE(writeUntil(
        [&] { return svc.counters(1).advances >= absorbed + 1; }));
    svc.stop();

    auto it = model.begin();
    const std::size_t n =
        st.scan({}, SIZE_MAX, [&](std::string_view k, void *v) {
            ASSERT_NE(it, model.end()) << "extra key in scan";
            EXPECT_EQ(std::string(k), it->first);
            EXPECT_EQ(v, it->second);
            ++it;
        });
    EXPECT_EQ(n, model.size());
    EXPECT_EQ(it, model.end());
}

TEST(EpochServiceTopology, MovedMemberKeepsItsOwnDebtBaseline)
{
    // The service's per-shard state follows the shard, not its
    // position: shard 1 commits ~1 MB of log into the service's
    // baseline, then an add re-numbers it to position 2. Its debt
    // there must be its own (0), not its log measured against the
    // baseline position 2 had before.
    ShardedStore::Options o = directOptions(2);
    o.config.placement = store::PlacementKind::kRange;
    ShardedStore st(o);
    const std::uint64_t topBit = std::uint64_t{1} << 63;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        st.put(mt::u64Key(i), tag(i + 1));
        st.put(mt::u64Key(topBit | i), tag(i + 1));
    }
    // Re-updates in a later epoch than the inserts exhaust each leaf's
    // value InCLLs and log whole nodes (as in the backpressure test).
    std::uint64_t logged = 0;
    for (std::uint64_t round = 1; logged < (1u << 20) && round < 1000;
         ++round) {
        st.advanceEpoch();
        for (std::uint64_t rep = 0; rep < 3; ++rep)
            for (std::uint64_t i = 0; i < 2000; ++i)
                st.put(mt::u64Key(topBit | i), tag(round * 4 + rep + i));
        logged = st.shard(1).tree().log().bytesAppended();
    }
    ASSERT_GE(logged, 1u << 20);
    ASSERT_EQ(st.shard(0).tree().log().bytesAppended(), 0u);

    EpochService::Options so;
    so.threads = 1;
    so.interval = std::chrono::hours(1); // no scheduled boundary runs
    EpochService svc(st, so);
    svc.start(); // the baseline: every member's log bytes now
    ASSERT_EQ(svc.logDebt(1), 0u);

    const store::MoveResult added =
        st.addShard(0, mt::u64Key(std::uint64_t{1} << 62));
    ASSERT_TRUE(added.completed);
    ASSERT_EQ(st.shardCount(), 3u);
    ASSERT_EQ(st.shardPoolId(2), 1u) << "the written shard did not move";
    EXPECT_EQ(svc.logDebt(2), 0u)
        << "position 2 read its log against another shard's baseline";
    EXPECT_LT(svc.logDebt(1), logged)
        << "the added member read the moved shard's log";
    svc.stop();
}

} // namespace
} // namespace incll::service
