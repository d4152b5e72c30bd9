/**
 * @file
 * Observability layer tests (tier1): histogram bucket geometry and
 * percentile accuracy, the counter store (per-thread slab merge,
 * retirement, cache-line disjointness, labelled children), exposition
 * golden renders, and the slow-op ring.
 *
 * The ObsStress.* cases hammer concurrent record/merge/dump paths and
 * are additionally run under ThreadSanitizer (see the tsan_obs CTest
 * entry): the counter slabs' retire-on-thread-exit, the labelled-child
 * map under scrapes, the histogram stripes and the slow-op seqlock all
 * make memory-ordering claims that deserve a checker, not just a code
 * comment.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace incll::obs {
namespace {

// --- Bucket geometry ---------------------------------------------------

TEST(HistBuckets, LinearRangeIsExact)
{
    for (std::uint64_t v = 0; v < HistBuckets::kLinearMax; ++v) {
        EXPECT_EQ(HistBuckets::index(v), v);
        EXPECT_EQ(HistBuckets::lowerBound(HistBuckets::index(v)), v);
        EXPECT_EQ(HistBuckets::width(HistBuckets::index(v)), 1u);
    }
}

TEST(HistBuckets, BoundaryContinuity)
{
    // The linear/log seam and the first octave seam: no value may be
    // skipped or double-mapped where the encoding changes.
    EXPECT_EQ(HistBuckets::index(15), 15u);
    EXPECT_EQ(HistBuckets::index(16), 16u);
    EXPECT_EQ(HistBuckets::index(31), 31u);
    EXPECT_EQ(HistBuckets::index(32), 32u);
    EXPECT_EQ(HistBuckets::lowerBound(16), 16u);
    EXPECT_EQ(HistBuckets::lowerBound(31), 31u);
    EXPECT_EQ(HistBuckets::lowerBound(32), 32u);
    EXPECT_EQ(HistBuckets::width(16), 1u);
    EXPECT_EQ(HistBuckets::width(32), 2u);
}

TEST(HistBuckets, EveryValueLandsInsideItsBucket)
{
    // Sweep a dense low range plus probes around every octave edge:
    // lowerBound(index(v)) <= v < lowerBound + width, and index is
    // monotone — together these say the buckets tile the value space.
    std::vector<std::uint64_t> values;
    for (std::uint64_t v = 0; v < 5000; ++v)
        values.push_back(v);
    for (unsigned exp = 12; exp < 44; ++exp)
        for (std::int64_t d = -2; d <= 2; ++d)
            values.push_back((std::uint64_t{1} << exp) +
                             static_cast<std::uint64_t>(d));
    unsigned prev = 0;
    std::sort(values.begin(), values.end());
    for (const std::uint64_t v : values) {
        const unsigned i = HistBuckets::index(v);
        ASSERT_LT(i, HistBuckets::kNumBuckets);
        EXPECT_GE(i, prev);
        EXPECT_LE(HistBuckets::lowerBound(i), v);
        EXPECT_LT(v, HistBuckets::lowerBound(i) + HistBuckets::width(i));
        prev = i;
    }
}

TEST(HistBuckets, RelativeErrorBounded)
{
    // The design claim: quantization error < width/lowerBound = 1/16.
    Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t v = rng.next() >> (rng.nextBounded(40));
        const unsigned b = HistBuckets::index(v);
        if (v < 16 || b == HistBuckets::kNumBuckets - 1)
            continue;
        const double err =
            static_cast<double>(HistBuckets::width(b)) /
            static_cast<double>(HistBuckets::lowerBound(b));
        EXPECT_LE(err, 1.0 / 16.0 + 1e-9);
    }
}

// --- Percentiles vs the exact sort-based computation -------------------

TEST(HistSnapshot, PercentileTracksExactWithinBucketWidth)
{
    Rng rng(42);
    HistSnapshot snap;
    std::vector<double> exact;
    for (int i = 0; i < 50000; ++i) {
        // Log-uniform-ish spread, the shape latency data takes; kept
        // inside the histogram's covered range (< 2^44).
        const std::uint64_t v =
            1 + (rng.next() >> (21 + rng.nextBounded(43)));
        snap.record(v);
        exact.push_back(static_cast<double>(v));
    }
    std::sort(exact.begin(), exact.end());
    for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        const double approx = snap.percentile(p);
        // Exact: linear interpolation between the closest ranks.
        const double rank =
            p / 100.0 * static_cast<double>(exact.size() - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const double truth =
            exact[lo] + (rank - static_cast<double>(lo)) *
                            (exact[lo + 1] - exact[lo]);
        // 1/16 relative bound from the bucket width, plus one unit of
        // absolute slack for the interpolation conventions differing.
        EXPECT_NEAR(approx, truth, truth / 16.0 + 1.0)
            << "at p" << p;
    }
}

TEST(HistSnapshot, EmptyAndEdgeBehaviour)
{
    HistSnapshot s;
    EXPECT_EQ(s.percentile(50), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.fractionAtOrBelow(100), 1.0);
    s.record(8);
    // Rank clamps to the first sample and interpolates to the upper
    // edge of its (unit) bucket, for every p.
    EXPECT_EQ(s.percentile(0), 9.0);
    EXPECT_EQ(s.percentile(100), 9.0);
    EXPECT_EQ(s.mean(), 8.0);
}

TEST(HistSnapshot, AddAndSubtractAreInverse)
{
    HistSnapshot a, b;
    for (std::uint64_t v : {3u, 70u, 9000u})
        a.record(v);
    b = a;
    for (std::uint64_t v : {5u, 800u})
        b.record(v);
    HistSnapshot delta = b;
    delta.subtract(a);
    EXPECT_EQ(delta.count, 2u);
    EXPECT_EQ(delta.sum, 805u);
    HistSnapshot sum = a;
    sum.add(delta);
    EXPECT_EQ(sum.count, b.count);
    EXPECT_EQ(sum.sum, b.sum);
}

TEST(Histogram, SnapshotMergesStripes)
{
    Histogram h;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&h] {
            for (int i = 0; i < 1000; ++i)
                h.record(100);
        });
    for (auto &t : threads)
        t.join();
    const HistSnapshot s = h.snapshot();
    EXPECT_EQ(s.count, 4000u);
    EXPECT_EQ(s.sum, 400000u);
    h.reset();
    EXPECT_EQ(h.snapshot().count, 0u);
}

// --- Counter store -----------------------------------------------------

constexpr unsigned kNumStatsU = static_cast<unsigned>(Stat::kNumStats);

TEST(Stats, MergesAcrossLiveAndExitedThreads)
{
    StatSet local;
    local.add(Stat::kAllocs, 5); // this (long-lived) thread's slab
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&local] { local.add(Stat::kAllocs, 100); });
    for (auto &t : threads)
        t.join();
    // The four threads exited: their slabs were retired and folded.
    // The merged value must see both the retired and the live slab.
    EXPECT_EQ(local.get(Stat::kAllocs), 405u);
    const auto all = local.counters();
    ASSERT_EQ(all.size(), kNumStatsU); // one total per Stat, no children
    const auto &cv = all[static_cast<unsigned>(Stat::kAllocs)];
    EXPECT_EQ(cv.name, "allocs");
    EXPECT_EQ(cv.shard, -1);
    EXPECT_EQ(cv.value, 405u);
}

TEST(Stats, ResetZeroesRetiredLiveAndChildren)
{
    StatSet local;
    local.add(Stat::kFrees, 7);
    std::thread([&local] { local.add(Stat::kFrees, 3); }).join();
    local.addShard(Stat::kEpochAdvances, 5, 2);
    EXPECT_EQ(local.get(Stat::kFrees), 10u);
    local.reset();
    EXPECT_EQ(local.get(Stat::kFrees), 0u);
    EXPECT_EQ(local.get(Stat::kEpochAdvances), 0u);
    // A child seen before stays listed, at zero.
    bool sawChild = false;
    for (const auto &cv : local.counters())
        if (cv.shard == 5) {
            sawChild = true;
            EXPECT_EQ(cv.name, "epoch_advances");
            EXPECT_EQ(cv.value, 0u);
        }
    EXPECT_TRUE(sawChild);
}

TEST(Stats, ThreadSlabsAreCacheLineDisjoint)
{
    // The false-sharing fix, asserted directly: every thread's slab is
    // 64-byte aligned and slabs of concurrently-live threads never
    // overlap (they are at least a full slab apart), so no counter
    // line is ever written by two threads.
    StatSet local;
    constexpr int kThreads = 6;
    const void *slabs[kThreads] = {};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            slabs[t] = local.debugThreadSlab();
            ready.fetch_add(1);
            while (!go.load())  // hold the slab live until all exist
                std::this_thread::yield();
        });
    while (ready.load() < kThreads)
        std::this_thread::yield();
    go.store(true);
    for (auto &t : threads)
        t.join();
    constexpr std::uintptr_t kSlabBytes = kNumStatsU * sizeof(std::uint64_t);
    for (int i = 0; i < kThreads; ++i) {
        ASSERT_NE(slabs[i], nullptr);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slabs[i]) % 64, 0u);
        for (int j = i + 1; j < kThreads; ++j) {
            const auto a = reinterpret_cast<std::uintptr_t>(slabs[i]);
            const auto b = reinterpret_cast<std::uintptr_t>(slabs[j]);
            EXPECT_GE(a > b ? a - b : b - a, kSlabBytes);
        }
    }
}

TEST(Stats, LocalSetIsIsolatedFromGlobal)
{
    const std::uint64_t before = globalStats().get(Stat::kClwb);
    StatSet local;
    local.add(Stat::kClwb, 41);
    EXPECT_EQ(local.get(Stat::kClwb), 41u);
    EXPECT_EQ(globalStats().get(Stat::kClwb), before);
    EXPECT_NE(local.toString().find("clwb 41"), std::string::npos);
    local.reset();
    EXPECT_EQ(local.get(Stat::kClwb), 0u);
}

TEST(Stats, AddShardFeedsTotalAndLabeledChild)
{
    StatSet local;
    local.addShard(Stat::kEpochAdvances, 2, 5);
    local.addShard(Stat::kEpochAdvances, 2, 1);
    local.addShard(Stat::kEpochAdvances, 0, 3);
    // The plain Stat counter carries the total...
    EXPECT_EQ(local.get(Stat::kEpochAdvances), 9u);
    // ...and the per-shard children follow it, in pool-id order.
    const auto all = local.counters();
    const auto total =
        std::find_if(all.begin(), all.end(), [](const CounterValue &cv) {
            return cv.name == "epoch_advances";
        });
    ASSERT_GE(all.end() - total, 3);
    EXPECT_EQ(total[0].shard, -1);
    EXPECT_EQ(total[0].value, 9u);
    EXPECT_EQ(total[1].name, "epoch_advances");
    EXPECT_EQ(total[1].shard, 0);
    EXPECT_EQ(total[1].value, 3u);
    EXPECT_EQ(total[2].name, "epoch_advances");
    EXPECT_EQ(total[2].shard, 2);
    EXPECT_EQ(total[2].value, 6u);
}

/**
 * Every `family{shard="N"}` sample line of a Prometheus render, keyed
 * by N. A duplicated label fails the calling test: one scrape must
 * carry one sample per labeled child, whatever the member set did
 * while the scrape ran.
 */
std::map<int, std::uint64_t>
shardSeries(const std::string &body, const std::string &family)
{
    std::map<int, std::uint64_t> out;
    const std::string needle = family + "{shard=\"";
    std::size_t at = 0;
    while ((at = body.find(needle, at)) != std::string::npos) {
        if (at != 0 && body[at - 1] != '\n') {
            at += needle.size();
            continue;
        }
        at += needle.size();
        char *end = nullptr;
        const long shard = std::strtol(body.c_str() + at, &end, 10);
        EXPECT_EQ(std::string_view(end, 3), "\"} ") << family;
        EXPECT_FALSE(out.contains(static_cast<int>(shard)))
            << family << "{shard=\"" << shard << "\"} emitted twice";
        out[static_cast<int>(shard)] =
            std::strtoull(end + 3, nullptr, 10);
    }
    return out;
}

TEST(Stats, ShardChurnKeepsExpositionSeriesUnique)
{
    // The add/retire lifecycle as the exposition sees it: a scrape
    // taken while a member is live lists its child exactly once, and a
    // scrape after the member retired keeps the child frozen at its
    // last value — cumulative series neither vanish nor duplicate.
    StatSet local;
    local.addShard(Stat::kEpochAdvances, 0, 3);
    local.addShard(Stat::kEpochAdvances, 1, 7);
    Exposition e;
    e.counters = local.counters();
    const auto before = shardSeries(renderPrometheus(e), "epoch_advances");
    EXPECT_EQ(before, (std::map<int, std::uint64_t>{{0, 3}, {1, 7}}));

    // Shard 1 retires (no further increments) and shard 2 joins.
    local.addShard(Stat::kEpochAdvances, 0, 1);
    local.addShard(Stat::kEpochAdvances, 2, 5);
    e.counters = local.counters();
    const std::string body = renderPrometheus(e);
    const auto after = shardSeries(body, "epoch_advances");
    EXPECT_EQ(after,
              (std::map<int, std::uint64_t>{{0, 4}, {1, 7}, {2, 5}}));
    // One family header with the children grouped under it, however
    // late the newest child registered.
    EXPECT_EQ(body.find("# TYPE epoch_advances counter"),
              body.rfind("# TYPE epoch_advances counter"));
}

TEST(Stats, EveryStatHasAName)
{
    StatSet local;
    for (unsigned i = 0; i < static_cast<unsigned>(Stat::kNumStats); ++i) {
        local.add(static_cast<Stat>(i));
        EXPECT_STRNE(statName(static_cast<Stat>(i)), "unknown");
    }
    // toString lists them all when nonzero (one "name 1" line each).
    const std::string s = local.toString();
    EXPECT_NE(s.find("server_stats_requests 1"), std::string::npos);
}

// --- Exposition golden tests -------------------------------------------

Exposition
goldenExposition()
{
    Exposition e;
    e.counters.push_back({"foo", -1, 7});
    e.counters.push_back({"foo", 2, 3});
    Exposition::HistEntry h;
    h.name = "h_ns";
    h.snap.record(10, 2);
    h.snap.record(100);
    e.hists.push_back(h);
    SlowOpRing::Entry s{};
    s.tsNs = 5;
    s.op = "get";
    s.shard = 1;
    s.seq = 9;
    s.totalNs = 100;
    s.queueNs = 10;
    s.gateNs = 20;
    s.storeNs = 30;
    s.flushNs = 40;
    e.slowOps.push_back(s);
    return e;
}

TEST(Exposition, PrometheusGolden)
{
    const std::string got = renderPrometheus(goldenExposition());
    const std::string want = "# TYPE foo counter\n"
                             "foo 7\n"
                             "foo{shard=\"2\"} 3\n"
                             "# TYPE h_ns summary\n"
                             "h_ns{quantile=\"0.5\"} 10.75\n"
                             "h_ns{quantile=\"0.95\"} 103.4\n"
                             "h_ns{quantile=\"0.99\"} 103.88\n"
                             "h_ns{quantile=\"0.999\"} 103.988\n"
                             "h_ns_sum 120\n"
                             "h_ns_count 3\n";
    EXPECT_EQ(got, want);
}

TEST(Exposition, JsonGolden)
{
    const std::string got = renderJson(goldenExposition());
    const std::string want =
        "{\n"
        "  \"counters\": {\n"
        "    \"foo\": 7,\n"
        "    \"foo{shard=\\\"2\\\"}\": 3\n"
        "  },\n"
        "  \"histograms\": {\n"
        "    \"h_ns\": {\"count\": 3, \"sum\": 120, \"mean\": 40, "
        "\"p50\": 10.75, \"p95\": 103.4, \"p99\": 103.88, "
        "\"p999\": 103.988}\n"
        "  },\n"
        "  \"slow_ops\": [\n"
        "    {\"ts_ns\": 5, \"op\": \"get\", \"shard\": 1, \"seq\": 9, "
        "\"total_ns\": 100, \"queue_ns\": 10, \"gate_ns\": 20, "
        "\"store_ns\": 30, \"flush_ns\": 40}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(got, want);
}

TEST(Exposition, HundredPoolsKeepEveryLabelledSeries)
{
    // Pool ids are never reused, so a long-lived elastic store keeps
    // minting labels. Every (family, pool id) child must reach the
    // server's scrape with its value: none may be dropped past a cap.
    // The global store is shared with the rest of this binary (and with
    // --gtest_repeat), so values are compared as growth.
    constexpr unsigned kPools = 100;
    const std::string before = renderPrometheus(collectGlobal());
    for (unsigned i = 0; i < kNumStatsU; ++i)
        for (unsigned pool = 0; pool < kPools; ++pool)
            globalStats().addShard(static_cast<Stat>(i), pool, pool + 1);
    const std::string after = renderPrometheus(collectGlobal());
    for (unsigned i = 0; i < kNumStatsU; ++i) {
        const std::string family = statName(static_cast<Stat>(i));
        const auto was = shardSeries(before, family);
        const auto now = shardSeries(after, family);
        for (unsigned pool = 0; pool < kPools; ++pool) {
            const int id = static_cast<int>(pool);
            ASSERT_TRUE(now.contains(id))
                << family << "{shard=\"" << pool << "\"} missing";
            const std::uint64_t base = was.contains(id) ? was.at(id) : 0;
            EXPECT_EQ(now.at(id) - base, pool + 1)
                << family << "{shard=\"" << pool << "\"}";
        }
    }
}

// --- Slow-op ring ------------------------------------------------------

TEST(SlowOpRing, RecordsAndDumpsNewestFirst)
{
    SlowOpRing ring;
    ring.record("get", 0, 1, 100, 10, 5, 60, 30);
    ring.record("put", 1, 2, 200, 20, 10, 120, 60);
    const auto d = ring.dump();
    ASSERT_EQ(d.size(), 2u);
    EXPECT_STREQ(d[0].op, "put");
    EXPECT_EQ(d[0].seq, 2u);
    EXPECT_EQ(d[0].totalNs, 200u);
    EXPECT_STREQ(d[1].op, "get");
    EXPECT_EQ(ring.recorded(), 2u);
}

TEST(SlowOpRing, WrapsAroundKeepingTheNewest)
{
    SlowOpRing ring;
    const std::uint64_t n = SlowOpRing::kSlots + 50;
    for (std::uint64_t i = 0; i < n; ++i)
        ring.record("op", static_cast<int>(i % 4), i, i * 10, 1, 2, 3, 4);
    EXPECT_EQ(ring.recorded(), n);
    const auto d = ring.dump();
    ASSERT_EQ(d.size(), SlowOpRing::kSlots);
    // Newest first: seq n-1, n-2, ... n-kSlots.
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_EQ(d[i].seq, n - 1 - i);
        EXPECT_EQ(d[i].totalNs, (n - 1 - i) * 10);
    }
}

// --- Concurrency stress (also run under TSan: tsan_obs) ----------------

TEST(ObsStress, ConcurrentStatsRecordAndMerge)
{
    StatSet local;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> added{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&] {
            // Short-lived bursts: exercises slab retire/recycle against
            // concurrent merges, not just steady-state adds.
            for (int burst = 0; burst < 8; ++burst) {
                std::thread([&] {
                    for (int i = 0; i < 2000; ++i)
                        local.add(Stat::kScans);
                    added.fetch_add(2000);
                }).join();
            }
        });
    std::thread reader([&] {
        while (!stop.load()) {
            (void)local.get(Stat::kScans);
            (void)local.counters();
        }
    });
    for (auto &w : writers)
        w.join();
    stop.store(true);
    reader.join();
    EXPECT_EQ(local.get(Stat::kScans), added.load());
}

TEST(ObsStress, ConcurrentHistogramRecordAndSnapshot)
{
    Histogram h;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&h, t] {
            Rng rng(static_cast<std::uint64_t>(t) + 1);
            for (int i = 0; i < 20000; ++i)
                h.record(1 + (rng.next() >> 40));
        });
    std::thread reader([&] {
        while (!stop.load()) {
            const HistSnapshot s = h.snapshot();
            (void)s.percentile(99);
        }
    });
    for (auto &w : writers)
        w.join();
    stop.store(true);
    reader.join();
    EXPECT_EQ(h.snapshot().count, 4u * 20000u);
}

TEST(ObsStress, ConcurrentSlowOpRecordAndDump)
{
    SlowOpRing ring;
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&ring, t] {
            for (std::uint64_t i = 0; i < 20000; ++i)
                ring.record("w", t, i, i, 1, 2, 3, 4);
        });
    std::thread reader([&] {
        while (!stop.load()) {
            for (const auto &e : ring.dump()) {
                // Torn slots must never be visible: a dumped entry is
                // internally consistent by the seqlock contract.
                ASSERT_STREQ(e.op, "w");
                ASSERT_EQ(e.totalNs, e.seq);
            }
        }
    });
    for (auto &w : writers)
        w.join();
    stop.store(true);
    reader.join();
    EXPECT_EQ(ring.recorded(), 4u * 20000u);
}

TEST(ObsStress, ShardChurnDuringScrapesKeepsSeriesUnique)
{
    // A rolling member set: round n starts recording into shard n's
    // labeled children while the previous round's member keeps
    // recording (then goes quiet — "retired"), and a scraper renders
    // expositions the whole time. Every scrape must be well-formed
    // mid-churn: each labeled child at most once, labels only from the
    // issued universe, per-series values monotone across scrapes.
    constexpr unsigned kRounds = 32;
    constexpr std::uint64_t kPerRound = 400;
    StatSet local;
    std::atomic<bool> stop{false};
    std::thread churn([&] {
        for (unsigned n = 0; n < kRounds; ++n)
            for (std::uint64_t i = 0; i < kPerRound; ++i) {
                local.addShard(Stat::kEpochAdvances, n);
                if (n >= 1)
                    local.addShard(Stat::kEpochAdvances, n - 1);
            }
        stop.store(true, std::memory_order_release);
    });
    std::map<int, std::uint64_t> prev;
    while (!stop.load(std::memory_order_acquire)) {
        Exposition e;
        e.counters = local.counters();
        auto live = shardSeries(renderPrometheus(e), "epoch_advances");
        for (const auto &[shard, value] : live) {
            ASSERT_GE(shard, 0);
            ASSERT_LT(shard, static_cast<int>(kRounds));
            ASSERT_GE(value, prev[shard]) << "shard " << shard;
        }
        prev = std::move(live);
    }
    churn.join();

    // Quiesced: every member that ever recorded has exactly one child
    // at its exact lifetime total — first and last rounds recorded one
    // round's worth, everyone in between two.
    Exposition e;
    e.counters = local.counters();
    const auto final_ = shardSeries(renderPrometheus(e), "epoch_advances");
    ASSERT_EQ(final_.size(), kRounds);
    for (unsigned s = 0; s < kRounds; ++s)
        EXPECT_EQ(final_.at(static_cast<int>(s)),
                  (s + 1 < kRounds ? 2 : 1) * kPerRound)
            << "shard " << s;
    EXPECT_EQ(local.get(Stat::kEpochAdvances),
              (2 * kRounds - 1) * kPerRound);
}

} // namespace
} // namespace incll::obs
