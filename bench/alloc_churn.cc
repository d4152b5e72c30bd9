/**
 * @file
 * Allocator hot-path bench: value-buffer churn under batched updates.
 *
 * Every op replaces a preloaded key's value buffer — one durable
 * allocation plus one free per op, issued through the batched store API
 * so a batch of N puts against one shard costs O(1) shared-list
 * operations. Each row reports throughput plus the allocator's own
 * counters: fast-path hits (thread-cache pops), refills
 * (segment pops off the shared list), spills (chain pushes), CAS
 * retries (head DWCAS contention) and lock-path falls (cache try-lock
 * misses).
 *
 * The interesting corner is many threads, high update rate, larger
 * values (--value-bytes) — the configuration scripts/bench.sh records
 * into BENCH_alloc.json.
 *
 * A second set of rows (mode lockfree_direct) drives a bare
 * DurableAllocator with no tree in front — the store path buries the
 * allocator's cost under microseconds of tree put + persist work, the
 * direct path shows it. --alloc-arenas caps the arena count so more
 * threads than arenas share lists (the contended case the lock-free
 * path exists for).
 *
 * Usage: alloc_churn [--paper|--keys N --ops N --threads N]
 *                    [--shards N --batch N --value-bytes N]
 *                    [--alloc-arenas N --json PATH]
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "alloc/durable_alloc.h"
#include "bench_util.h"
#include "common/barrier.h"
#include "epoch/epoch_manager.h"
#include "nvm/pool.h"

using namespace incll;
using namespace incll::bench;

namespace {

struct AllocCounters
{
    std::uint64_t fastPathHits = 0;
    std::uint64_t refills = 0;
    std::uint64_t spills = 0;
    std::uint64_t casRetries = 0;
    std::uint64_t lockPath = 0;
    std::uint64_t allocs = 0;

    static AllocCounters
    snapshot()
    {
        AllocCounters c;
        c.fastPathHits = globalStats().get(Stat::kAllocFastPathHits);
        c.refills = globalStats().get(Stat::kAllocRefills);
        c.spills = globalStats().get(Stat::kAllocSpills);
        c.casRetries = globalStats().get(Stat::kAllocCasRetries);
        c.lockPath = globalStats().get(Stat::kAllocLockPath);
        c.allocs = globalStats().get(Stat::kAllocs);
        return c;
    }

    AllocCounters
    since(const AllocCounters &b) const
    {
        return {fastPathHits - b.fastPathHits, refills - b.refills,
                spills - b.spills,             casRetries - b.casRetries,
                lockPath - b.lockPath,         allocs - b.allocs};
    }

    AllocCounters &
    operator+=(const AllocCounters &o)
    {
        fastPathHits += o.fastPathHits;
        refills += o.refills;
        spills += o.spills;
        casRetries += o.casRetries;
        lockPath += o.lockPath;
        allocs += o.allocs;
        return *this;
    }
};

/**
 * Every row is timed kRuns times and reports the median with the
 * spread: one direct row runs for milliseconds, and a single timing
 * of it spread by almost 2x between runs of one build.
 */
constexpr int kRuns = 5;

/** Print and record one row: median throughput, its spread, and the
 *  allocator counters summed over the row's runs. */
void
reportRow(JsonReport &report, const Params &p, const std::string &mode,
          unsigned batch, std::vector<double> mops, const AllocCounters &d)
{
    std::sort(mops.begin(), mops.end());
    const double median = mops[mops.size() / 2];
    const double lo = mops.front();
    const double hi = mops.back();
    const double hitPct =
        d.allocs > 0 ? 100.0 * static_cast<double>(d.fastPathHits) /
                           static_cast<double>(d.allocs)
                     : 0.0;
    std::printf("%-15s %6u %10.3f %10.3f %10.3f %11.1f%% %10llu %10llu "
                "%12llu %10llu\n",
                mode.c_str(), batch, median, lo, hi, hitPct,
                static_cast<unsigned long long>(d.refills),
                static_cast<unsigned long long>(d.spills),
                static_cast<unsigned long long>(d.casRetries),
                static_cast<unsigned long long>(d.lockPath));
    report.row()
        .field("mode", mode)
        .field("threads", p.threads)
        .field("shards", p.shards)
        .field("keys", p.numKeys)
        .field("batch", batch)
        .field("value_bytes", p.valueBytes)
        .field("arenas", p.allocArenas)
        .field("mops", median)
        .field("mops_min", lo)
        .field("mops_max", hi)
        .field("alloc_fast_path_hits", d.fastPathHits)
        .field("alloc_refills", d.refills)
        .field("alloc_spills", d.spills)
        .field("alloc_cas_retries", d.casRetries)
        .field("alloc_lock_path", d.lockPath);
}

/** Preload numKeys ranks with p.valueBytes buffers (batched). */
void
preloadValues(store::ShardedStore &s, const Params &p)
{
    constexpr std::size_t kChunk = 256;
    std::array<std::uint64_t, kChunk> ranks;
    std::array<std::array<char, 8>, kChunk> keyBufs;
    std::array<store::InstallOp, kChunk> ops;
    for (std::uint64_t base = 0; base < p.numKeys; base += kChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, p.numKeys - base));
        for (std::size_t j = 0; j < n; ++j) {
            ranks[j] = base + j;
            mt::sliceToBytes(ycsb::keyOfRank(ranks[j], true),
                             keyBufs[j].data());
            ops[j] = {std::string_view(keyBufs[j].data(), 8), &ranks[j],
                      sizeof(ranks[j])};
        }
        store::installValueBatch(s, std::span(ops.data(), n),
                                 p.valueBytes);
    }
}

/** 100%-update churn: every op reallocates a zipfian-chosen key. With
 *  batch == 1 ops go through per-op installValue (the thread-cache
 *  fast path); batched they go through installValueBatch (the O(1)
 *  shared-list segment transfers). */
double
runChurn(store::ShardedStore &s, const Params &p)
{
    Barrier barrier(p.threads);
    std::vector<std::thread> workers;
    using Clock = std::chrono::steady_clock;
    std::vector<Clock::time_point> starts(p.threads), stops(p.threads);
    for (unsigned tid = 0; tid < p.threads; ++tid) {
        workers.emplace_back([&s, &p, &barrier, &starts, &stops, tid] {
            Rng rng(0x5eed + tid);
            const KeyChooser chooser(KeyChooser::Dist::kZipfian,
                                     p.numKeys, 0.99);
            const std::size_t batch = std::max(1u, p.batch);
            std::vector<std::uint64_t> ranks(batch);
            std::vector<std::array<char, 8>> keyBufs(batch);
            std::vector<store::InstallOp> ops(batch);
            barrier.arriveAndWait();
            starts[tid] = Clock::now();
            for (std::uint64_t done = 0; done < p.opsPerThread;) {
                const std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(batch,
                                            p.opsPerThread - done));
                for (std::size_t j = 0; j < n; ++j) {
                    ranks[j] = chooser.next(rng);
                    mt::sliceToBytes(ycsb::keyOfRank(ranks[j], true),
                                     keyBufs[j].data());
                    ops[j] = {std::string_view(keyBufs[j].data(), 8),
                              &ranks[j], sizeof(ranks[j])};
                }
                if (batch == 1)
                    store::installValue(s, ops[0].key, ops[0].payload,
                                        ops[0].payloadBytes,
                                        p.valueBytes);
                else
                    store::installValueBatch(
                        s, std::span(ops.data(), n), p.valueBytes);
                done += n;
            }
            stops[tid] = Clock::now();
        });
    }
    for (auto &w : workers)
        w.join();
    auto first = starts[0];
    auto last = stops[0];
    for (unsigned tid = 1; tid < p.threads; ++tid) {
        first = std::min(first, starts[tid]);
        last = std::max(last, stops[tid]);
    }
    const double secs =
        std::chrono::duration<double>(last - first).count();
    const double ops =
        static_cast<double>(p.threads) * static_cast<double>(p.opsPerThread);
    return secs > 0.0 ? ops / secs / 1e6 : 0.0;
}

/**
 * Direct allocator churn — no tree, no value copies: each op is one
 * alloc + one free against a bare DurableAllocator while an advancer
 * thread drives epoch boundaries through the run. The store-level rows
 * above bury a few hundred nanoseconds of allocator work under ~3 µs of
 * tree put + persist; this point isolates the allocator's own
 * protocol. Adds the run's counters to @p d.
 */
double
runDirect(const Params &p, unsigned batch, AllocCounters *d)
{
    nvm::Pool pool(std::size_t{1} << 29, nvm::Mode::kDirect);
    auto *area = static_cast<char *>(pool.rootArea());
    auto *epochWord = reinterpret_cast<std::uint64_t *>(area);
    auto *failedRec = reinterpret_cast<FailedEpochRecord *>(area + 64);
    EpochManager epochs(pool, epochWord, failedRec, true);
    DurableAllocator alloc(pool, epochs,
                           reinterpret_cast<std::uint64_t *>(area + 8),
                           true, p.allocArenas, std::size_t{1} << 20);

    // The advancer paces epoch boundaries, which are also when pending
    // frees recycle. Pure time-based pacing can fall behind the churn
    // rate on a loaded or oversubscribed machine (the pool then fills
    // with pending objects), so it also advances early once the frees
    // since the last boundary approach a fixed share of the pool — and
    // the workers yield at the same threshold, so on a single core the
    // advancer actually gets the CPU to do it.
    const std::uint64_t stride = p.valueBytes + 64;
    const std::uint64_t maxPendingBytes = (std::size_t{1} << 29) / 4;
    std::atomic<std::uint64_t> freesAtAdvance{
        globalStats().get(Stat::kFrees)};
    auto pendingBytesApprox = [&] {
        return (globalStats().get(Stat::kFrees) -
                freesAtAdvance.load(std::memory_order_relaxed)) *
               stride;
    };
    std::atomic<bool> stopAdvancer{false};
    std::thread advancer([&] {
        using Clock = std::chrono::steady_clock;
        while (!stopAdvancer.load(std::memory_order_relaxed)) {
            const auto deadline = Clock::now() + p.epochInterval;
            while (pendingBytesApprox() <= maxPendingBytes &&
                   Clock::now() < deadline &&
                   !stopAdvancer.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            epochs.advance();
            freesAtAdvance.store(globalStats().get(Stat::kFrees),
                                 std::memory_order_relaxed);
        }
    });

    Barrier barrier(p.threads);
    using Clock = std::chrono::steady_clock;
    std::vector<Clock::time_point> starts(p.threads), stops(p.threads);
    const auto before = AllocCounters::snapshot();
    std::vector<std::thread> workers;
    for (unsigned tid = 0; tid < p.threads; ++tid) {
        workers.emplace_back([&, tid] {
            std::vector<void *> objs(batch);
            barrier.arriveAndWait();
            starts[tid] = Clock::now();
            std::uint64_t sincePoll = 0;
            for (std::uint64_t done = 0; done < p.opsPerThread;) {
                const std::size_t n = static_cast<std::size_t>(
                    std::min<std::uint64_t>(batch,
                                            p.opsPerThread - done));
                if (n == 1) {
                    objs[0] = alloc.alloc(p.valueBytes);
                    alloc.free(objs[0], p.valueBytes);
                } else {
                    alloc.allocMany(p.valueBytes, objs.data(), n);
                    alloc.freeMany(objs.data(), n, p.valueBytes);
                }
                done += n;
                sincePoll += n;
                if (sincePoll >= 1024) {
                    sincePoll = 0;
                    while (pendingBytesApprox() > maxPendingBytes)
                        std::this_thread::yield();
                }
            }
            stops[tid] = Clock::now();
        });
    }
    for (auto &w : workers)
        w.join();
    stopAdvancer.store(true, std::memory_order_relaxed);
    advancer.join();
    *d += AllocCounters::snapshot().since(before);
    alloc.drainLocalCaches();

    auto first = starts[0];
    auto last = stops[0];
    for (unsigned tid = 1; tid < p.threads; ++tid) {
        first = std::min(first, starts[tid]);
        last = std::max(last, stops[tid]);
    }
    const double secs =
        std::chrono::duration<double>(last - first).count();
    const double ops =
        static_cast<double>(p.threads) * static_cast<double>(p.opsPerThread);
    return secs > 0.0 ? ops / secs / 1e6 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Params p = Params::parse(argc, argv);
    if (p.batch == 1)
        p.batch = 64; // churn is a batched workload by design
    auto report = p.report("alloc_churn");

    std::printf("# Allocator churn: 100%%-update batched installs, "
                "keys=%llu ops/thread=%llu threads=%u shards=%u "
                "batch=%u value_bytes=%zu arenas=%u%s\n",
                static_cast<unsigned long long>(p.numKeys),
                static_cast<unsigned long long>(p.opsPerThread), p.threads,
                p.shards, p.batch, p.valueBytes, p.allocArenas,
                p.allocArenas == 0 ? " (auto)" : "");
    std::printf("# Mops: median of %d runs, with their min and max; "
                "counters summed over the runs\n",
                kRuns);
    std::printf("%-15s %6s %10s %10s %10s %12s %10s %10s %12s %10s\n",
                "mode", "batch", "Mops", "min", "max", "fastpath%",
                "refills", "spills", "cas_retries", "lockpath");

    // Two operating points: per-op (the thread-cache fast path) and
    // batched (the O(1) segment transfers).
    std::vector<unsigned> batches{1};
    if (p.batch > 1)
        batches.push_back(p.batch);
    for (const unsigned batch : batches) {
        Params run = p;
        run.batch = batch;
        auto opts = storeOptionsFor(run);
        // Value buffers dominate the footprint at large --value-bytes;
        // pending lists additionally hold every buffer freed since the
        // last epoch boundary.
        opts.poolBytesPerShard +=
            (p.numKeys / std::max(1u, p.shards) + 4096) * p.valueBytes * 3;
        store::ShardedStore s(opts);
        preloadValues(s, run);
        s.advanceEpoch();

        const auto before = AllocCounters::snapshot();
        service::EpochService svc(s, serviceOptionsFor(run));
        svc.start();
        std::vector<double> mops;
        for (int i = 0; i < kRuns; ++i)
            mops.push_back(runChurn(s, run));
        svc.stop();
        reportRow(report, p, "lockfree", batch, mops,
                  AllocCounters::snapshot().since(before));
        // Values are p.valueBytes, not ycsb::kValueBytes, so the
        // destroyWithValues teardown does not apply; the pools unmap
        // with the store.
    }

    // Direct allocator rows: the same batch points without the tree in
    // front, so the allocator's cost is visible above machine noise.
    for (const unsigned batch : batches) {
        AllocCounters d;
        std::vector<double> mops;
        for (int i = 0; i < kRuns; ++i)
            mops.push_back(runDirect(p, batch, &d));
        reportRow(report, p, "lockfree_direct", batch, mops, d);
    }
    return 0;
}
