/**
 * @file
 * Multithreaded YCSB driver.
 *
 * Works against any index exposing the store interface (get/put/scan +
 * allocValueFor/freeValueFor) — a single DurableMasstree, a transient
 * baseline, or a store::ShardedStore. Values are 8 bytes stored in a
 * 32-byte buffer, as in the paper (§6, footnote 6). An update allocates
 * a fresh buffer, installs it, and frees the old one — the pattern whose
 * flush-free allocation the durable allocator (§5) is designed for; the
 * install protocol itself lives in store::installValue.
 */
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "masstree/key.h"
#include "nvm/pool.h"
#include "store/value_util.h"
#include "ycsb/workload.h"

namespace incll::ycsb {

struct Result
{
    double seconds = 0.0;
    std::uint64_t totalOps = 0;

    double
    mops() const
    {
        return seconds > 0.0 ? totalOps / seconds / 1e6 : 0.0;
    }
};

/** Size of every value buffer (paper: 32-byte buffers). */
inline constexpr std::size_t kValueBytes = 32;

/** Preload the store with keys for ranks 0 .. numKeys-1 (scrambled by
 *  default; pass scramble=false for ordered-key workloads — must match
 *  the Spec::scrambleKeys of the runs that follow). */
template <typename TreeLike>
void
preload(TreeLike &t, std::uint64_t numKeys, bool scramble = true)
{
    // Load in chunks through the batched install path: against a
    // sharded store each chunk enters every touched shard's gate once
    // and allocates its buffers in one allocator batch per shard. The
    // rank and key storage must stay stable for the chunk — InstallOp
    // keeps pointers into both.
    constexpr std::size_t kChunk = 256;
    std::array<std::uint64_t, kChunk> ranks;
    std::array<std::array<char, 8>, kChunk> keyBufs;
    std::array<store::InstallOp, kChunk> ops;
    for (std::uint64_t base = 0; base < numKeys; base += kChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, numKeys - base));
        for (std::size_t j = 0; j < n; ++j) {
            ranks[j] = base + j;
            mt::sliceToBytes(keyOfRank(ranks[j], scramble),
                             keyBufs[j].data());
            ops[j] = {std::string_view(keyBufs[j].data(), 8), &ranks[j],
                      sizeof(ranks[j])};
        }
        store::installValueBatch(t, std::span(ops.data(), n), kValueBytes);
    }
}

/**
 * Tear down a store whose stored values came from allocValueFor (the
 * preload/run protocol above): every remaining value buffer is returned
 * to its allocator in the same walk that frees the tree's nodes. The
 * store is unusable afterwards. Requires quiescence. Sharded stores
 * tear down shard by shard — values were allocated from the owning
 * shard, so each walk frees into the right allocator.
 */
template <typename TreeLike>
void
destroyWithValues(TreeLike &t)
{
    if constexpr (requires { t.shardCount(); }) {
        for (unsigned i = 0; i < t.shardCount(); ++i) {
            auto &tr = t.shard(i).tree();
            tr.tree().destroy(
                [&tr](void *v) { tr.freeValue(v, kValueBytes); });
        }
    } else {
        t.tree().destroy([&t](void *v) { t.freeValue(v, kValueBytes); });
    }
}

/**
 * One worker's operation loop, one op at a time (batchSize == 1).
 */
template <typename TreeLike>
void
runOps(TreeLike &t, const Spec &spec, Rng &rng, const KeyChooser &chooser)
{
    const double putFrac = putFraction(spec.mix);
    char keyBuf[8];
    for (std::uint64_t i = 0; i < spec.opsPerThread; ++i) {
        const std::uint64_t rank = chooser.next(rng);
        mt::sliceToBytes(keyOfRank(rank, spec.scrambleKeys), keyBuf);
        const std::string_view key(keyBuf, 8);

        if (spec.mix == Mix::kE) {
            std::uint64_t sum = 0;
            t.scan(key, spec.scanLength,
                   [&sum](std::string_view, void *v) {
                       sum += reinterpret_cast<std::uintptr_t>(v);
                   });
            continue;
        }
        if (putFrac > 0.0 && rng.nextBool(putFrac)) {
            store::installValue(t, key, &rank, sizeof(rank), kValueBytes);
        } else {
            void *out = nullptr;
            t.get(key, out);
        }
    }
}

/**
 * One worker's operation loop in batched mode: up to spec.batchSize
 * consecutive ops are drawn, split into their read and write parts, and
 * issued through the store's batched API (multiGet / installValueBatch)
 * so each touched shard's epoch gate is entered once per sub-batch
 * rather than once per op. Against an index without multiGet/multiPut
 * the batch degenerates to the per-op loops, preserving semantics.
 */
template <typename TreeLike>
void
runOpsBatched(TreeLike &t, const Spec &spec, Rng &rng,
              const KeyChooser &chooser)
{
    const double putFrac = putFraction(spec.mix);
    const std::size_t batch = spec.batchSize;

    std::vector<std::uint64_t> ranks(batch);
    std::vector<std::array<char, 8>> keyBufs(batch);
    std::vector<std::string_view> getKeys;
    std::vector<void *> getOut(batch);
    std::vector<store::InstallOp> putOps;
    getKeys.reserve(batch);
    putOps.reserve(batch);

    for (std::uint64_t done = 0; done < spec.opsPerThread;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(batch, spec.opsPerThread - done));
        getKeys.clear();
        putOps.clear();
        for (std::size_t j = 0; j < n; ++j) {
            ranks[j] = chooser.next(rng);
            mt::sliceToBytes(keyOfRank(ranks[j], spec.scrambleKeys),
                             keyBufs[j].data());
            const std::string_view key(keyBufs[j].data(), 8);
            if (putFrac > 0.0 && rng.nextBool(putFrac))
                putOps.push_back({key, &ranks[j], sizeof(ranks[j])});
            else
                getKeys.push_back(key);
        }
        if (!getKeys.empty()) {
            if constexpr (requires { t.multiGet(getKeys, getOut.data()); }) {
                t.multiGet(getKeys, getOut.data());
            } else {
                for (std::size_t j = 0; j < getKeys.size(); ++j) {
                    getOut[j] = nullptr;
                    t.get(getKeys[j], getOut[j]);
                }
            }
        }
        if (!putOps.empty())
            store::installValueBatch(t, putOps, kValueBytes);
        done += n;
    }
}

/** Run @p spec against @p t and report aggregate throughput. Throws
 *  std::invalid_argument when @p spec has no threads. */
template <typename TreeLike>
Result
run(TreeLike &t, const Spec &spec)
{
    if (spec.threads == 0)
        throw std::invalid_argument("ycsb::run needs at least one thread");
    using Clock = std::chrono::steady_clock;
    Barrier barrier(spec.threads);
    std::vector<std::thread> workers;
    workers.reserve(spec.threads);
    std::vector<Clock::time_point> starts(spec.threads), stops(spec.threads);

    for (unsigned tid = 0; tid < spec.threads; ++tid) {
        workers.emplace_back([&t, &spec, &barrier, &starts, &stops, tid] {
            Rng rng(spec.seed * 1000003 + tid);
            const KeyChooser chooser(spec.dist, spec.numKeys, spec.theta,
                                     spec.hotspot);

            barrier.arriveAndWait(); // start line
            starts[tid] = Clock::now();
            if (spec.batchSize > 1 && spec.mix != Mix::kE)
                runOpsBatched(t, spec, rng, chooser);
            else
                runOps(t, spec, rng, chooser);
            stops[tid] = Clock::now();
        });
    }

    for (auto &w : workers)
        w.join();

    // Measure inside the workers: the span from the first thread
    // starting to the last finishing (robust on oversubscribed or
    // single-core machines, where a coordinator thread may not be
    // scheduled while the workers run).
    auto first = starts[0];
    auto last = stops[0];
    for (unsigned tid = 1; tid < spec.threads; ++tid) {
        first = std::min(first, starts[tid]);
        last = std::max(last, stops[tid]);
    }

    Result res;
    res.seconds = std::chrono::duration<double>(last - first).count();
    res.totalOps =
        static_cast<std::uint64_t>(spec.threads) * spec.opsPerThread;
    return res;
}

} // namespace incll::ycsb
