/**
 * @file
 * The one place the value-buffer install protocol is written down.
 *
 * Every store front-end (YCSB preload, the YCSB update path, the
 * examples) used to hand-roll the same four lines: allocate a durable
 * buffer, pmemcpy the payload in, install it under the key, and free the
 * replaced buffer. Centralising it here means a change to the buffer
 * protocol (size, placement, ownership on replace) cannot drift between
 * the driver and the examples.
 *
 * Works against anything exposing the store interface: a
 * DurableMasstree, a TransientMasstree, or a ShardedStore — the
 * key-aware allocValueFor/freeValueFor place the buffer in the pool of
 * the shard that owns the key.
 */
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "nvm/pool.h"
#include "obs/metrics.h"

namespace incll::store {

/**
 * Allocate a @p bufferBytes durable buffer in @p key's owning shard,
 * copy the first @p payloadBytes of @p payload into it, and install it
 * under @p key. A replaced buffer (update case) is returned to the
 * allocator of the shard it was allocated from.
 *
 * @return true if the key was newly inserted, false if it replaced an
 *         existing value.
 */
template <typename Store>
bool
installValue(Store &s, std::string_view key, const void *payload,
             std::size_t payloadBytes, std::size_t bufferBytes)
{
    if constexpr (requires { s.shard(s.shardOf(key)); }) {
        // Sharded store that can never migrate (hash): resolve the
        // owning shard once and install against its tree directly —
        // alloc, put and free all route to the same shard, so hashing
        // the key three times would be waste. A range-placed store
        // instead goes through the store's own
        // gate-checked put: a direct tree install could race a
        // migration window's publish and bypass its dual-write, losing
        // the update at the table swap. (Range routing is a binary
        // search over a small table, so the extra routes are cheap.)
        if (!s.migrationPossible()) {
            // This branch bypasses s.put() and with it the put
            // histogram; record here so per-op update latency covers
            // the whole install (alloc + copy + tree put).
            obs::ScopedRecordNs rec(s.recordOpLatency(),
                                    obs::Hist::kStorePutNs);
            return installValue(s.shard(s.shardOf(key)).tree(), key,
                                payload, payloadBytes, bufferBytes);
        }
        bool everInserted = false;
        for (;;) {
            const unsigned route = s.shardOf(key);
            void *buf = s.shard(route).tree().allocValue(bufferBytes);
            nvm::pmemcpy(buf, payload, payloadBytes);
            void *old = nullptr;
            everInserted |= s.put(key, buf, &old);
            if (old != nullptr)
                s.freeValueFor(key, old, bufferBytes);
            // If a migration ran to completion between the alloc and
            // the install (window already unpublished at put time), the
            // buffer was allocated in the retiring owner's pool and the
            // new owner's tree now references memory another shard's
            // crash rollback could tear. Detect the route change and
            // re-install a correctly-homed copy — the retry's put
            // replaces (and frees, via the pool-aware freeValueFor) the
            // mis-homed buffer, and the first iteration's insert/update
            // verdict is the logical one. While the window is still
            // published, migrationPut re-homes internally — no retry.
            if (s.shardOf(key) == route || s.inMigrationWindow(key))
                return everInserted;
        }
    } else {
        void *buf = s.allocValueFor(key, bufferBytes);
        nvm::pmemcpy(buf, payload, payloadBytes);
        void *old = nullptr;
        const bool inserted = s.put(key, buf, &old);
        if (!inserted && old != nullptr)
            s.freeValueFor(key, old, bufferBytes);
        return inserted;
    }
}

/** One install of an installValueBatch(): key + payload to copy in. */
struct InstallOp
{
    std::string_view key;
    const void *payload;
    std::size_t payloadBytes;
    /** Out: true iff this install newly inserted its key. */
    bool inserted = false;
};

/**
 * Batched form of installValue(): same buffer protocol (allocate in the
 * owning shard, copy, install, free the replaced buffer), but against a
 * store with multiPut() the installs are grouped by shard and each
 * touched shard's epoch gate is entered once per batch. Allocation and
 * the replaced-buffer frees run outside the gates — only the tree
 * updates need them. Stores without multiPut() fall back to per-key
 * installValue().
 *
 * @return number of newly inserted keys.
 */
template <typename Store>
std::size_t
installValueBatch(Store &s, std::span<InstallOp> ops,
                  std::size_t bufferBytes)
{
    if constexpr (requires(typename Store::PutOp p) { s.multiPut({&p, 1}); }) {
        // Against a store that can migrate, remember each op's routing
        // at allocation time: the batch's placement snapshot can go
        // stale between the allocs and the installs (a migration
        // committing in the gap), and multiPut's per-group fallback
        // handles the *published* window but not a buffer that was
        // homed under the old table and installed after the window
        // retired. Detect exactly that per op below and fall back to
        // the per-op install path, which re-homes and retries.
        const bool canMigrate = [&] {
            if constexpr (requires { s.migrationPossible(); })
                return s.migrationPossible();
            else
                return false;
        }();
        std::vector<typename Store::PutOp> puts(ops.size());
        std::vector<unsigned> allocRoute;
        if (canMigrate)
            allocRoute.resize(ops.size());
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (canMigrate)
                allocRoute[i] = s.shardOf(ops[i].key);
            puts[i].key = ops[i].key;
        }
        // Allocate every buffer for the batch in one allocator batch per
        // touched shard when the store supports it (O(1) shared-list
        // operations per shard instead of per op) — the routes were
        // recorded above, BEFORE the allocs, so the stale-home detection
        // below stays conservative: a migration committing between the
        // recording and the batched alloc makes the check re-install a
        // correctly-homed buffer, never miss a mis-homed one.
        if constexpr (requires(std::span<const std::string_view> ks) {
                          s.allocValuesFor(ks, bufferBytes, &puts[0].val);
                      }) {
            std::vector<std::string_view> keys(ops.size());
            std::vector<void *> bufs(ops.size());
            for (std::size_t i = 0; i < ops.size(); ++i)
                keys[i] = ops[i].key;
            s.allocValuesFor(keys, bufferBytes, bufs.data());
            for (std::size_t i = 0; i < ops.size(); ++i)
                puts[i].val = bufs[i];
        } else {
            for (std::size_t i = 0; i < ops.size(); ++i)
                puts[i].val = s.allocValueFor(ops[i].key, bufferBytes);
        }
        for (std::size_t i = 0; i < ops.size(); ++i)
            nvm::pmemcpy(puts[i].val, ops[i].payload, ops[i].payloadBytes);
        const std::size_t inserted = s.multiPut(puts);
        // Return the replaced buffers the same way: one allocator batch
        // per touched shard. Not-replaced slots pass nullptr, which the
        // batched free skips.
        if constexpr (requires(std::span<const std::string_view> ks,
                               void *const *vs) {
                          s.freeValuesFor(ks, vs, bufferBytes);
                      }) {
            std::vector<std::string_view> keys(ops.size());
            std::vector<void *> olds(ops.size());
            for (std::size_t i = 0; i < ops.size(); ++i) {
                ops[i].inserted = puts[i].inserted;
                keys[i] = ops[i].key;
                olds[i] = puts[i].inserted ? nullptr : puts[i].old;
            }
            s.freeValuesFor(keys, olds.data(), bufferBytes);
        } else {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                ops[i].inserted = puts[i].inserted;
                if (!puts[i].inserted && puts[i].old != nullptr)
                    s.freeValueFor(puts[i].key, puts[i].old, bufferBytes);
            }
        }
        if (canMigrate) {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if constexpr (requires { s.inMigrationWindow(ops[i].key); }) {
                    // Route unchanged: the buffer is correctly homed.
                    // Window still published: migrationPut re-homed it
                    // internally. Otherwise a migration ran to
                    // completion between alloc and install, and the new
                    // owner's tree may reference the retiring owner's
                    // pool — re-install a correctly-homed copy (the
                    // retry replaces and pool-aware-frees the mis-homed
                    // buffer; the insert verdict above stays the
                    // logical one).
                    if (s.shardOf(ops[i].key) != allocRoute[i] &&
                        !s.inMigrationWindow(ops[i].key))
                        installValue(s, ops[i].key, ops[i].payload,
                                     ops[i].payloadBytes, bufferBytes);
                }
            }
        }
        return inserted;
    } else {
        std::size_t inserted = 0;
        for (InstallOp &op : ops) {
            op.inserted = installValue(s, op.key, op.payload,
                                       op.payloadBytes, bufferBytes);
            inserted += op.inserted;
        }
        return inserted;
    }
}

} // namespace incll::store
