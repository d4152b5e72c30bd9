/**
 * @file
 * EpochService walkthrough: asynchronous per-shard epoch maintenance
 * over a ShardedStore, plus the batched front-end API.
 *
 * Demonstrates what the service layer adds on top of per-shard timers:
 *  - boundaries run on a small maintenance pool, off the request path:
 *    writers keep executing while one shard at a time quiesces;
 *  - advanceAllAndWait() is a whole-store checkpoint barrier;
 *  - write backpressure: when a shard's external log outruns its async
 *    advance, batched writers are throttled until an urgent boundary
 *    catches the shard up;
 *  - multiGet/multiPut group keys by shard and enter each shard's
 *    (re-entrant) epoch gate once per batch.
 *
 * Build & run:  ./examples/epoch_service
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "service/epoch_service.h"
#include "store/sharded_store.h"
#include "store/value_util.h"

using incll::service::EpochService;
using incll::store::ShardedStore;

namespace {

std::string
key(unsigned id)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "user/%08u", id);
    return buf;
}

} // namespace

int
main()
{
    ShardedStore::Options o;
    o.shards = 4;
    o.mode = incll::nvm::Mode::kDirect;
    o.poolBytesPerShard = std::size_t{1} << 26;
    ShardedStore db(o);

    EpochService::Options so;
    so.threads = 2;
    so.interval = std::chrono::milliseconds(8);
    so.maxLogBytesPerEpoch = 1u << 20; // throttle at 1 MiB of log debt
    EpochService service(db, so);
    service.start();
    std::printf("4 shards, %u service threads, %lld ms epochs\n",
                so.threads, static_cast<long long>(so.interval.count()));

    // Batched writes: one gate entry per touched shard per batch. The
    // service's backpressure hook runs automatically before each write
    // group.
    constexpr unsigned kUsers = 20000;
    constexpr unsigned kBatch = 64;
    std::vector<std::string> keys;
    keys.reserve(kUsers);
    for (unsigned id = 0; id < kUsers; ++id)
        keys.push_back(key(id));
    std::vector<incll::store::InstallOp> batch;
    std::vector<std::uint64_t> balances(kBatch); // payloads live across the call
    for (unsigned base = 0; base < kUsers; base += kBatch) {
        batch.clear();
        for (unsigned id = base; id < base + kBatch && id < kUsers; ++id) {
            balances[id - base] = 100 * id;
            batch.push_back(
                {keys[id], &balances[id - base], sizeof(std::uint64_t)});
        }
        incll::store::installValueBatch(db, batch, 32);
    }
    std::printf("installed %u users in batches of %u\n", kUsers, kBatch);

    // Whole-store checkpoint barrier through the service threads.
    service.advanceAllAndWait();
    std::printf("checkpoint barrier done; per-shard boundaries so far:\n");
    for (unsigned s = 0; s < db.shardCount(); ++s) {
        const auto c = service.counters(s);
        std::printf("  shard %u: %llu advances, %.2f ms boundary time, "
                    "%llu throttle stalls\n",
                    s, static_cast<unsigned long long>(c.advances),
                    c.boundaryNs / 1e6,
                    static_cast<unsigned long long>(c.throttleStalls));
    }

    // Batched reads: multiGet fills one slot per key, nullptr = miss.
    std::vector<std::string_view> lookup;
    for (unsigned id = 0; id < 8; ++id)
        lookup.push_back(keys[id * 1000]);
    lookup.push_back("user/unknown");
    std::vector<void *> vals(lookup.size());
    const std::size_t hits = db.multiGet(lookup, vals.data());
    std::printf("multiGet: %zu/%zu hits\n", hits, lookup.size());
    for (std::size_t i = 0; i + 1 < lookup.size(); ++i) {
        std::uint64_t balance;
        std::memcpy(&balance, vals[i], sizeof(balance));
        std::printf("  %.*s -> balance %llu\n",
                    static_cast<int>(lookup[i].size()), lookup[i].data(),
                    static_cast<unsigned long long>(balance));
    }

    // A merged scan holds every shard's gate across its callbacks, so
    // the value pointers it hands out stay dereferenceable even while
    // the service keeps advancing other work.
    std::uint64_t total = 0;
    std::size_t seen = 0;
    db.scan("user/", 100, [&](std::string_view, void *v) {
        std::uint64_t balance;
        std::memcpy(&balance, v, sizeof(balance));
        total += balance;
        ++seen;
    });
    std::printf("scan: first %zu users, balance sum %llu\n", seen,
                static_cast<unsigned long long>(total));

    service.stop();
    const auto c = service.totalCounters();
    std::printf("service total: %llu advances, %.2f ms boundary time, "
                "%llu idle boundaries skipped\n",
                static_cast<unsigned long long>(c.advances),
                c.boundaryNs / 1e6,
                static_cast<unsigned long long>(c.idleSkips));

    const bool ok = hits == lookup.size() - 1 && seen == 100;
    std::printf("%s\n", ok ? "async epochs + batched ops — OK"
                           : "UNEXPECTED state");
    return ok ? 0 : 1;
}
