/**
 * @file
 * crash_recover: repeated crash drills on tracked pools.
 *
 * 4 range shards over 1M keys in tracked pools, one writer (the main
 * thread), explicit boundaries and no timers, so each cycle's log
 * volume depends only on the seed. A cycle:
 *
 *  1. commits a boundary (advanceEpoch);
 *  2. runs a failed-epoch burst of updates (payload changed), fresh
 *     inserts and removes;
 *  3. crashes every pool, each dirty line surviving with probability
 *     kCrashEviction;
 *  4. recovers through the ShardedStore recovery constructor (timed:
 *     recovery_ms);
 *  5. checks every key against the oracle of the last boundary: every
 *     preloaded key present with its rank as payload, every fresh
 *     insert absent.
 *
 * The committed state is the preload in every cycle, because each
 * burst is rolled back.
 */
#include <algorithm>

#include "common/rng.h"
#include "store/value_util.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace incll;

namespace {

constexpr std::uint64_t kKeys = 1000000;
constexpr std::uint64_t kBurstOps = 200000;
constexpr double kUpdateFrac = 0.6;
constexpr double kInsertFrac = 0.2; ///< the rest are removes
constexpr double kCrashEviction = 0.3;
/** Fewest cycles a phase runs, for the medians. */
constexpr unsigned kMinCycles = 3;
/** A cycle takes about this long on the reference machine; a run does
 *  a fixed number of cycles (--seconds / kCycleSeconds), so its work,
 *  log volume and pool use do not depend on the machine's speed. */
constexpr unsigned kCycleSeconds = 2;

/** Payload a burst update writes: never a key's committed rank. */
std::uint64_t
burstPayload(std::uint64_t rank)
{
    return ~rank;
}

/** What one cycle measured. */
struct Cycle
{
    incll::obs::HistSnapshot burstLat;
    /** Burst latency by op: update, insert, remove. */
    std::array<incll::obs::HistSnapshot, 3> byType;
    incll::obs::HistSnapshot verifyLat;
    double burstSeconds = 0;
    /** From the start of recovery to the last key checked. */
    double serveSeconds = 0;
    std::uint64_t keysChecked = 0;
    double recoveryMs = 0;
    std::uint64_t logApplied = 0;
    std::uint64_t lazyRecoveries = 0;
    Counters burstStart, burstEnd;
    std::uint64_t puts = 0;
};

class Driver
{
  public:
    Driver(const Args &a, std::unique_ptr<store::ShardedStore> st,
           const store::StoreConfig &config)
        : a_(a), st_(std::move(st)), config_(config)
    {
    }

    store::ShardedStore &store() { return *st_; }

    /** Run cycle @p c; @p tr traces its ops when non-null. */
    Cycle
    run(std::uint64_t c, Tracer *tr, Result &r)
    {
        Cycle out;
        st_->advanceEpoch();

        // 2. The failed-epoch burst, with a model of each op's outcome.
        std::uint64_t s = a_.seed ^ (0xa24baed4963ee407ULL * (c + 1));
        Rng rng(splitmix64(s));
        std::vector<bool> removed(kKeys, false);
        std::vector<std::uint64_t> fresh;
        out.burstStart = Counters();
        const std::uint64_t b0 = nowNs();
        for (std::uint64_t i = 0; i < kBurstOps; ++i) {
            const double x = rng.nextDouble();
            const std::uint64_t op = c * kBurstOps + i;
            bool ok = true;
            const unsigned kind =
                x < kUpdateFrac ? 0 : (x < kUpdateFrac + kInsertFrac ? 1 : 2);
            const std::uint64_t t0 = nowNs();
            if (kind < 2) {
                const bool insert = kind == 1;
                const std::uint64_t rank =
                    insert ? kKeys + op : rng.nextBounded(kKeys);
                const std::uint64_t payload =
                    insert ? rank : burstPayload(rank);
                const bool inserted = install(tr, insert, op, rank, payload);
                ok = inserted == (insert || removed[rank]);
                if (insert)
                    fresh.push_back(rank);
                else
                    removed[rank] = false;
                ++out.puts;
            } else {
                const std::uint64_t rank = rng.nextBounded(kKeys);
                ok = remove(tr, op, rank) == !removed[rank];
                removed[rank] = true;
            }
            const std::uint64_t dt = nowNs() - t0;
            out.burstLat.record(dt);
            out.byType[kind].record(dt);
            ++r.attempted;
            r.failed += !ok;
        }
        out.burstSeconds = static_cast<double>(nowNs() - b0) / 1e9;
        out.burstEnd = Counters();

        // 3. Power failure on every pool.
        auto pools = st_->releasePools();
        st_.reset();
        for (auto &p : pools)
            p->crash(kCrashEviction);

        // 4. Recovery.
        const std::uint64_t t0 = nowNs();
        st_ = std::make_unique<store::ShardedStore>(std::move(pools),
                                                    store::kRecover, config_);
        out.recoveryMs = static_cast<double>(nowNs() - t0) / 1e6;
        out.logApplied = st_->lastRecoveryLogApplied();

        // 5. Every key against the oracle of the last boundary.
        const Counters verify;
        for (std::uint64_t rank = 0; rank < kKeys; ++rank) {
            const Key key = keyOf(rank);
            void *val = nullptr;
            const std::uint64_t v0 = nowNs();
            bool hit;
            if (tr != nullptr) {
                tr->beginOp(OpType::kVerify, rank);
                hit = tr->span(SpanName::kStoreGet,
                               [&] { return st_->get(key.view(), val); });
                tr->end();
            } else {
                hit = st_->get(key.view(), val);
            }
            out.verifyLat.record(nowNs() - v0);
            ++r.attempted;
            r.failed += !(hit && loadPayload(val) == rank);
        }
        for (std::uint64_t rank : fresh) {
            void *val = nullptr;
            ++r.attempted;
            r.failed += st_->get(keyOf(rank).view(), val);
        }
        out.serveSeconds = static_cast<double>(nowNs() - t0) / 1e9;
        out.keysChecked = kKeys + fresh.size();
        out.lazyRecoveries = static_cast<std::uint64_t>(
            Counters().since(verify, Stat::kNodeRecoveries));
        return out;
    }

  private:
    /** store::installValue on a store that can migrate, one span per
     *  call when traced. */
    bool
    install(Tracer *tr, bool insert, std::uint64_t op, std::uint64_t rank,
            std::uint64_t payload)
    {
        const Key key = keyOf(rank);
        if (tr == nullptr)
            return store::installValue(*st_, key.view(), &payload,
                                       sizeof(payload), kValueBytes);
        tr->beginOp(insert ? OpType::kInsert : OpType::kUpdate, op);
        const unsigned route = tr->span(SpanName::kStoreShardOf,
                                        [&] { return st_->shardOf(key.view()); });
        auto &tree = st_->shard(route).tree();
        void *buf = tr->span(SpanName::kAllocValue,
                             [&] { return tree.allocValue(kValueBytes); });
        tr->span(SpanName::kPmemcpy,
                 [&] { nvm::pmemcpy(buf, &payload, sizeof(payload)); });
        void *old = nullptr;
        const bool inserted = tr->span(SpanName::kStorePut, [&] {
            return st_->put(key.view(), buf, &old);
        });
        if (old != nullptr)
            tr->span(SpanName::kFreeValueFor, [&] {
                st_->freeValueFor(key.view(), old, kValueBytes);
            });
        // installValue re-checks the route; nothing migrates here.
        tr->span(SpanName::kStoreShardOf,
                 [&] { return st_->shardOf(key.view()); });
        tr->end();
        return inserted;
    }

    bool
    remove(Tracer *tr, std::uint64_t op, std::uint64_t rank)
    {
        const Key key = keyOf(rank);
        void *old = nullptr;
        if (tr != nullptr)
            tr->beginOp(OpType::kRemove, op);
        const bool hit =
            tr == nullptr
                ? st_->remove(key.view(), &old)
                : tr->span(SpanName::kStoreRemove,
                           [&] { return st_->remove(key.view(), &old); });
        if (hit && old != nullptr) {
            if (tr == nullptr)
                st_->freeValueFor(key.view(), old, kValueBytes);
            else
                tr->span(SpanName::kFreeValueFor, [&] {
                    st_->freeValueFor(key.view(), old, kValueBytes);
                });
        }
        if (tr != nullptr)
            tr->end();
        return hit;
    }

    const Args &a_;
    std::unique_ptr<store::ShardedStore> st_;
    const store::StoreConfig config_;
};

/** Run @p n cycles. */
std::vector<Cycle>
runCycles(Driver &d, std::uint64_t &next, unsigned n, Tracer *tr, Result &r)
{
    std::vector<Cycle> out;
    while (out.size() < n)
        out.push_back(d.run(next++, tr, r));
    return out;
}

double
medianOf(const std::vector<Cycle> &cs, double (*f)(const Cycle &))
{
    std::vector<double> v;
    for (const Cycle &c : cs)
        v.push_back(f(c));
    return median(std::move(v));
}

} // namespace

Result
runCrashRecover(const Args &a)
{
    Result r;
    StoreShape shape{4, true, kKeys, nvm::Mode::kTracked};
    shape.poolSeed = a.seed;
    std::unique_ptr<store::ShardedStore> st;
    std::vector<double> setups;
    for (unsigned i = 0; i < (a.trace ? 1 : kSetups); ++i) {
        st.reset();
        const std::uint64_t t0 = nowNs();
        st = buildStore(shape);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    Driver d(a, std::move(st), storeOptions(shape).config);

    std::uint64_t next = 0;
    d.run(next++, nullptr, r); // warm-up cycle
    const unsigned cycles = std::max(
        kMinCycles, (a.trace ? a.seconds / 2 : a.seconds) / kCycleSeconds);
    const std::vector<Cycle> timed = runCycles(d, next, cycles, nullptr, r);
    r.correct = r.failed == 0;

    // The ops a user waits on here are the reads of the recovered store:
    // throughput counts every key checked per second from the start of
    // recovery, so a slower recovery lowers it. The burst is set-up for
    // the crash; its write path runs on tracked pools, whose bookkeeping
    // would dominate (it is reported per op type below).
    auto rate = [](const Cycle &c) { return c.keysChecked / c.serveSeconds; };
    auto burstRate = [](const Cycle &c) {
        return kBurstOps / c.burstSeconds;
    };
    // A percentile of each cycle, in µs, and its median over cycles.
    auto pcts = [](const std::vector<Cycle> &cs,
                   const obs::HistSnapshot Cycle::*h, double p) {
        std::vector<double> v;
        for (const Cycle &c : cs)
            v.push_back((c.*h).percentile(p) / 1000.0);
        return v;
    };
    auto pct = [&](const std::vector<Cycle> &cs,
                   const obs::HistSnapshot Cycle::*h, double p) {
        return median(pcts(cs, h, p));
    };
    auto typePct = [](const std::vector<Cycle> &cs, unsigned kind, double p) {
        std::vector<double> v;
        for (const Cycle &c : cs)
            v.push_back(c.byType[kind].percentile(p) / 1000.0);
        return median(std::move(v));
    };
    const double used = static_cast<double>(poolUsedBytes(d.store()));
    // The gated figures take the faster cycles, as the other workloads
    // take the faster rounds.
    E2e e;
    for (const Cycle &c : timed)
        e.roundRates.push_back(rate(c));
    e.throughput = steadyRate(e.roundRates);
    e.roundP50 = pcts(timed, &Cycle::verifyLat, 50);
    e.roundP99 = pcts(timed, &Cycle::verifyLat, 99);
    e.opP50 = steadyLatency(e.roundP50);
    e.opP99 = steadyLatency(e.roundP99);
    e.spaceAmp = used / (static_cast<double>(kKeys) * 16.0);
    e.setupS = median(setups);
    const double recoveryMs =
        medianOf(timed, +[](const Cycle &c) { return c.recoveryMs; });
    e.named = {{"recovery_ms", recoveryMs, "ms"},
               {"burst_ops_s", medianOf(timed, +burstRate), "ops/s"},
               {"burst_op_p50_us", pct(timed, &Cycle::burstLat, 50), "us"},
               {"burst_op_p99_us", pct(timed, &Cycle::burstLat, 99), "us"},
               {"put_p50_us", typePct(timed, 0, 50), "us"},
               {"put_p99_us", typePct(timed, 0, 99), "us"},
               {"insert_p50_us", typePct(timed, 1, 50), "us"},
               {"remove_p50_us", typePct(timed, 2, 50), "us"},
               {"cycles", static_cast<double>(timed.size()), "count"},
               {"log_entries_applied",
                medianOf(timed, +[](const Cycle &c) {
                    return static_cast<double>(c.logApplied);
                }),
                "count"}};
    if (!a.trace) {
        std::printf("# per-cycle recovery_ms:");
        for (const Cycle &c : timed)
            std::printf(" %.3f", c.recoveryMs);
        std::printf("\n");
        finishE2e(r, e, setups);
        return r;
    }

    Tracer tr;
    const Counters phase;
    const std::uint64_t p0 = nowNs();
    const std::vector<Cycle> traced =
        runCycles(d, next, cycles, &tr, r);
    const double secs = static_cast<double>(nowNs() - p0) / 1e9;
    const Counters phaseEnd;
    r.correct = r.failed == 0;

    // Burst counters (the write path) summed over the traced cycles.
    double ops = 0, puts = 0;
    for (const Cycle &c : traced) {
        ops += kBurstOps;
        puts += static_cast<double>(c.puts);
    }
    auto b = [&](Stat s) {
        double sum = 0;
        for (const Cycle &c : traced)
            sum += c.burstEnd.since(c.burstStart, s);
        return sum;
    };
    auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
    auto ph = [&](Stat s) { return phaseEnd.since(phase, s); };
    auto spanP = [&](OpType t, SpanName n, double p) {
        return tr.agg(t, n).dur.percentile(p);
    };
    std::map<std::string, double> v;
    v["nvm.sfence_per_op"] = per(b(Stat::kSfence), ops);
    v["nvm.clwb_per_op"] = per(b(Stat::kClwb), ops);
    v["nvm.wbinvd_per_s"] = ph(Stat::kWbinvd) / secs;
    v["nvm.pool_used_mb"] = used / (1 << 20);
    v["masstree.incll_per_put"] =
        per(b(Stat::kInCllPerm) + b(Stat::kInCllVal), puts);
    v["masstree.lazy_recoveries"] = medianOf(traced, +[](const Cycle &c) {
        return static_cast<double>(c.lazyRecoveries);
    });
    v["log.nodes_per_put"] = per(b(Stat::kNodesLogged), puts);
    v["log.bytes_per_put"] = per(b(Stat::kLogBytes), puts);
    v["log.entries_applied"] = medianOf(traced, +[](const Cycle &c) {
        return static_cast<double>(c.logApplied);
    });
    v["log.reserved_mb"] =
        static_cast<double>(logReservedBytes(shape)) / (1 << 20);
    v["alloc.alloc_p50_ns"] = spanP(OpType::kUpdate, SpanName::kAllocValue, 50);
    v["alloc.free_p50_ns"] =
        spanP(OpType::kUpdate, SpanName::kFreeValueFor, 50);
    v["alloc.fast_path_frac"] = per(b(Stat::kAllocFastPathHits), b(Stat::kAllocs));
    v["alloc.cas_retries_per_alloc"] =
        per(b(Stat::kAllocCasRetries), b(Stat::kAllocs));
    v["epoch.boundary_ms"] =
        per(ph(Stat::kEpochBoundaryNs), ph(Stat::kEpochAdvances)) / 1e6;
    v["epoch.advances_per_s"] = ph(Stat::kEpochAdvances) / secs;
    v["store.recovery_ms"] =
        medianOf(traced, +[](const Cycle &c) { return c.recoveryMs; });
    // Tracing covers the burst and the verify pass; compare burst rates.
    v["bench.trace_overhead_frac"] =
        1.0 - medianOf(traced, +burstRate) / medianOf(timed, +burstRate);

    printSelfTimeLedger(tr, {{"update", typePct(timed, 0, 50)},
                             {"insert", typePct(timed, 1, 50)},
                             {"remove", typePct(timed, 2, 50)},
                             {"verify_get", e.opP50}});
    writeSpans(tr, a.outDir + "/spans-" + a.workload + "-seed" +
                       std::to_string(a.seed) + ".tsv");
    finishLayerMetrics(r, v);
    return r;
}

} // namespace perfbench
