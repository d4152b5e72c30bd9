/**
 * @file
 * The in-process workloads: ycsb_a_zipf and scan_range.
 *
 * Both run closed loop from worker threads that call the store directly
 * (worker 0 is the main thread), with one EpochService thread driving
 * 16 ms epochs. A run is a warm-up, then the timed phase cut into
 * one-second rounds. An untraced run gives each of the kSetups stores it
 * builds an equal share of the rounds, so one store's memory layout and
 * thread placement weigh a third. A traced run splits the timed phase
 * of its one store into an untraced half and a traced half over the
 * same input streams, so the two can be compared.
 */
#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "common/zipf.h"
#include "service/epoch_service.h"
#include "store/value_util.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace incll;

namespace {

constexpr unsigned kWorkers = 3;
constexpr unsigned kScanLength = 10;

/** Which phase of one store's share of the run an op started in. */
struct Schedule
{
    std::uint64_t warmStart;
    std::uint64_t timedStart;
    std::uint64_t tracedStart; ///< == end when the run is untraced
    std::uint64_t end;
    /** Index in the run's timed rounds of this share's first round. */
    unsigned firstRound;

    Schedule(unsigned timedRounds, unsigned first, unsigned tracedRounds)
    {
        warmStart = nowNs() + 1'000'000;
        timedStart = warmStart + kWarmupNs;
        tracedStart = timedStart + timedRounds * kRoundNs;
        end = tracedStart + tracedRounds * kRoundNs;
        firstRound = first;
    }
};

/** The sorted key universe, for checking scans exactly. */
struct ScanOracle
{
    std::vector<std::uint64_t> sorted; ///< keyU64 of every rank, ascending
    std::vector<std::uint32_t> pos;    ///< rank -> index in sorted

    explicit ScanOracle(std::uint64_t n)
    {
        std::vector<std::pair<std::uint64_t, std::uint32_t>> kr(n);
        for (std::uint64_t r = 0; r < n; ++r)
            kr[r] = {keyU64(r), static_cast<std::uint32_t>(r)};
        std::sort(kr.begin(), kr.end());
        sorted.resize(n);
        pos.resize(n);
        for (std::uint64_t i = 0; i < n; ++i) {
            sorted[i] = kr[i].first;
            pos[kr[i].second] = static_cast<std::uint32_t>(i);
        }
    }
};

struct ScanOut
{
    std::uint64_t key[kScanLength];
    std::uint64_t payload[kScanLength];
    std::size_t n = 0;

    void
    add(std::string_view k, void *v)
    {
        if (n < kScanLength) {
            key[n] = decodeKey(k);
            payload[n] = loadPayload(v);
        }
        ++n;
    }
};

/**
 * A scan from @p rank's key is correct when it returns the next keys of
 * the sorted universe, each with its rank as payload. A whole-store
 * scan returns its limit (fewer only at the end of the key space); a
 * scan of one shard's tree may stop early only where the next key
 * belongs to another shard.
 */
bool
scanCorrect(const ScanOracle &o, std::uint64_t rank, const ScanOut &s,
            store::ShardedStore &st, int shard)
{
    const std::size_t idx = o.pos[rank];
    const std::size_t expected =
        std::min<std::size_t>(kScanLength, o.sorted.size() - idx);
    if (s.n > expected || s.n == 0)
        return false;
    if (s.n < expected) {
        if (shard < 0)
            return false;
        Key next;
        mt::sliceToBytes(o.sorted[idx + s.n], next.b);
        if (st.shardOf(next.view()) == static_cast<unsigned>(shard))
            return false;
    }
    for (std::size_t j = 0; j < s.n; ++j) {
        if (s.key[j] != o.sorted[idx + j] || keyU64(s.payload[j]) != s.key[j])
            return false;
    }
    return true;
}

/** Everything one worker measured. */
struct WorkerOut
{
    WorkerOut(unsigned timedRounds, unsigned tracedRounds)
    {
        for (auto &r : timed)
            r = Rounds(timedRounds);
        for (auto &r : traced)
            r = Rounds(tracedRounds);
    }

    std::array<Rounds, static_cast<unsigned>(OpType::kNum)> timed;
    std::array<Rounds, static_cast<unsigned>(OpType::kNum)> traced;
    Tracer tracer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** Counter and service snapshots at the phase boundaries. */
struct PhaseMarks
{
    Counters stats;
    service::EpochService::ShardCounters svc{};
    std::uint64_t at = 0;
};

enum class Mix { kYcsbA, kScan };

struct Workload
{
    Mix mix;
    StoreShape shape;
};

/** One worker's closed loop over every phase of the schedule; @p stream
 *  picks its input stream. */
void
workerLoop(const Workload &w, store::ShardedStore &st, const Schedule &sch,
           const KeyChooser &chooser, const ScanOracle *oracle,
           std::uint64_t seed, unsigned stream, WorkerOut &out,
           service::EpochService &svc, std::array<PhaseMarks, 3> *marks)
{
    std::uint64_t s = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    Rng rng(splitmix64(s));
    Tracer &tr = out.tracer;
    unsigned markIdx = 0;
    const std::uint64_t markAt[3] = {sch.timedStart, sch.tracedStart,
                                     sch.end};
    while (nowNs() < sch.warmStart) {
    }
    for (std::uint64_t op = 0;; ++op) {
        const std::uint64_t t = nowNs();
        if (marks != nullptr && markIdx < 3 && t >= markAt[markIdx]) {
            // Worker 0 snapshots the counters as it crosses a phase
            // boundary (no extra observer thread).
            auto &m = (*marks)[markIdx++];
            m.stats = Counters();
            m.svc = svc.totalCounters();
            m.at = t;
        }
        if (t >= sch.end)
            break;
        const bool traced = t >= sch.tracedStart;
        const bool timed = !traced && t >= sch.timedStart;
        const std::uint64_t base = traced ? sch.tracedStart : sch.timedStart;
        const auto round =
            (traced ? 0 : sch.firstRound) +
            static_cast<unsigned>(t >= base ? (t - base) / kRoundNs : 0);
        auto &lat = traced ? out.traced : out.timed;
        ++out.attempted;

        if (w.mix == Mix::kScan) {
            const std::uint64_t rank = chooser.next(rng);
            const Key key = keyOf(rank);
            ScanOut so;
            auto cb = [&so](std::string_view k, void *v) { so.add(k, v); };
            int shard = -1;
            const std::uint64_t t0 = nowNs();
            if (!traced) {
                st.scan(key.view(), kScanLength, cb);
            } else {
                tr.beginOp(op % 2 == 0 ? OpType::kStoreScan : OpType::kScan,
                           op);
                if (op % 2 == 0) {
                    tr.span(SpanName::kStoreScan, [&] {
                        return st.scan(key.view(), kScanLength, cb);
                    });
                } else {
                    shard = static_cast<int>(tr.span(
                        SpanName::kStoreShardOf,
                        [&] { return st.shardOf(key.view()); }));
                    auto &tree = st.shard(static_cast<unsigned>(shard)).tree();
                    tr.span(SpanName::kTreeScan, [&] {
                        return tree.scan(key.view(), kScanLength, cb);
                    });
                }
                tr.end();
            }
            const std::uint64_t t1 = nowNs();
            if (timed || traced)
                lat[static_cast<unsigned>(OpType::kScan)].record(round,
                                                                 t1 - t0);
            out.failed += !scanCorrect(*oracle, rank, so, st, shard);
            continue;
        }

        const std::uint64_t rank = chooser.next(rng);
        const Key key = keyOf(rank);
        if (rng.nextBool(0.5)) {
            // Update through the store's install protocol.
            bool inserted = false;
            const std::uint64_t t0 = nowNs();
            if (!traced) {
                inserted = store::installValue(st, key.view(), &rank,
                                               sizeof(rank), kValueBytes);
            } else {
                // installValue on a store that cannot migrate, one span
                // per call it makes.
                tr.beginOp(OpType::kUpdate, op);
                const unsigned idx = tr.span(SpanName::kStoreShardOf, [&] {
                    return st.shardOf(key.view());
                });
                auto &tree = st.shard(idx).tree();
                void *buf = tr.span(SpanName::kAllocValue, [&] {
                    return tree.allocValue(kValueBytes);
                });
                tr.span(SpanName::kPmemcpy, [&] {
                    nvm::pmemcpy(buf, &rank, sizeof(rank));
                });
                void *old = nullptr;
                inserted = tr.span(SpanName::kTreePut, [&] {
                    return tree.put(key.view(), buf, &old);
                });
                if (!inserted && old != nullptr)
                    tr.span(SpanName::kFreeValue, [&] {
                        tree.freeValue(old, kValueBytes);
                    });
                tr.end();
            }
            const std::uint64_t t1 = nowNs();
            if (timed || traced)
                lat[static_cast<unsigned>(OpType::kUpdate)].record(round,
                                                                   t1 - t0);
            out.failed += inserted; // every key was preloaded
            continue;
        }

        // Get, holding the owning shard's gate while the payload is read
        // (a concurrent update frees the old buffer at the next boundary).
        bool hit = false;
        std::uint64_t payload = 0;
        void *val = nullptr;
        const std::uint64_t t0 = nowNs();
        if (!traced) {
            EpochGate::Guard g(
                st.shard(st.shardOf(key.view())).tree().epochs().gate());
            hit = st.get(key.view(), val);
            if (hit)
                payload = loadPayload(val);
        } else {
            tr.beginOp(op % 2 == 0 ? OpType::kStoreGet : OpType::kGet, op);
            const unsigned idx = tr.span(SpanName::kStoreShardOf,
                                         [&] { return st.shardOf(key.view()); });
            auto &tree = st.shard(idx).tree();
            EpochGate &gate = tree.epochs().gate();
            tr.span(SpanName::kEpochGateEnter, [&] { gate.enter(); });
            // Alternate ops time the store's get and the owning tree's
            // get; their p50 difference is the store's overhead.
            if (op % 2 == 0)
                hit = tr.span(SpanName::kStoreGet,
                              [&] { return st.get(key.view(), val); });
            else
                hit = tr.span(SpanName::kTreeGet,
                              [&] { return tree.get(key.view(), val); });
            if (hit)
                payload = loadPayload(val);
            gate.exit();
            tr.end();
        }
        const std::uint64_t t1 = nowNs();
        if (timed || traced)
            lat[static_cast<unsigned>(OpType::kGet)].record(round, t1 - t0);
        out.failed += !(hit && payload == rank);
    }
}

Result
runInProcess(const Args &a, const Workload &w)
{
    Result r;
    // Inputs first: they are not part of set-up.
    const KeyChooser chooser(w.mix == Mix::kYcsbA ? KeyChooser::Dist::kZipfian
                                                  : KeyChooser::Dist::kUniform,
                             w.shape.keys, 0.99);
    std::unique_ptr<ScanOracle> oracle;
    if (w.mix == Mix::kScan)
        oracle = std::make_unique<ScanOracle>(w.shape.keys);

    StoreShape shape = w.shape;
    shape.recordOpLatency = false;
    service::EpochService::Options so;
    so.threads = kServiceThreads;
    so.interval = kEpochInterval;
    const unsigned timedRounds =
        a.trace ? std::max(1u, a.seconds / 2) : a.seconds;
    const unsigned tracedRounds = a.trace ? a.seconds - timedRounds : 0;
    std::vector<std::unique_ptr<WorkerOut>> outs;
    for (unsigned i = 0; i < kWorkers; ++i)
        outs.push_back(std::make_unique<WorkerOut>(timedRounds, tracedRounds));
    std::array<PhaseMarks, 3> marks;

    std::unique_ptr<store::ShardedStore> st;
    std::vector<double> setups;
    const unsigned stores = a.trace ? 1 : kSetups;
    unsigned firstRound = 0;
    for (unsigned i = 0; i < stores; ++i) {
        st.reset();
        const std::uint64_t t0 = nowNs();
        st = buildStore(shape);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        const unsigned share =
            a.trace ? timedRounds : (timedRounds - firstRound) / (stores - i);
        if (share == 0 && tracedRounds == 0)
            continue;

        service::EpochService svc(*st, so);
        svc.start();
        const Schedule sch(share, firstRound, tracedRounds);
        std::vector<std::thread> threads;
        for (unsigned k = 1; k < kWorkers; ++k)
            threads.emplace_back([&, k] {
                workerLoop(w, *st, sch, chooser, oracle.get(), a.seed,
                           i * kWorkers + k, *outs[k], svc, nullptr);
            });
        workerLoop(w, *st, sch, chooser, oracle.get(), a.seed, i * kWorkers,
                   *outs[0], svc, &marks);
        for (auto &t : threads)
            t.join();
        svc.stop();
        firstRound += share;
    }

    WorkerOut all(timedRounds, tracedRounds);
    for (auto &o : outs) {
        for (unsigned t = 0; t < all.timed.size(); ++t) {
            all.timed[t].merge(o->timed[t]);
            all.traced[t].merge(o->traced[t]);
        }
        all.tracer.merge(o->tracer);
        all.attempted += o->attempted;
        all.failed += o->failed;
    }
    r.attempted = all.attempted;
    r.failed = all.failed;
    r.correct = all.failed == 0;

    auto at = [&](OpType t) -> Rounds & {
        return all.timed[static_cast<unsigned>(t)];
    };
    Rounds ops(timedRounds);
    for (auto &rd : all.timed)
        ops.merge(rd);
    const double liveBytes = static_cast<double>(w.shape.keys) * 16.0;
    const double used = static_cast<double>(poolUsedBytes(*st));

    E2e e;
    e.roundRates = ops.rates();
    e.throughput = steadyRate(e.roundRates);
    e.roundP50 = ops.pctUs(50);
    e.roundP99 = ops.pctUs(99);
    e.opP50 = steadyLatency(e.roundP50);
    e.opP99 = steadyLatency(e.roundP99);
    e.spaceAmp = used / liveBytes;
    e.setupS = median(setups);
    if (w.mix == Mix::kYcsbA) {
        e.named = {{"get_p50_us", at(OpType::kGet).steadyPctUs(50), "us"},
                   {"get_p99_us", at(OpType::kGet).steadyPctUs(99), "us"},
                   {"put_p50_us", at(OpType::kUpdate).steadyPctUs(50), "us"},
                   {"put_p99_us", at(OpType::kUpdate).steadyPctUs(99), "us"}};
    } else {
        e.named = {{"scan_p50_us", at(OpType::kScan).steadyPctUs(50), "us"},
                   {"scan_p99_us", at(OpType::kScan).steadyPctUs(99), "us"}};
    }

    if (!a.trace) {
        finishE2e(r, e, setups);
        return r;
    }

    // Per-layer metrics over the traced phase.
    const double secs = static_cast<double>(marks[2].at - marks[1].at) / 1e9;
    auto d = [&](Stat s) {
        return marks[2].stats.since(marks[1].stats, s);
    };
    auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
    Rounds tracedOps(tracedRounds);
    for (auto &rd : all.traced)
        tracedOps.merge(rd);
    const double nOps = static_cast<double>(tracedOps.count());
    const double puts = static_cast<double>(
        all.traced[static_cast<unsigned>(OpType::kUpdate)].count());
    const Tracer &tc = all.tracer;
    auto p = [&](OpType t, SpanName n, double pct) {
        return tc.agg(t, n).dur.percentile(pct);
    };
    std::map<std::string, double> v;
    v["nvm.sfence_per_op"] = per(d(Stat::kSfence), nOps);
    v["nvm.clwb_per_op"] = per(d(Stat::kClwb), nOps);
    v["nvm.wbinvd_per_s"] = d(Stat::kWbinvd) / secs;
    v["nvm.pool_used_mb"] = used / (1 << 20);
    v["masstree.incll_per_put"] =
        per(d(Stat::kInCllPerm) + d(Stat::kInCllVal), puts);
    v["log.nodes_per_put"] = per(d(Stat::kNodesLogged), puts);
    v["log.bytes_per_put"] = per(d(Stat::kLogBytes), puts);
    v["log.reserved_mb"] =
        static_cast<double>(logReservedBytes(w.shape)) / (1 << 20);
    v["alloc.fast_path_frac"] =
        per(d(Stat::kAllocFastPathHits), d(Stat::kAllocs));
    v["alloc.cas_retries_per_alloc"] =
        per(d(Stat::kAllocCasRetries), d(Stat::kAllocs));
    v["epoch.boundary_ms"] =
        per(d(Stat::kEpochBoundaryNs), d(Stat::kEpochAdvances)) / 1e6;
    v["epoch.advances_per_s"] = d(Stat::kEpochAdvances) / secs;
    v["epoch.gate_wait_frac"] = d(Stat::kGateWaitNs) / (secs * 1e9 * kWorkers);
    v["service.busy_frac"] =
        static_cast<double>(marks[2].svc.boundaryNs - marks[1].svc.boundaryNs) /
        (secs * 1e9);
    if (w.mix == Mix::kYcsbA) {
        v["masstree.get_p50_ns"] = p(OpType::kGet, SpanName::kTreeGet, 50);
        v["masstree.put_p50_ns"] = p(OpType::kUpdate, SpanName::kTreePut, 50);
        v["masstree.put_p99_ns"] = p(OpType::kUpdate, SpanName::kTreePut, 99);
        v["alloc.alloc_p50_ns"] = p(OpType::kUpdate, SpanName::kAllocValue, 50);
        v["alloc.free_p50_ns"] = p(OpType::kUpdate, SpanName::kFreeValue, 50);
        v["store.get_overhead_ns"] =
            p(OpType::kStoreGet, SpanName::kStoreGet, 50) -
            v["masstree.get_p50_ns"];
    } else {
        v["masstree.scan_p50_ns"] = p(OpType::kScan, SpanName::kTreeScan, 50);
        v["store.scan_overhead_ns"] = p(OpType::kStoreScan, SpanName::kStoreScan, 50) -
                                      v["masstree.scan_p50_ns"];
        v["store.shards_per_scan"] =
            per(d(Stat::kScanShardsEntered), d(Stat::kScans));
    }
    v["bench.trace_overhead_frac"] =
        1.0 - steadyRate(tracedOps.rates()) / e.throughput;

    // The untraced run calls the store: its p50 stands beside both
    // traced forms.
    std::map<std::string, double> untracedP50;
    for (auto [t, u] : {std::pair{OpType::kGet, OpType::kGet},
                        {OpType::kStoreGet, OpType::kGet},
                        {OpType::kUpdate, OpType::kUpdate},
                        {OpType::kScan, OpType::kScan},
                        {OpType::kStoreScan, OpType::kScan}})
        if (at(u).count() > 0)
            untracedP50[opTypeName(t)] = at(u).steadyPctUs(50);
    printSelfTimeLedger(tc, untracedP50);
    writeSpans(tc, a.outDir + "/spans-" + a.workload + "-seed" +
                       std::to_string(a.seed) + ".tsv");
    finishLayerMetrics(r, v);
    return r;
}

} // namespace

Result
runYcsbA(const Args &a)
{
    return runInProcess(a, {Mix::kYcsbA, {1, false, 1000000}});
}

Result
runScanRange(const Args &a)
{
    return runInProcess(a, {Mix::kScan, {4, true, 2000000}});
}

} // namespace perfbench
