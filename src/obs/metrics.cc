/**
 * @file
 * Registry, histogram table and slow-op ring implementation.
 */
#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <utility>

namespace incll::obs {

namespace detail {
thread_local constinit TlsCache tlsCache;
} // namespace detail

/** One thread's counter storage; 64-byte aligned so no two threads'
 *  hot counters share a cache line (sizeof is a multiple of 64). */
struct alignas(kCacheLineSize) Registry::Slab
{
    std::atomic<std::uint64_t> v[kMaxCounters] = {};
};
static_assert(sizeof(Registry::Slab) % kCacheLineSize == 0);
static_assert(alignof(Registry::Slab) == kCacheLineSize);

struct Registry::Core
{
    /** Process-unique generation; the TLS fast-path cache key. A
     *  recycled Core allocation can never match a stale cache entry. */
    static std::atomic<std::uint64_t> nextGen;
    const std::uint64_t gen = nextGen.fetch_add(1, std::memory_order_relaxed);

    mutable std::mutex mu;
    // Names/labels live in a deque so string_views handed out by
    // counters() stay stable across registrations.
    struct Meta
    {
        std::string name;
        int shard;
    };
    std::deque<Meta> meta;
    std::map<std::pair<std::string, int>, CounterId> byKey;
    std::vector<std::unique_ptr<Slab>> owned;
    std::vector<Slab *> live;     ///< slabs of currently-running threads
    std::vector<Slab *> freelist; ///< zeroed slabs of exited threads
    std::uint64_t retired[kMaxCounters] = {};
    std::vector<std::pair<std::string, std::function<double()>>> gauges;

    void
    retireSlab(Slab *s)
    {
        std::lock_guard<std::mutex> lk(mu);
        for (CounterId i = 0; i < kMaxCounters; ++i) {
            retired[i] += s->v[i].load(std::memory_order_relaxed);
            s->v[i].store(0, std::memory_order_relaxed);
        }
        live.erase(std::find(live.begin(), live.end(), s));
        freelist.push_back(s);
    }
};

std::atomic<std::uint64_t> Registry::Core::nextGen{1};

namespace {

/** Per-thread list of (registry core, slab) pairs. The destructor is
 *  the thread-exit hook: fold each slab's values into its registry so
 *  the counts survive the thread, and recycle the slab. The weak_ptr
 *  makes exit safe when a (test-local) registry died first. */
struct TlsSlabs
{
    struct Entry
    {
        std::weak_ptr<Registry::Core> core;
        Registry::Core *corePtr;
        Registry::Slab *slab;
    };
    std::vector<Entry> entries;

    ~TlsSlabs()
    {
        for (Entry &e : entries)
            if (auto c = e.core.lock())
                c->retireSlab(e.slab);
        detail::tlsCache = {};
    }
};

thread_local TlsSlabs tlsSlabs;

} // namespace

Registry::Registry() : core_(std::make_shared<Core>()), gen_(core_->gen) {}

Registry::~Registry() = default;

std::atomic<std::uint64_t> *
Registry::slabSlow()
{
    Core *c = core_.get();
    for (TlsSlabs::Entry &e : tlsSlabs.entries) {
        if (e.corePtr == c) {
            detail::tlsCache = {c->gen, e.slab->v};
            return e.slab->v;
        }
    }
    Slab *s;
    {
        std::lock_guard<std::mutex> lk(c->mu);
        if (!c->freelist.empty()) {
            s = c->freelist.back();
            c->freelist.pop_back();
        } else {
            c->owned.push_back(std::make_unique<Slab>());
            s = c->owned.back().get();
        }
        c->live.push_back(s);
    }
    tlsSlabs.entries.push_back({core_, c, s});
    detail::tlsCache = {c->gen, s->v};
    return s->v;
}

CounterId
Registry::counter(std::string_view name, int shard)
{
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    auto key = std::make_pair(std::string(name), shard);
    auto it = c->byKey.find(key);
    if (it != c->byKey.end())
        return it->second;
    if (c->meta.size() >= kMaxCounters)
        return kMaxCounters; // dropped by add()
    const auto id = static_cast<CounterId>(c->meta.size());
    c->meta.push_back({key.first, shard});
    c->byKey.emplace(std::move(key), id);
    return id;
}

std::uint64_t
Registry::value(CounterId id) const
{
    if (id >= kMaxCounters)
        return 0;
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    std::uint64_t v = c->retired[id];
    for (const Slab *s : c->live)
        v += s->v[id].load(std::memory_order_relaxed);
    return v;
}

std::vector<Registry::CounterValue>
Registry::counters() const
{
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    std::vector<CounterValue> out;
    out.reserve(c->meta.size());
    for (CounterId id = 0; id < c->meta.size(); ++id) {
        std::uint64_t v = c->retired[id];
        for (const Slab *s : c->live)
            v += s->v[id].load(std::memory_order_relaxed);
        out.push_back({c->meta[id].name, c->meta[id].shard, v});
    }
    return out;
}

void
Registry::resetCounters()
{
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    std::memset(c->retired, 0, sizeof(c->retired));
    for (Slab *s : c->live)
        for (CounterId i = 0; i < kMaxCounters; ++i)
            s->v[i].store(0, std::memory_order_relaxed);
}

void
Registry::registerGauge(std::string name, std::function<double()> fn)
{
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    c->gauges.emplace_back(std::move(name), std::move(fn));
}

std::vector<Registry::GaugeValue>
Registry::gauges() const
{
    Core *c = core_.get();
    std::vector<std::pair<std::string, std::function<double()>>> fns;
    {
        std::lock_guard<std::mutex> lk(c->mu);
        fns = c->gauges;
    }
    // Evaluate outside the lock: a gauge callback may itself read
    // counters or take other locks.
    std::vector<GaugeValue> out;
    out.reserve(fns.size());
    for (auto &[name, fn] : fns)
        out.push_back({name, fn ? fn() : 0.0});
    return out;
}

CounterId
Registry::numCounters() const
{
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    return static_cast<CounterId>(c->meta.size());
}

const void *
Registry::debugThreadSlab()
{
    return slab();
}

Registry &
registry()
{
    static Registry r;
    return r;
}

// --- Histogram table ---------------------------------------------------

const char *
histName(Hist h)
{
    switch (h) {
      case Hist::kStoreGetNs:        return "store_get_ns";
      case Hist::kStorePutNs:        return "store_put_ns";
      case Hist::kStoreRemoveNs:     return "store_remove_ns";
      case Hist::kStoreScanNs:       return "store_scan_ns";
      case Hist::kStoreMultiGetNs:   return "store_multiget_ns";
      case Hist::kStoreMultiPutNs:   return "store_multiput_ns";
      case Hist::kServerGetNs:       return "server_get_ns";
      case Hist::kServerPutNs:       return "server_put_ns";
      case Hist::kServerRemoveNs:    return "server_remove_ns";
      case Hist::kServerScanNs:      return "server_scan_ns";
      case Hist::kServerBatchFlushNs: return "server_batch_flush_ns";
      case Hist::kEpochBoundaryNs:   return "hist_epoch_boundary_ns";
      case Hist::kGateWaitNs:        return "hist_gate_wait_ns";
      case Hist::kMigrationPauseNs:  return "migration_pause_ns";
      case Hist::kMigrationGraceNs:  return "migration_grace_ns";
      case Hist::kNumHists:          break;
    }
    return "unknown";
}

Histogram &
hist(Hist h)
{
    static std::array<Histogram, static_cast<unsigned>(Hist::kNumHists)>
        table;
    return table[static_cast<unsigned>(h)];
}

std::uint64_t &
threadGateWaitNs()
{
    thread_local std::uint64_t ns = 0;
    return ns;
}

// --- Slow-op ring ------------------------------------------------------

void
SlowOpRing::record(const char *op, int shard, std::uint64_t seq,
                   std::uint64_t totalNs, std::uint64_t queueNs,
                   std::uint64_t gateNs, std::uint64_t storeNs,
                   std::uint64_t flushNs)
{
    const std::size_t idx =
        head_.fetch_add(1, std::memory_order_relaxed) & (kSlots - 1);
    Slot &s = slots_[idx];
    // Seqlock write: odd version while the payload is inconsistent.
    s.version.fetch_add(1, std::memory_order_acq_rel);
    s.tsNs.store(steadyNowNs(), std::memory_order_relaxed);
    s.op.store(op, std::memory_order_relaxed);
    s.shard.store(shard, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_relaxed);
    s.totalNs.store(totalNs, std::memory_order_relaxed);
    s.queueNs.store(queueNs, std::memory_order_relaxed);
    s.gateNs.store(gateNs, std::memory_order_relaxed);
    s.storeNs.store(storeNs, std::memory_order_relaxed);
    s.flushNs.store(flushNs, std::memory_order_relaxed);
    s.version.fetch_add(1, std::memory_order_release);
}

std::vector<SlowOpRing::Entry>
SlowOpRing::dump() const
{
    std::vector<Entry> out;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t n = head < kSlots ? head : kSlots;
    for (std::uint64_t back = 1; back <= n; ++back) {
        const Slot &s = slots_[(head - back) & (kSlots - 1)];
        const std::uint64_t v0 = s.version.load(std::memory_order_acquire);
        if (v0 == 0 || (v0 & 1))
            continue; // never written, or mid-write
        Entry e;
        e.tsNs = s.tsNs.load(std::memory_order_relaxed);
        e.op = s.op.load(std::memory_order_relaxed);
        e.shard = s.shard.load(std::memory_order_relaxed);
        e.seq = s.seq.load(std::memory_order_relaxed);
        e.totalNs = s.totalNs.load(std::memory_order_relaxed);
        e.queueNs = s.queueNs.load(std::memory_order_relaxed);
        e.gateNs = s.gateNs.load(std::memory_order_relaxed);
        e.storeNs = s.storeNs.load(std::memory_order_relaxed);
        e.flushNs = s.flushNs.load(std::memory_order_relaxed);
        if (s.version.load(std::memory_order_acquire) != v0)
            continue; // overwritten while reading
        out.push_back(e);
    }
    return out;
}

SlowOpRing &
slowOps()
{
    static SlowOpRing ring;
    return ring;
}

} // namespace incll::obs
