/**
 * @file
 * Event counter store: per-thread slabs and the labelled children.
 */
#include "common/stats.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

namespace incll {

const char *
statName(Stat s)
{
    switch (s) {
      case Stat::kClwb:           return "clwb";
      case Stat::kSfence:         return "sfence";
      case Stat::kWbinvd:         return "wbinvd";
      case Stat::kLinesFlushed:   return "lines_flushed";
      case Stat::kNodesLogged:    return "nodes_logged";
      case Stat::kInCllPerm:      return "incll_perm_uses";
      case Stat::kInCllVal:       return "incll_val_uses";
      case Stat::kLogBytes:       return "log_bytes";
      case Stat::kEpochAdvances:  return "epoch_advances";
      case Stat::kEpochIdleSkips: return "epoch_idle_skips";
      case Stat::kEpochBoundaryNs: return "epoch_boundary_ns";
      case Stat::kGateWaitNs:     return "gate_wait_ns";
      case Stat::kNodeRecoveries: return "node_recoveries";
      case Stat::kAllocs:         return "allocs";
      case Stat::kFrees:          return "frees";
      case Stat::kScans:          return "scans";
      case Stat::kScanShardsEntered: return "scan_shards_entered";
      case Stat::kRebalances:     return "rebalances";
      case Stat::kRebalanceKeysMoved: return "rebalance_keys_moved";
      case Stat::kRebalanceBytesMoved: return "rebalance_bytes_moved";
      case Stat::kRebalancePauseNs: return "rebalance_pause_ns";
      case Stat::kRebalanceGraceNs: return "rebalance_grace_ns";
      case Stat::kTopologyMerges:  return "topology_merges";
      case Stat::kTopologyAdds:    return "topology_adds";
      case Stat::kTopologyRetires: return "topology_retires";
      case Stat::kServerRequests: return "server_requests";
      case Stat::kServerBatches:  return "server_batches";
      case Stat::kServerSends:    return "server_sends";
      case Stat::kServerBatchedOps: return "server_batched_ops";
      case Stat::kServerCrashes:  return "server_crashes";
      case Stat::kServerStatsRequests: return "server_stats_requests";
      case Stat::kAllocFastPathHits: return "alloc_fast_path_hits";
      case Stat::kAllocRefills:   return "alloc_refills";
      case Stat::kAllocSpills:    return "alloc_spills";
      case Stat::kAllocCasRetries: return "alloc_cas_retries";
      case Stat::kAllocLockPath:  return "alloc_lock_path";
      case Stat::kNumStats:       break;
    }
    return "unknown";
}

namespace detail {
thread_local constinit StatsTlsCache statsTls;
} // namespace detail

namespace {
constexpr unsigned kNumStatsU = static_cast<unsigned>(Stat::kNumStats);
} // namespace

/** One thread's counters; 64-byte aligned so no two threads' hot
 *  counters share a cache line (sizeof is a multiple of 64). */
struct alignas(kCacheLineSize) StatSet::Slab
{
    std::atomic<std::uint64_t> v[kNumStatsU] = {};
};
static_assert(sizeof(StatSet::Slab) % kCacheLineSize == 0);
static_assert(alignof(StatSet::Slab) == kCacheLineSize);

struct StatSet::Core
{
    /** Process-unique generation; the TLS fast-path cache key. A
     *  recycled Core allocation can never match a stale cache entry. */
    static std::atomic<std::uint64_t> nextGen;
    const std::uint64_t gen = nextGen.fetch_add(1, std::memory_order_relaxed);

    mutable std::mutex mu;
    std::vector<std::unique_ptr<Slab>> owned;
    std::vector<Slab *> live;     ///< slabs of currently-running threads
    std::vector<Slab *> freelist; ///< zeroed slabs of exited threads
    std::uint64_t retired[kNumStatsU] = {};
    /** (Stat, pool id) -> value; ordered, so a family's children are
     *  contiguous and in id order. */
    std::map<std::pair<unsigned, unsigned>, std::uint64_t> labelled;

    /** Merged total of counter @p i. Caller holds mu. */
    std::uint64_t
    total(unsigned i) const
    {
        std::uint64_t v = retired[i];
        for (const Slab *s : live)
            v += s->v[i].load(std::memory_order_relaxed);
        return v;
    }

    void
    retireSlab(Slab *s)
    {
        std::lock_guard<std::mutex> lk(mu);
        for (unsigned i = 0; i < kNumStatsU; ++i) {
            retired[i] += s->v[i].load(std::memory_order_relaxed);
            s->v[i].store(0, std::memory_order_relaxed);
        }
        live.erase(std::find(live.begin(), live.end(), s));
        freelist.push_back(s);
    }
};

std::atomic<std::uint64_t> StatSet::Core::nextGen{1};

namespace {

/** Per-thread list of (store core, slab) pairs. The destructor is the
 *  thread-exit hook: fold each slab's values into its store so the
 *  counts survive the thread, and recycle the slab. The weak_ptr makes
 *  exit safe when a (test-local) StatSet died first. */
struct TlsSlabs
{
    struct Entry
    {
        std::weak_ptr<StatSet::Core> core;
        StatSet::Core *corePtr;
        StatSet::Slab *slab;
    };
    std::vector<Entry> entries;

    ~TlsSlabs()
    {
        for (Entry &e : entries)
            if (auto c = e.core.lock())
                c->retireSlab(e.slab);
        detail::statsTls = {};
    }
};

thread_local TlsSlabs tlsSlabs;

} // namespace

StatSet::StatSet() : core_(std::make_shared<Core>()), gen_(core_->gen) {}

StatSet::~StatSet() = default;

std::atomic<std::uint64_t> *
StatSet::slabSlow()
{
    Core *c = core_.get();
    for (TlsSlabs::Entry &e : tlsSlabs.entries) {
        if (e.corePtr == c) {
            detail::statsTls = {c->gen, e.slab->v};
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
    detail::statsTls = {c->gen, s->v};
    return s->v;
}

void
StatSet::addShard(Stat s, unsigned shard, std::uint64_t n)
{
    add(s, n);
    std::lock_guard<std::mutex> lk(core_->mu);
    core_->labelled[{static_cast<unsigned>(s), shard}] += n;
}

std::uint64_t
StatSet::get(Stat s) const
{
    std::lock_guard<std::mutex> lk(core_->mu);
    return core_->total(static_cast<unsigned>(s));
}

void
StatSet::reset()
{
    Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    std::memset(c->retired, 0, sizeof(c->retired));
    for (Slab *s : c->live)
        for (unsigned i = 0; i < kNumStatsU; ++i)
            s->v[i].store(0, std::memory_order_relaxed);
    for (auto &[key, value] : c->labelled)
        value = 0;
}

std::vector<CounterValue>
StatSet::counters() const
{
    const Core *c = core_.get();
    std::lock_guard<std::mutex> lk(c->mu);
    std::vector<CounterValue> out;
    out.reserve(kNumStatsU + c->labelled.size());
    auto child = c->labelled.begin();
    for (unsigned i = 0; i < kNumStatsU; ++i) {
        const std::string_view name = statName(static_cast<Stat>(i));
        out.push_back({name, -1, c->total(i)});
        for (; child != c->labelled.end() && child->first.first == i;
             ++child)
            out.push_back(
                {name, static_cast<int>(child->first.second), child->second});
    }
    return out;
}

std::string
StatSet::toString() const
{
    std::ostringstream out;
    for (unsigned i = 0; i < kNumStatsU; ++i) {
        const auto v = get(static_cast<Stat>(i));
        if (v != 0)
            out << statName(static_cast<Stat>(i)) << " " << v << "\n";
    }
    return out.str();
}

StatSet &
globalStats()
{
    static StatSet stats;
    return stats;
}

} // namespace incll
