/**
 * @file
 * Metrics registry: named counters and gauges behind per-thread
 * cache-line-padded slabs, the well-known latency histogram table, and
 * the slow-op breadcrumb ring.
 *
 * Why per-thread slabs: the original StatSet packed ~30 atomics into
 * one contiguous array, so counters bumped by different threads shared
 * cache lines and every hot-path add() bounced a line across cores.
 * Here each thread gets its own 64-byte-aligned slab of all counters;
 * add() is an uncontended relaxed fetch_add on memory no other thread
 * writes, and readers merge the slabs (plus the fold-in of exited
 * threads) under a mutex on the cold read path.
 *
 * Label support: a counter can be registered per shard id
 * (`name{shard="3"}`), so epoch/migration/server counters can be
 * attributed to a shard instead of the whole process. Labeled children
 * are ordinary counters; callers cache the ids (see StatSet::addShard).
 *
 * Lifetime: a Registry must outlive any thread actively recording into
 * it. Threads that merely *exited* are safe in either order — slab
 * retirement at thread exit goes through a weak_ptr to the registry
 * core, so a thread outliving a (test-local) registry folds into
 * nothing rather than into freed memory.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/compiler.h"
#include "obs/histogram.h"

namespace incll::obs {

using CounterId = std::uint32_t;

/** Monotonic wall-independent clock for latency math, in ns. */
inline std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class Registry
{
  public:
    /** Fixed counter-id space; registrations beyond this are dropped. */
    static constexpr CounterId kMaxCounters = 512;

    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Register-or-look-up a counter by (name, shard). shard = -1 is
     * the plain unlabeled counter. Returns a dense id usable with
     * add(); on table exhaustion returns an id >= kMaxCounters which
     * add() silently drops.
     */
    CounterId counter(std::string_view name, int shard = -1);

    /** Hot path: uncontended relaxed add on this thread's slab. */
    INCLL_INLINE void
    add(CounterId id, std::uint64_t n = 1)
    {
        if (INCLL_UNLIKELY(id >= kMaxCounters))
            return;
        slab()[id].fetch_add(n, std::memory_order_relaxed);
    }

    /** Merge-on-read value of one counter (live slabs + retired). */
    std::uint64_t value(CounterId id) const;

    struct CounterValue
    {
        std::string_view name; ///< backed by the registry; stable
        int shard;             ///< -1 for unlabeled
        std::uint64_t value;
    };
    /** All counters in registration order, merged. */
    std::vector<CounterValue> counters() const;

    /** Zero every counter (racy-lossy, same contract as StatSet). */
    void resetCounters();

    /** Callback gauge, evaluated at collection time. */
    void registerGauge(std::string name, std::function<double()> fn);

    struct GaugeValue
    {
        std::string name;
        double value;
    };
    std::vector<GaugeValue> gauges() const;

    /** Number of registered counters (for exposition sizing). */
    CounterId numCounters() const;

    /**
     * Address of the calling thread's counter slab (allocating it if
     * needed) — lets tests assert slabs are cache-line-disjoint.
     */
    const void *debugThreadSlab();

    // Implementation types; public so the thread-exit hook (a
    // namespace-scope thread_local in metrics.cc) can name them.
    struct Core;
    struct Slab;

  private:
    INCLL_INLINE std::atomic<std::uint64_t> *slab();
    std::atomic<std::uint64_t> *slabSlow();

    std::shared_ptr<Core> core_;
    std::uint64_t gen_; ///< == core_->gen; cached for the inline path
};

/** Process-wide registry (the one globalStats() and exposition use). */
Registry &registry();

/** Well-known latency histograms; keep in sync with histName(). */
enum class Hist : unsigned {
    kStoreGetNs = 0,    ///< ShardedStore::get wall time (gated recording)
    kStorePutNs,        ///< ShardedStore::put wall time (gated recording)
    kStoreRemoveNs,     ///< ShardedStore::remove wall time (gated recording)
    kStoreScanNs,       ///< ShardedStore::scan wall time (gated recording)
    kStoreMultiGetNs,   ///< ShardedStore::multiGet per-batch wall time
    kStoreMultiPutNs,   ///< ShardedStore::multiPut per-batch wall time
    kServerGetNs,       ///< server get: admission to response written
    kServerPutNs,       ///< server put: admission to response written
    kServerRemoveNs,    ///< server remove: admission to response written
    kServerScanNs,      ///< server scan: admission to response written
    kServerBatchFlushNs, ///< one shard-batch flush (store call + responses)
    kEpochBoundaryNs,   ///< exclusive-gate hold per epoch advance
    kGateWaitNs,        ///< one worker stall behind an advance
    kMigrationPauseNs,  ///< writer pause per boundary-move commit
    kMigrationGraceNs,  ///< migration GC wait on retired-table pins
    kNumHists,
};

/** Exposition name of a histogram (values are nanoseconds). */
const char *histName(Hist h);

/** Global histogram instance for @p h. */
Histogram &hist(Hist h);

/**
 * Record @p ns into @p h. Thin wrapper so call sites read as one line.
 */
INCLL_INLINE void
recordNs(Hist h, std::uint64_t ns)
{
    hist(h).record(ns);
}

/**
 * RAII latency recorder: measures from construction to destruction and
 * records into a well-known histogram — when enabled. The disabled
 * form costs one predictable branch and no clock reads, so hot paths
 * can gate recording on a config flag.
 */
class ScopedRecordNs
{
  public:
    ScopedRecordNs(bool enabled, Hist h)
        : enabled_(enabled), h_(h), t0_(enabled ? steadyNowNs() : 0)
    {
    }
    ~ScopedRecordNs()
    {
        if (enabled_)
            recordNs(h_, steadyNowNs() - t0_);
    }
    ScopedRecordNs(const ScopedRecordNs &) = delete;
    ScopedRecordNs &operator=(const ScopedRecordNs &) = delete;

  private:
    const bool enabled_;
    const Hist h_;
    const std::uint64_t t0_;
};

/**
 * Per-thread running total of ns spent blocked at epoch gates. The
 * gate's wait loop bumps it; latency-attribution code (the slow-op
 * tracer) samples it around a store call to learn how much of an op's
 * time was gate wait. Monotone per thread; only deltas are meaningful.
 */
std::uint64_t &threadGateWaitNs();

/**
 * Lock-free breadcrumb ring for slow operations: any op whose total
 * latency exceeds a caller-chosen threshold records a phase breakdown
 * (queue wait, gate wait, store time, respond/flush time). All fields
 * are atomics guarded by an even/odd version word, so concurrent dumps
 * skip torn slots instead of reading them.
 */
class SlowOpRing
{
  public:
    static constexpr std::size_t kSlots = 256;

    struct Entry
    {
        std::uint64_t tsNs;   ///< steadyNowNs() at record time
        const char *op;       ///< static label ("get", "put", ...)
        int shard;            ///< -1 when unknown
        std::uint64_t seq;    ///< caller sequence number (wire seq)
        std::uint64_t totalNs;
        std::uint64_t queueNs; ///< admission -> execution start
        std::uint64_t gateNs;  ///< epoch-gate stall during execution
        std::uint64_t storeNs; ///< store/tree call (includes gateNs)
        std::uint64_t flushNs; ///< execution end -> response written
    };

    void record(const char *op, int shard, std::uint64_t seq,
                std::uint64_t totalNs, std::uint64_t queueNs,
                std::uint64_t gateNs, std::uint64_t storeNs,
                std::uint64_t flushNs);

    /** Stable slots, newest first. Skips slots mid-write. */
    std::vector<Entry> dump() const;

    /** Total records ever made (wraps overwrite, this does not). */
    std::uint64_t recorded() const
    {
        return head_.load(std::memory_order_relaxed);
    }

  private:
    struct alignas(kCacheLineSize) Slot
    {
        std::atomic<std::uint64_t> version{0}; ///< odd while being written
        std::atomic<std::uint64_t> tsNs{0};
        std::atomic<const char *> op{nullptr};
        std::atomic<int> shard{-1};
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint64_t> totalNs{0};
        std::atomic<std::uint64_t> queueNs{0};
        std::atomic<std::uint64_t> gateNs{0};
        std::atomic<std::uint64_t> storeNs{0};
        std::atomic<std::uint64_t> flushNs{0};
    };

    std::atomic<std::uint64_t> head_{0};
    Slot slots_[kSlots];
};

/** Process-wide slow-op ring (the server records into this one). */
SlowOpRing &slowOps();

// --- Registry inline hot path -----------------------------------------

namespace detail {
/**
 * Most-recently-used (registry generation, slab) pair for the calling
 * thread. Keyed by a process-unique generation rather than the
 * registry's address so a recycled allocation can never match a stale
 * entry.
 */
struct TlsCache
{
    std::uint64_t gen = 0; ///< 0 never matches a live registry
    std::atomic<std::uint64_t> *slab = nullptr;
};
// constinit: constant-initialised, so access needs no TLS init wrapper
// (whose null-object call UBSan reports on a thread's first use).
extern thread_local constinit TlsCache tlsCache;
} // namespace detail

INCLL_INLINE std::atomic<std::uint64_t> *
Registry::slab()
{
    auto &c = detail::tlsCache;
    if (INCLL_LIKELY(c.gen == gen_))
        return c.slab;
    return slabSlow();
}

} // namespace incll::obs
