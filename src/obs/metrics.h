/**
 * @file
 * Latency instrumentation: the well-known histogram table, the
 * per-thread gate-wait accumulator and the slow-op breadcrumb ring.
 * Event counters live in common/stats.h (one Stat-indexed store).
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/compiler.h"
#include "obs/histogram.h"

namespace incll::obs {

/** Monotonic wall-independent clock for latency math, in ns. */
inline std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

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

} // namespace incll::obs
