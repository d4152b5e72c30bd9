/**
 * @file
 * Simulated persistent-memory pool.
 *
 * This is the substrate that stands in for real NVM (see DESIGN.md).
 * A Pool owns two byte-identical regions:
 *
 *  - the *primary* region, where the application actually reads and
 *    writes (it plays the role of DRAM + the processor cache), and
 *  - the *shadow* region, which holds exactly the bytes that have
 *    reached durable media.
 *
 * Stores to durable structures are routed through pstore()/onStore(),
 * which mark the enclosing 64-byte line dirty. A line's current primary
 * contents move to the shadow only when the line is written back:
 * explicitly (clwb + sfence), wholesale (wbinvdFlushAll, the epoch
 * boundary flush), or spontaneously by the *eviction adversary*, which
 * models the machine's unspecified cache replacement policy by writing
 * back random dirty lines at random times.
 *
 * Because write-back always copies a whole line, two stores to the same
 * line can never persist out of program order — this is precisely the
 * Persistent Cache Store Order (PCSO) guarantee (paper §2.1) that the
 * In-Cache-Line Log relies on. Stores to *different* lines persist in an
 * order chosen by the adversary, which is what makes the crash tests
 * meaningful.
 *
 * crash() throws away every line that never reached the shadow and
 * presents the shadow image as the post-reboot memory; recovery code then
 * runs against exactly what real NVM would have contained.
 *
 * Modes:
 *  - kTracked: full shadow + dirty-line machinery (crash tests).
 *  - kDirect:  no shadow; stores are plain stores and persist primitives
 *    only count events and apply emulated latency. This matches the
 *    paper's own measurement setup (DRAM via /dev/shm) and is used by the
 *    throughput benchmarks.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/compiler.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/stats.h"
#include "nvm/latency.h"
#include "nvm/mapping.h"

namespace incll::nvm {

enum class Mode {
    kDirect,  ///< no shadow tracking; persist ops count + emulate latency
    kTracked, ///< full shadow + dirty-line tracking; supports crash()
};

class Pool
{
  public:
    /**
     * First bytes of the pool reserved for the application root record.
     * Sized for mt::DurableRoot growing from the head plus the store's
     * placement/topology records growing from the tail (placement.h has
     * the tail map); both layers static_assert they fit.
     */
    static constexpr std::size_t kRootAreaSize = 8192;

    /**
     * Create a pool of @p bytes of durable memory. Each region is one
     * mapZeroed() mapping (nvm/mapping.h): 2 MiB-aligned, advised for
     * huge pages, zeroed by the kernel and faulted on first touch.
     *
     * @param bytes total capacity, including the root area.
     * @param mode  kTracked for crash-testable pools, kDirect for speed.
     * @param seed  seed for the eviction adversary.
     */
    Pool(std::size_t bytes, Mode mode, std::uint64_t seed = 1);
    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    Mode mode() const { return mode_; }
    std::size_t size() const { return size_; }
    char *base() const { return primary_.get(); }

    /** Emulated latency knobs (may be changed between runs). */
    LatencyModel &latency() { return latency_; }

    /**
     * Fixed-address root record for application metadata (durable epoch
     * word, tree root pointer, allocator list heads...). The application
     * is responsible for persisting it like any other durable memory.
     */
    void *rootArea() const { return primary_.get() + kRootAreaOffset; }

    /** True iff @p p points into this pool's primary region. */
    bool
    contains(const void *p) const
    {
        const auto a = reinterpret_cast<std::uintptr_t>(p);
        const auto b = reinterpret_cast<std::uintptr_t>(primary_.get());
        return a >= b && a < b + size_;
    }

    /**
     * Durable bump allocation of raw memory (slabs for the higher-level
     * allocators). The cursor itself is persisted with a flush + fence on
     * every call, so a crash can never leak or double-allocate a slab;
     * rawAlloc is designed for infrequent, large requests.
     *
     * @return pointer to @p bytes of zeroed durable memory, aligned to
     *         @p align (a power of two, at least 16).
     */
    void *rawAlloc(std::size_t bytes, std::size_t align = 16);

    /** Bytes remaining for rawAlloc. */
    std::size_t rawAvailable() const;

    // ---- persistence primitives -------------------------------------

    /** Record that [addr, addr+len) was stored to (marks lines dirty). */
    INCLL_INLINE void
    onStore(const void *addr, std::size_t len)
    {
        if (mode_ == Mode::kDirect)
            return;
        onStoreTracked(addr, len);
    }

    /** Initiate write-back of the line containing @p addr (async). */
    void clwb(const void *addr);

    /**
     * Synchronously persist [addr, addr+len): clwb every covered line,
     * then fence. For infrequent metadata (fresh-init configuration
     * records) that must survive a crash before the first checkpoint.
     */
    void flushRange(const void *addr, std::size_t len);

    /**
     * Persist fence: complete this thread's outstanding clwb()s, apply
     * the emulated NVM round-trip latency, and count the event.
     */
    void sfence();

    /**
     * Global cache flush (the epoch-boundary wbinvd). Copies every dirty
     * line to the shadow (tracked mode) or stalls for the emulated
     * wbinvd cost (direct mode).
     *
     * @return number of lines written back (0 in direct mode).
     */
    std::uint64_t wbinvdFlushAll();

    // ---- eviction adversary and crash -------------------------------

    /**
     * Probability that any single onStore() spontaneously writes back one
     * random dirty line, modelling cache replacement. Zero disables the
     * adversary (maximally lossy crashes).
     */
    void setEvictionRate(double perStoreProbability);

    /** Write back @p n randomly chosen dirty lines immediately. */
    void evictRandomLines(std::size_t n);

    /**
     * Simulate an abrupt power failure: every line that has not reached
     * the shadow is lost, and the primary region is replaced by the
     * shadow image. All other threads must have been stopped. After
     * crash() the application re-runs its recovery path against the pool.
     *
     * @param extraEvictionProbability chance, per dirty line, that the
     *        line happened to be written back just before the failure
     *        (more adversarial interleavings for property tests).
     */
    void crash(double extraEvictionProbability = 0.0);

    /** Number of currently dirty (unpersisted) lines. Tracked mode only. */
    std::uint64_t dirtyLineCount() const;

    /**
     * Read the *durable* (shadow) value at @p p — what would survive a
     * crash right now. Tracked mode only; for tests and assertions.
     */
    template <typename T>
    T
    durableRead(const T *p) const
    {
        const auto off =
            reinterpret_cast<const char *>(p) - primary_.get();
        T out;
        __builtin_memcpy(&out, shadow_.get() + off, sizeof(T));
        return out;
    }

  private:
    static constexpr std::size_t kMetaSize = kCacheLineSize;
    static constexpr std::size_t kRootAreaOffset = kMetaSize;
    static constexpr std::size_t kHeapOffset = kMetaSize + kRootAreaSize;

    void onStoreTracked(const void *addr, std::size_t len);
    void writebackLine(std::size_t lineIdx);
    std::size_t
    lineIndexOf(const void *p) const
    {
        return (reinterpret_cast<const char *>(p) - primary_.get()) /
               kCacheLineSize;
    }

    Mode mode_;
    std::size_t size_;
    std::size_t numLines_;
    Mapping primary_;
    Mapping shadow_; ///< tracked mode only
    std::unique_ptr<std::atomic<std::uint64_t>[]> dirty_;

    LatencyModel latency_;

    // Eviction adversary state.
    std::atomic<std::uint64_t> evictThresholdQ32_{0}; // P(evict) in Q32
    SpinLock adversaryLock_;
    Rng adversaryRng_;
    std::uint64_t gen_;      ///< process-unique pool instance id
    std::uint64_t coinSeed_; ///< seed for per-thread eviction coin flips

    // Durable bump cursor lives in the meta line; cached copy here.
    // cursorPersistLock_ serializes the durable write-back of the
    // cursor: the CAS bump alone would let a slower allocator persist a
    // smaller cursor over a larger one, and a crash in that window
    // would re-hand-out a block already given away.
    std::atomic<std::uint64_t> cursor_;
    SpinLock cursorPersistLock_;
};

/**
 * Register @p pool with the tracked-store registry: pstore()s whose
 * address falls inside it are routed to its dirty-line machinery. Any
 * number of tracked pools may be registered concurrently (one per store
 * shard); registration of a kDirect pool is a no-op at store time since
 * onStore() ignores it. Unregistered automatically by ~Pool.
 */
void registerTrackedPool(Pool &pool);

/** Remove @p pool from the tracked-store registry (idempotent). */
void unregisterTrackedPool(Pool &pool);

// ---- store helpers ---------------------------------------------------

namespace detail {
/** Number of registered tracked pools; hot-path gate for pstore(). */
extern std::atomic<std::size_t> trackedPoolCount;

/** Route a store to whichever registered pool contains @p addr. */
void onTrackedStore(const void *addr, std::size_t len);

INCLL_INLINE bool
anyTrackedPools()
{
    return trackedPoolCount.load(std::memory_order_relaxed) != 0;
}
} // namespace detail

/**
 * Store @p value into durable memory at @p dst and record the store with
 * the registered tracked pool containing @p dst, if any. Plain
 * (non-atomic) store; use for fields protected by the data structure's
 * own locks.
 */
template <typename T>
INCLL_INLINE void
pstore(T &dst, T value)
{
    dst = value;
    if (INCLL_UNLIKELY(detail::anyTrackedPools()))
        detail::onTrackedStore(&dst, sizeof(T));
}

/**
 * Release-ordered store for same-cache-line persist ordering (PCSO
 * "granularity" rule, §2.1): a release fence then the store, so every
 * earlier store to the same line persists no later than this one.
 */
template <typename T>
INCLL_INLINE void
pstoreRelease(std::atomic<T> &dst, T value)
{
    dst.store(value, std::memory_order_release);
    if (INCLL_UNLIKELY(detail::anyTrackedPools()))
        detail::onTrackedStore(&dst, sizeof(T));
}

/**
 * Record a store that was already performed through some other channel
 * (e.g. a std::atomic member operation) with the tracked pool, if any.
 */
INCLL_INLINE void
trackStore(const void *addr, std::size_t len)
{
    if (INCLL_UNLIKELY(detail::anyTrackedPools()))
        detail::onTrackedStore(addr, len);
}

/** memcpy into durable memory with store tracking. */
void pmemcpy(void *dst, const void *src, std::size_t len);

/** memset durable memory with store tracking. */
void pmemset(void *dst, int value, std::size_t len);

} // namespace incll::nvm
