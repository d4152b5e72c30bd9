/**
 * @file
 * Durable memory allocator (paper §5).
 *
 * The allocator is itself a checkpointed data structure: per size class
 * (and per arena, for multicore scalability) it keeps a *free* list of
 * allocatable objects and a *pending* list of objects freed during the
 * current epoch. Epoch-Based Reclamation moves pending objects to the
 * free list at each epoch boundary, which guarantees an object is only
 * handed out if it was already free at the start of the epoch — so a
 * freshly allocated buffer's contents never need logging or flushing:
 * after a rollback the buffer is free again and its bytes are garbage by
 * definition.
 *
 * Durability of the allocator's own state costs no flushes on the
 * critical path:
 *  - list-head records hold {head, version, headInCLL, tail, tailInCLL,
 *    epoch} in one cache line, logged in-line exactly like a leaf's
 *    InCLLp;
 *  - each object carries a compact 16-byte header (PackedWord) whose
 *    `nextInCLL` undo-logs `next` in the same cache line (§5.1).
 *
 * The hot path stays off the shared lists. Each thread slot keeps, per
 * class, a transient cache of objects to allocate from and a buffer of
 * staged frees (plain pointer arrays under one busy flag — zero durable
 * stores). The cache refills in constant-time *block* transfers: a
 * bounded read-only walk collects a segment, then one double-width CAS
 * on {head, version} detaches it (the version word defeats ABA; every
 * successful head mutation increments it). The walk finds its headers
 * in cache: each cache hit steps a lookahead one object down the list
 * the last refill left behind and prefetches the next. A full free
 * buffer is linked and pushed onto the pending list with one CAS, and
 * the epoch boundary pushes every partial one, so allocMany/freeMany
 * move N objects with O(1) shared-list CASes and a per-op free touches
 * no shared line. First-touch-per-epoch in-line logging of a shared
 * record is arbitrated by a transient claim word so exactly one thread
 * writes the InCLL copies and epoch stamp.
 *
 * Epoch boundaries close a drain fence (an EpochManager prepare hook)
 * and reopen it only after pending→free promotion, so no list operation
 * straddles the global flush, and none can read the new epoch and free
 * an object that the same boundary's promotion would then hand out in
 * that very epoch. The prepare hook then takes every thread cache's
 * flag and pushes its staged frees onto the pending list, so every free
 * of a committed epoch is durable at that epoch's flush. A free stages
 * only under a flag it took with the fence open, so it cannot slip past
 * the hook into the next epoch.
 *
 * Crash recovery: list heads are rolled back eagerly at attach (a few
 * lines); object headers are repaired lazily when a pop first touches
 * them, mirroring the paper's lazy node recovery. A CAS-popped segment
 * is recoverable because the pop writes only the head record (never the
 * popped objects' headers): a failed epoch rolls the head back to its
 * logged copy and the segment is on the list again.
 *
 * Known bounded leak: a crash strands at most one partially-published
 * slab per concurrent carver per (arena, size class), plus the objects
 * sitting in per-thread caches whose refill epoch had already committed
 * (≤ kCacheTarget objects per thread slot per class). Staged frees are
 * not a leak: those of a committed epoch were pushed before its flush,
 * and those of the failed epoch roll back with it (the objects are live
 * again). The paper's allocator has the same property for its pool
 * growth path; tree nodes and installed values are unaffected.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/compiler.h"
#include "common/pin_slots.h"
#include "common/spinlock.h"

namespace incll::nvm {
class Pool;
} // namespace incll::nvm

namespace incll {

class EpochManager;

/** Size-class table shared with the transient pool allocator. */
class SizeClasses
{
  public:
    static constexpr std::uint32_t kNumClasses = 12;

    /** Upper payload bound of class @p c. */
    static std::uint32_t bytesOf(std::uint32_t c);

    /** Smallest class whose payload bound is >= @p bytes. */
    static std::uint32_t classOf(std::size_t bytes);
};

class DurableAllocator
{
  public:
    static constexpr std::uint32_t kMaxArenas = 16;
    /** Object header preceding every payload (paper §5.1: 16 bytes). */
    static constexpr std::size_t kHeaderSize = 16;
    /** Thread-cache slots: the process-wide threadSlot() numbering. */
    static constexpr std::uint32_t kMaxThreadSlots = kThreadSlots;
    /** Objects a per-thread cache holds after a refill (its capacity),
     *  and frees a thread slot stages per class before pushing them. */
    static constexpr std::uint32_t kCacheTarget = 32;

    /**
     * Crash-injection points of the lock-free protocol, in program
     * order within each operation. A test hook (setPhaseHook) may throw
     * at any of them to abort the operation mid-flight, modelling a
     * crash at that durable-state transition; the recovery test drives
     * every phase.
     */
    enum class Phase : std::uint32_t {
        kLogCopies,      ///< InCLL copies written, epoch stamp not yet
        kLogStamped,     ///< shared record's epoch stamp written
        kPopCas,         ///< segment-pop head CAS committed
        kPushLinked,     ///< chain tail linked to old head, CAS not yet
        kPushCas,        ///< push head CAS committed
        kTailPublished,  ///< pending tail word published (first push)
        kCarved,         ///< fresh slab chained, not yet published
        kCarvePublished, ///< slab publish CAS committed
        kPromoteSplice,  ///< one pending→free splice completed
    };

    /**
     * Create (@p fresh) or re-attach the allocator.
     *
     * @param pool         durable pool backing all allocations.
     * @param epochs       epoch manager (EBR hook is registered here).
     * @param statePtrSlot durable root-record slot holding the pool
     *                     offset of the allocator's state block.
     * @param fresh        true to initialise, false to attach + recover.
     * @param numArenas    arena count (fresh only); 0 = auto-size from
     *                     std::thread::hardware_concurrency, clamped to
     *                     [1, kMaxArenas].
     * @param slabBytes    bytes carved per refill (fresh only).
     */
    DurableAllocator(nvm::Pool &pool, EpochManager &epochs,
                     std::uint64_t *statePtrSlot, bool fresh,
                     std::uint32_t numArenas = 8,
                     std::size_t slabBytes = 1u << 18);

    /**
     * Allocate @p bytes of durable memory (16-byte aligned payload).
     * No flush or fence is executed on this path.
     */
    void *alloc(std::size_t bytes);

    /**
     * Free the object at @p p (a pointer returned by alloc with the same
     * @p bytes). The object becomes reusable at the next epoch boundary.
     */
    void free(void *p, std::size_t bytes);

    /**
     * Allocate @p bytes with the payload aligned to a cache line.
     * Required for every object whose correctness depends on intra-line
     * placement — Masstree leaves (their embedded InCLLs must share a
     * line with the fields they log) and layer-root records. Served from
     * a separate size-class family whose slab strides are multiples of
     * 64 bytes.
     */
    void *allocAligned(std::size_t bytes);

    /** Free a payload obtained from allocAligned. */
    void freeAligned(void *p, std::size_t bytes);

    /**
     * Allocate @p n objects of @p bytes each into @p out. The batch is
     * served from the thread cache; a shortfall is popped together with
     * one cache load as a single segment (one CAS per retry, regardless
     * of n) and the surplus refills the cache.
     */
    void allocMany(std::size_t bytes, void **out, std::size_t n);

    /**
     * Free @p n objects (each allocated with @p bytes). The objects are
     * staged in the thread slot's free buffer; each full buffer is
     * linked and pushed onto the pending list with a single CAS, and
     * the next epoch boundary pushes the rest.
     */
    void freeMany(void *const *ps, std::size_t n, std::size_t bytes);

    /**
     * Eagerly roll back the list heads of failed epochs. Called once at
     * crash-recovery attach, after EpochManager::markCrashRecovery().
     */
    void recoverHeads();

    /**
     * Return every cached object to its shared free list, and push every
     * staged free onto its pending list. Call at clean shutdown
     * (quiesced) to keep a graceful detach leak-free; never called from
     * the destructor, because tests destroy allocators whose pool has
     * already simulated a crash.
     */
    void drainLocalCaches();

    /** Free-list length of (arena, class); test/diagnostic use. */
    std::uint64_t freeCount(std::uint32_t arena, std::uint32_t cls,
                            bool aligned = false) const;

    /**
     * Pending-list length of (arena, class) plus the frees staged by the
     * thread slots bound to that arena, i.e. every object freed since
     * the last boundary. Test/diagnostic use; requires quiescence.
     */
    std::uint64_t pendingCount(std::uint32_t arena, std::uint32_t cls,
                               bool aligned = false) const;

    /**
     * Payload pointers currently on the free (or pending) list of
     * (arena, class), resolved through the same header-repair logic a
     * pop would use. Test/diagnostic use; requires quiescence.
     */
    std::vector<void *> listObjects(std::uint32_t arena, std::uint32_t cls,
                                    bool aligned, bool pending) const;

    std::uint32_t numArenas() const;

    /**
     * Install a crash-injection hook (test use only, single-threaded):
     * invoked at each Phase; a throwing hook aborts the operation as a
     * modelled crash point. Pass nullptr to clear.
     */
    void setPhaseHook(std::function<void(Phase)> hook);

  private:
    struct alignas(kCacheLineSize) HeadRecord
    {
        std::uint64_t head;       ///< first object (raw pointer, 0 = empty)
        std::uint64_t version;    ///< ABA guard; bumped by every head change
        std::uint64_t headInCLL;  ///< head at the start of `epoch`
        std::uint64_t tail;       ///< last object (pending lists only)
        std::uint64_t tailInCLL;  ///< tail at the start of `epoch`
        std::uint64_t epoch;      ///< epoch of last modification
    };
    static_assert(sizeof(HeadRecord) == kCacheLineSize,
                  "a head record must be loggable within one line");

    /** Durable state block layout (pointed to by the root-record slot). */
    struct StateBlock
    {
        std::uint32_t numArenas;
        std::uint32_t slabShift; // unused; kept for layout stability
        std::uint64_t slabBytes;
        // followed by HeadRecord[numArenas][kNumClasses][2]
    };

    /** Object header: next + nextInCLL packed words (one cache line). */
    struct ObjectHeader
    {
        std::uint64_t next;      ///< PackedWord: ptr | epoch-high16 | ctr
        std::uint64_t nextInCLL; ///< PackedWord: ptr | epoch-low16  | ctr
    };

    enum ListKind : std::uint32_t { kFree = 0, kPending = 1 };

    /**
     * Class-slot index: classes [0, kNumClasses) are the 16-aligned
     * family; [kNumClasses, 2*kNumClasses) the cache-line-aligned one.
     */
    static constexpr std::uint32_t kNumSlots = SizeClasses::kNumClasses * 2;

    /**
     * Transient per-thread-slot state of one class (object headers, not
     * payloads): the cache allocations pop from and the frees staged
     * for the pending list, both guarded by `busy`.
     */
    struct alignas(kCacheLineSize) ThreadCache
    {
        std::atomic_flag busy = ATOMIC_FLAG_INIT;
        std::uint32_t count = 0;  ///< cached objects in objs
        std::uint32_t staged = 0; ///< staged frees in freed
        /** Lookahead into the free list the last refill left behind: a
         *  prefetch hint only, never handed out. */
        void *ahead = nullptr;
        void *objs[kCacheTarget];
        void *freed[kCacheTarget];
    };

    void allocLF(std::uint32_t slot, void **out, std::size_t n);
    void freeLF(std::uint32_t slot, void *const *ps, std::size_t n);
    std::size_t popSegment(HeadRecord &rec, std::uint64_t epoch,
                           void **out, std::size_t nOut, void **spare,
                           std::size_t nSpare, void *&cut);
    void pushChain(HeadRecord &rec, ObjectHeader *chainHead,
                   ObjectHeader *chainTail, bool pendingTail);
    void pushObjects(std::uint32_t arena, std::uint32_t slot,
                     ListKind kind, void *const *objs, std::size_t n);
    void carveSlab(std::uint32_t arena, std::uint32_t slot,
                   std::uint64_t epoch);
    void promotePending(std::uint64_t newEpoch);
    void ensureLoggedShared(HeadRecord &rec, std::uint64_t epoch);
    void drainClose();
    void drainOpen();
    std::size_t cacheTake(std::uint32_t slot, void **out, std::size_t n);
    void cachePut(std::uint32_t arena, std::uint32_t slot, void **objs,
                  std::size_t n, void *ahead);
    ThreadCache &cacheOf(std::uint32_t threadSlot,
                         std::uint32_t slot) const;
    std::atomic<std::uint64_t> &logStateOf(const HeadRecord &rec);
    void *allocSlot(std::uint32_t slot);
    void freeSlot(std::uint32_t slot, void *p);
    HeadRecord &headOf(std::uint32_t arena, std::uint32_t slot,
                       ListKind kind) const;
    SpinLock &lockOf(std::uint32_t arena, std::uint32_t slot);
    std::uint32_t arenaOfThisThread();

    /** Write o->next with the §5.1 two-word protocol. */
    void writeObjectNext(ObjectHeader *o, void *newNext);

    /** Lazily repair a possibly-torn/failed-epoch object header. */
    void recoverObjectHeader(ObjectHeader *o);

    /** Read-only resolution of o's successor (no repair writes). */
    void *resolveNext(const ObjectHeader *o) const;

    INCLL_INLINE void
    maybePhase(Phase p)
    {
        if (INCLL_UNLIKELY(static_cast<bool>(phaseHook_)))
            phaseHook_(p);
    }

    class DrainPin;
    class CacheLock;

    nvm::Pool &pool_;
    EpochManager &epochs_;
    StateBlock *state_ = nullptr;
    HeadRecord *records_ = nullptr; // contiguous [arena][slot][kind]
    std::uint32_t numArenas_ = 0;
    std::size_t slabBytes_ = 0;
    /** Serialise slab growth per (arena, class); see carveSlab. */
    SpinLock locks_[kMaxArenas][kNumSlots];

    /** Transient in-line-log claim words, one per head record:
     *  epoch*2 = a thread is writing the log, epoch*2+1 = logged. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> logStates_;
    /** Transient per-thread-slot caches [threadSlot][slot]. A slot
     *  stages frees only once it is bound to an arena (arenaOfSlot_). */
    std::unique_ptr<ThreadCache[]> caches_;
    /** Distributed drain fence: a boundary sets drainClosed_ and waits
     *  for every thread slot's pins to drain; mutators pin their own
     *  slot's line and re-check the flag (common/pin_slots.h). */
    std::unique_ptr<PinSlots> drainPins_;
    std::atomic<bool> drainClosed_{false};
    /** Round-robin first-touch arena assignment (per allocator). */
    std::atomic<std::uint32_t> nextArena_{0};
    std::atomic<std::uint8_t> arenaOfSlot_[kMaxThreadSlots];

    std::function<void(Phase)> phaseHook_;
};

} // namespace incll
