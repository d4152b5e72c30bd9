/**
 * @file
 * Durable allocator implementation: per-thread caches and staged frees
 * in front of version-guarded segment CASes on the shared lists (see
 * the header). Stores to durable words on the concurrent paths go
 * through small atomic wrappers (storeW / loadW) so optimistic list
 * walks are data-race-free; plain nvm::pstore remains only in the
 * single-threaded init and recovery.
 */
#include "alloc/durable_alloc.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

#include "alloc/packed_word.h"
#include "common/stats.h"
#include "epoch/epoch_manager.h"
#include "nvm/pool.h"

namespace incll {

namespace {

constexpr std::uint32_t kClassBytes[SizeClasses::kNumClasses] = {
    32, 48, 64, 96, 128, 192, 256, 320, 384, 512, 1024, 2048,
};

/** Atomic load of a (possibly concurrently CASed) durable word. */
INCLL_INLINE std::uint64_t
loadW(const std::uint64_t &w,
      std::memory_order mo = std::memory_order_acquire)
{
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t &>(w))
        .load(mo);
}

/** Atomic store of a durable word (tracked like nvm::pstore). */
INCLL_INLINE void
storeW(std::uint64_t &w, std::uint64_t v,
       std::memory_order mo = std::memory_order_relaxed)
{
    std::atomic_ref<std::uint64_t>(w).store(v, mo);
    nvm::trackStore(&w, sizeof(w));
}

/** {head, version} pair CASed as one unit (cmpxchg16b). */
struct alignas(16) HeadPair
{
    std::uint64_t head;
    std::uint64_t version;
};
static_assert(sizeof(HeadPair) == 16);

/**
 * Double-width CAS on a record's leading {head, version} words. Success
 * proves the list head was untouched since `expected` was read: every
 * successful head mutation increments the version, so a matching pair
 * rules out ABA reuse of the head pointer.
 */
INCLL_INLINE bool
dwcasHead(std::uint64_t *headAddr, HeadPair &expected,
          const HeadPair &desired)
{
    const bool ok = __atomic_compare_exchange(
        reinterpret_cast<HeadPair *>(headAddr), &expected,
        const_cast<HeadPair *>(&desired), false, __ATOMIC_ACQ_REL,
        __ATOMIC_ACQUIRE);
    if (ok)
        nvm::trackStore(headAddr, sizeof(HeadPair));
    return ok;
}

} // namespace

std::uint32_t
SizeClasses::bytesOf(std::uint32_t c)
{
    assert(c < kNumClasses);
    return kClassBytes[c];
}

std::uint32_t
SizeClasses::classOf(std::size_t bytes)
{
    for (std::uint32_t c = 0; c < kNumClasses; ++c) {
        if (bytes <= kClassBytes[c])
            return c;
    }
    assert(false && "allocation larger than the largest size class");
    return kNumClasses - 1;
}

/**
 * RAII pin against the epoch-boundary drain fence: a PinSlots pin on
 * this thread slot's own line, re-checked against the closed flag
 * (see common/pin_slots.h). Either the closer sees the pin or the pin
 * sees the closed flag.
 */
class DurableAllocator::DrainPin
{
  public:
    explicit DrainPin(DurableAllocator &a)
        : pins_(*a.drainPins_), slot_(threadSlot())
    {
        Backoff backoff;
        for (;;) {
            pins_.pin(slot_);
            if (INCLL_LIKELY(
                    !a.drainClosed_.load(std::memory_order_seq_cst)))
                return;
            pins_.unpin(slot_);
            while (a.drainClosed_.load(std::memory_order_acquire))
                backoff.pause();
        }
    }

    ~DrainPin() { pins_.unpin(slot_); }

    DrainPin(const DrainPin &) = delete;
    DrainPin &operator=(const DrainPin &) = delete;

  private:
    PinSlots &pins_;
    const unsigned slot_;
};

DurableAllocator::DurableAllocator(nvm::Pool &pool, EpochManager &epochs,
                                   std::uint64_t *statePtrSlot, bool fresh,
                                   std::uint32_t numArenas,
                                   std::size_t slabBytes)
    : pool_(pool), epochs_(epochs)
{
    if (numArenas == 0) {
        // Auto-size: one arena per hardware thread, within the table.
        const unsigned hw = std::thread::hardware_concurrency();
        numArenas = std::clamp<std::uint32_t>(hw != 0 ? hw : 1, 1,
                                              kMaxArenas);
    }
    const std::size_t stateBytes =
        sizeof(StateBlock) + kCacheLineSize; // header, rounded up
    if (fresh) {
        assert(numArenas >= 1 && numArenas <= kMaxArenas);
        const std::size_t recordsBytes =
            sizeof(HeadRecord) * numArenas * kNumSlots * 2;
        char *block = static_cast<char *>(
            pool_.rawAlloc(stateBytes + recordsBytes, kCacheLineSize));
        state_ = reinterpret_cast<StateBlock *>(block);
        records_ = reinterpret_cast<HeadRecord *>(block + kCacheLineSize);
        nvm::pstore(state_->numArenas, numArenas);
        nvm::pstore(state_->slabBytes, std::uint64_t{slabBytes});
        // The configuration must survive a crash that happens before the
        // first checkpoint ever completes.
        pool_.flushRange(state_, sizeof(StateBlock));
        // rawAlloc zeroes the block, so every HeadRecord starts empty
        // with epoch 0 (never failed). Publish the block's location.
        nvm::pstore(*statePtrSlot,
                    static_cast<std::uint64_t>(block - pool_.base()));
        pool_.clwb(statePtrSlot);
        pool_.sfence();
    } else {
        char *block = pool_.base() + *statePtrSlot;
        state_ = reinterpret_cast<StateBlock *>(block);
        records_ = reinterpret_cast<HeadRecord *>(block + kCacheLineSize);
    }
    numArenas_ = state_->numArenas;
    slabBytes_ = state_->slabBytes;

    // Transient state: one in-line-log claim word per record
    // (initialised "already logged" for each record's stamped epoch),
    // empty thread caches, unassigned arena slots.
    const std::size_t numRecords =
        std::size_t{numArenas_} * kNumSlots * 2;
    logStates_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(numRecords);
    for (std::size_t i = 0; i < numRecords; ++i)
        logStates_[i].store(records_[i].epoch * 2 + 1,
                            std::memory_order_relaxed);
    caches_ = std::make_unique<ThreadCache[]>(
        std::size_t{kMaxThreadSlots} * kNumSlots);
    drainPins_ = std::make_unique<PinSlots>();
    for (auto &a : arenaOfSlot_)
        a.store(0xff, std::memory_order_relaxed);

    epochs_.registerPrepareHook([this] { drainClose(); });
    epochs_.registerAdvanceHook([this](std::uint64_t newEpoch) {
        promotePending(newEpoch);
        drainOpen();
    });
}

std::uint32_t
DurableAllocator::numArenas() const
{
    return numArenas_;
}

void
DurableAllocator::setPhaseHook(std::function<void(Phase)> hook)
{
    phaseHook_ = std::move(hook);
}

DurableAllocator::HeadRecord &
DurableAllocator::headOf(std::uint32_t arena, std::uint32_t slot,
                         ListKind kind) const
{
    return records_[(arena * kNumSlots + slot) * 2 + kind];
}

SpinLock &
DurableAllocator::lockOf(std::uint32_t arena, std::uint32_t slot)
{
    return locks_[arena][slot];
}

std::atomic<std::uint64_t> &
DurableAllocator::logStateOf(const HeadRecord &rec)
{
    return logStates_[static_cast<std::size_t>(&rec - records_)];
}

DurableAllocator::ThreadCache &
DurableAllocator::cacheOf(std::uint32_t threadSlot, std::uint32_t slot) const
{
    return caches_[std::size_t{threadSlot} * kNumSlots + slot];
}

namespace {

/** Is @p slot in the cache-line-aligned family? */
bool
slotAligned(std::uint32_t slot)
{
    return slot >= SizeClasses::kNumClasses;
}

std::uint32_t
slotClass(std::uint32_t slot)
{
    return slot % SizeClasses::kNumClasses;
}

/**
 * Object stride and payload offset for a slot. The 16-aligned family
 * packs [header(16)][payload]; the aligned family rounds the stride to
 * a cache-line multiple and puts the payload at offset 64 within its
 * block (header at 48), so payloads land on line boundaries.
 */
std::size_t
slotStride(std::uint32_t slot)
{
    const std::size_t payload = SizeClasses::bytesOf(slotClass(slot));
    if (!slotAligned(slot))
        return DurableAllocator::kHeaderSize + payload;
    return (64 + payload + 63) & ~std::size_t{63};
}

std::size_t
slotPayloadOffset(std::uint32_t slot)
{
    return slotAligned(slot) ? 64 : DurableAllocator::kHeaderSize;
}

} // namespace

std::uint32_t
DurableAllocator::arenaOfThisThread()
{
    const std::uint32_t ts = threadSlot();
    std::uint8_t a = arenaOfSlot_[ts].load(std::memory_order_acquire);
    if (INCLL_UNLIKELY(a == 0xff)) {
        // Round-robin on first touch, so concurrent threads spread
        // across arenas instead of hashing onto one.
        a = static_cast<std::uint8_t>(
            nextArena_.fetch_add(1, std::memory_order_relaxed) %
            numArenas_);
        // seq_cst: the binding must precede this slot's first fence
        // check in the order drainClose reads bindings in.
        std::uint8_t expect = 0xff;
        if (!arenaOfSlot_[ts].compare_exchange_strong(
                expect, a, std::memory_order_seq_cst))
            a = expect; // another thread sharing the slot won; follow it
    }
    return a;
}

void
DurableAllocator::ensureLoggedShared(HeadRecord &rec, std::uint64_t epoch)
{
    // Lock-free first-touch-per-epoch logging: the transient claim word
    // arbitrates so exactly one thread writes the InCLL copies and the
    // epoch stamp; every mutator waits for "logged" before it may CAS
    // the head. The claim winner therefore still sees the epoch-start
    // head/tail values when it copies them.
    std::atomic<std::uint64_t> &ls = logStateOf(rec);
    const std::uint64_t logged = epoch * 2 + 1;
    Backoff backoff;
    for (;;) {
        std::uint64_t s = ls.load(std::memory_order_acquire);
        if (INCLL_LIKELY(s == logged))
            return;
        if (s == epoch * 2) { // another thread is writing the log
            backoff.pause();
            continue;
        }
        if (!ls.compare_exchange_weak(s, epoch * 2,
                                      std::memory_order_acq_rel))
            continue;
        storeW(rec.headInCLL, loadW(rec.head));
        storeW(rec.tailInCLL, loadW(rec.tail));
        maybePhase(Phase::kLogCopies);
        std::atomic_thread_fence(std::memory_order_release);
        storeW(rec.epoch, epoch);
        std::atomic_thread_fence(std::memory_order_release);
        maybePhase(Phase::kLogStamped);
        ls.store(logged, std::memory_order_release);
        return;
    }
}

void
DurableAllocator::writeObjectNext(ObjectHeader *o, void *newNext)
{
    const auto epoch32 =
        static_cast<std::uint32_t>(epochs_.writeEpoch());
    const std::uint64_t next = loadW(o->next, std::memory_order_relaxed);
    const std::uint64_t inCll =
        loadW(o->nextInCLL, std::memory_order_relaxed);
    const std::uint8_t curCtr = PackedWord::counter(next);
    const bool ctrMatch = PackedWord::counter(inCll) == curCtr;
    const bool sameEpoch =
        ctrMatch && PackedWord::combineEpoch(next, inCll) == epoch32;

    if (!sameEpoch) {
        // First write this epoch: undo-log the old next in the same
        // cache line, bump the consistency counter on both words. The
        // undo value must be the *logical* next, not the raw word:
        // lock-free pops hand objects out without repairing their
        // headers, so `next` may still carry a torn or failed-epoch
        // value whose rollback (the logged copy) is authoritative.
        // Logging the raw word would immortalise the failed pointer
        // and a later crash would splice it back into the list.
        const bool stale =
            !ctrMatch || epochs_.failedSet().isFailed32(
                             PackedWord::combineEpoch(next, inCll));
        void *oldNext = stale ? PackedWord::pointer(inCll)
                              : PackedWord::pointer(next);
        const std::uint8_t ctr = (curCtr + 1) & 0x3;
        storeW(o->nextInCLL,
               PackedWord::pack(
                   oldNext,
                   static_cast<std::uint16_t>(epoch32 & 0xffff), ctr));
        std::atomic_thread_fence(std::memory_order_release);
        storeW(o->next,
               PackedWord::pack(
                   newNext,
                   static_cast<std::uint16_t>(epoch32 >> 16), ctr));
    } else {
        storeW(o->next,
               PackedWord::pack(
                   newNext,
                   static_cast<std::uint16_t>(epoch32 >> 16), curCtr));
    }
    std::atomic_thread_fence(std::memory_order_release);
}

void
DurableAllocator::recoverObjectHeader(ObjectHeader *o)
{
    const std::uint64_t next = loadW(o->next, std::memory_order_relaxed);
    const std::uint64_t inCll =
        loadW(o->nextInCLL, std::memory_order_relaxed);
    const std::uint8_t cn = PackedWord::counter(next);
    const std::uint8_t ci = PackedWord::counter(inCll);
    bool restore = false;
    if (cn != ci) {
        // The two-word update itself was torn by a crash: the logged
        // copy is authoritative (§5.1).
        restore = true;
    } else {
        const std::uint32_t epoch32 =
            PackedWord::combineEpoch(next, inCll);
        restore = epochs_.failedSet().isFailed32(epoch32);
    }
    if (!restore)
        return;

    void *oldNext = PackedWord::pointer(inCll);
    const auto epoch32 =
        static_cast<std::uint32_t>(epochs_.writeEpoch());
    const std::uint8_t ctr = (cn + 1) & 0x3;
    storeW(o->nextInCLL,
           PackedWord::pack(
               oldNext,
               static_cast<std::uint16_t>(epoch32 & 0xffff), ctr));
    std::atomic_thread_fence(std::memory_order_release);
    storeW(o->next,
           PackedWord::pack(
               oldNext,
               static_cast<std::uint16_t>(epoch32 >> 16), ctr));
    std::atomic_thread_fence(std::memory_order_release);
}

void *
DurableAllocator::resolveNext(const ObjectHeader *o) const
{
    // Read-only counterpart of recoverObjectHeader: picks the logged
    // copy for torn or failed-epoch headers without repairing them, so
    // optimistic walks never write to objects they do not own.
    const std::uint64_t next = loadW(o->next, std::memory_order_relaxed);
    const std::uint64_t inCll =
        loadW(o->nextInCLL, std::memory_order_relaxed);
    if (PackedWord::counter(next) != PackedWord::counter(inCll))
        return PackedWord::pointer(inCll);
    if (epochs_.failedSet().isFailed32(
            PackedWord::combineEpoch(next, inCll)))
        return PackedWord::pointer(inCll);
    return PackedWord::pointer(next);
}

/**
 * Holds a thread cache's busy flag for a scope. With @p fenceOpen the
 * flag is kept only while the drain fence is open, and a closed fence
 * is waited out with the flag released: the prepare hook spins on every
 * flag after it closes the fence. A flag so held works as a drain pin —
 * the boundary cannot pass its prepare hook, let alone flush, until the
 * flag is released — so list operations under it land in the open
 * epoch.
 */
class DurableAllocator::CacheLock
{
  public:
    CacheLock(DurableAllocator &a, ThreadCache &c, bool fenceOpen) : c_(c)
    {
        Backoff backoff;
        for (;;) {
            if (!c.busy.test_and_set(std::memory_order_acquire)) {
                // seq_cst: orders against drainClose's store of the
                // fence and its reads of arenaOfSlot_ (see there).
                if (!fenceOpen || INCLL_LIKELY(!a.drainClosed_.load(
                                      std::memory_order_seq_cst)))
                    return;
                c.busy.clear(std::memory_order_release);
            }
            backoff.pause();
        }
    }

    ~CacheLock() { c_.busy.clear(std::memory_order_release); }

    CacheLock(const CacheLock &) = delete;
    CacheLock &operator=(const CacheLock &) = delete;

  private:
    ThreadCache &c_;
};

std::size_t
DurableAllocator::cacheTake(std::uint32_t slot, void **out, std::size_t n)
{
    ThreadCache &c = cacheOf(threadSlot(), slot);
    if (INCLL_UNLIKELY(c.busy.test_and_set(std::memory_order_acquire))) {
        // Another thread sharing this cache slot, or the boundary's
        // prepare hook, holds it; fall through to the shared list
        // rather than wait.
        globalStats().add(Stat::kAllocLockPath);
        return 0;
    }
    std::size_t k = 0;
    while (k < n && c.count > 0)
        out[k++] = c.objs[--c.count];
    if (k > 0 && c.ahead != nullptr) {
        // Step the lookahead: read the header prefetched by the last
        // hit, prefetch its successor. By the next refill the walk's
        // headers are in cache. The raw word may be stale or lead off
        // the list by now (it is always an in-pool header or null):
        // nothing is handed out from it.
        const auto *o = static_cast<const ObjectHeader *>(c.ahead);
        c.ahead = PackedWord::pointer(
            loadW(o->next, std::memory_order_relaxed));
        __builtin_prefetch(c.ahead);
    }
    c.busy.clear(std::memory_order_release);
    return k;
}

void
DurableAllocator::cachePut(std::uint32_t arena, std::uint32_t slot,
                           void **objs, std::size_t n, void *ahead)
{
    // Called under a drain pin. Surplus beyond capacity (possible only
    // when another thread refilled a shared cache slot first) spills
    // back to the shared free list in one push.
    ThreadCache &c = cacheOf(threadSlot(), slot);
    std::size_t taken = 0;
    if (!c.busy.test_and_set(std::memory_order_acquire)) {
        while (c.count < kCacheTarget && taken < n)
            c.objs[c.count++] = objs[taken++];
        c.ahead = ahead;
        c.busy.clear(std::memory_order_release);
    }
    if (taken < n)
        pushObjects(arena, slot, kFree, objs + taken, n - taken);
}

std::size_t
DurableAllocator::popSegment(HeadRecord &rec, std::uint64_t epoch,
                             void **out, std::size_t nOut, void **spare,
                             std::size_t nSpare, void *&cut)
{
    for (;;) {
        const std::uint64_t v = loadW(rec.version);
        const std::uint64_t h = loadW(rec.head);
        if (h == 0)
            return 0;
        ensureLoggedShared(rec, epoch);
        // Optimistic read-only walk: collect up to nOut nodes into out,
        // then up to nSpare more into spare. The list may mutate under
        // us, making this chain garbage — but packed words only ever
        // hold in-pool pointers, so the walk cannot fault, and the CAS
        // below rejects the result unless {head, version} are exactly
        // as first read (the version word rules out ABA). Pops write no
        // object headers, which is what keeps a popped segment
        // crash-recoverable: rolling the head record back to its InCLL
        // copy restores the whole list.
        std::size_t n = 0;
        auto *o = reinterpret_cast<ObjectHeader *>(h);
        void *next = nullptr;
        while (n < nOut + nSpare && o != nullptr) {
            (n < nOut ? out[n] : spare[n - nOut]) = o;
            ++n;
            next = resolveNext(o);
            o = static_cast<ObjectHeader *>(next);
        }
        HeadPair expected{h, v};
        const HeadPair desired{reinterpret_cast<std::uint64_t>(next),
                               v + 1};
        if (dwcasHead(&rec.head, expected, desired)) {
            maybePhase(Phase::kPopCas);
            globalStats().add(Stat::kAllocRefills);
            cut = next;
            return n;
        }
        globalStats().add(Stat::kAllocCasRetries);
    }
}

void
DurableAllocator::pushChain(HeadRecord &rec, ObjectHeader *chainHead,
                            ObjectHeader *chainTail, bool pendingTail)
{
    // The chain chainHead..chainTail is private to the caller until the
    // CAS publishes it; only chainTail's next is (re)written per retry.
    for (;;) {
        const std::uint64_t v = loadW(rec.version);
        const std::uint64_t h = loadW(rec.head);
        writeObjectNext(chainTail, reinterpret_cast<void *>(h));
        maybePhase(Phase::kPushLinked);
        HeadPair expected{h, v};
        const HeadPair desired{
            reinterpret_cast<std::uint64_t>(chainHead), v + 1};
        if (dwcasHead(&rec.head, expected, desired)) {
            maybePhase(Phase::kPushCas);
            if (pendingTail && h == 0) {
                // First push of the epoch onto the (empty) pending
                // list: only this winner publishes the tail. Promotion
                // reads it only after the drain fence closed, so the
                // pin held here orders the store.
                storeW(rec.tail,
                       reinterpret_cast<std::uint64_t>(chainTail));
                maybePhase(Phase::kTailPublished);
            }
            return;
        }
        globalStats().add(Stat::kAllocCasRetries);
    }
}

void
DurableAllocator::pushObjects(std::uint32_t arena, std::uint32_t slot,
                              ListKind kind, void *const *objs,
                              std::size_t n)
{
    // Caller holds a drain pin or a cache flag taken with the fence
    // open. Link the objects into one private chain, then publish it
    // with a single CAS: N objects cost O(1) shared-list operations.
    HeadRecord &rec = headOf(arena, slot, kind);
    ensureLoggedShared(rec, epochs_.writeEpoch());
    for (std::size_t i = 0; i + 1 < n; ++i)
        writeObjectNext(static_cast<ObjectHeader *>(objs[i]), objs[i + 1]);
    pushChain(rec, static_cast<ObjectHeader *>(objs[0]),
              static_cast<ObjectHeader *>(objs[n - 1]), kind == kPending);
    globalStats().add(Stat::kAllocSpills);
}

void
DurableAllocator::carveSlab(std::uint32_t arena, std::uint32_t slot,
                            std::uint64_t epoch)
{
    // One carver per (arena, class): the spin lock serialises only slab
    // growth (never the pop/push hot path) and keeps a thundering herd
    // from carving one slab each when a list first runs dry.
    std::lock_guard<SpinLock> guard(lockOf(arena, slot));
    HeadRecord &fr = headOf(arena, slot, kFree);
    if (loadW(fr.head) != 0)
        return; // another carver already published

    const std::size_t stride = slotStride(slot);
    const std::size_t headerOff = slotPayloadOffset(slot) - kHeaderSize;
    const std::size_t count = slabBytes_ / stride;
    assert(count >= 1);
    char *slab = static_cast<char *>(
        pool_.rawAlloc(count * stride, slotAligned(slot) ? 64 : 16));
    const auto epoch32 = static_cast<std::uint32_t>(epoch);
    for (std::size_t i = count; i-- > 0;) {
        auto *o = reinterpret_cast<ObjectHeader *>(slab + i * stride +
                                                   headerOff);
        void *next =
            (i + 1 < count)
                ? static_cast<void *>(slab + (i + 1) * stride + headerOff)
                : nullptr;
        // Fresh headers: both words carry the same pointer and matching
        // counters, so a rollback of this epoch restores `next` to the
        // value it already has (the slab is simply unreachable again —
        // the documented bounded leak).
        storeW(o->nextInCLL,
               PackedWord::pack(
                   next, static_cast<std::uint16_t>(epoch32 & 0xffff),
                   0));
        storeW(o->next,
               PackedWord::pack(
                   next, static_cast<std::uint16_t>(epoch32 >> 16), 0));
    }
    maybePhase(Phase::kCarved);
    ensureLoggedShared(fr, epoch);
    auto *first = reinterpret_cast<ObjectHeader *>(slab + headerOff);
    auto *last = reinterpret_cast<ObjectHeader *>(
        slab + (count - 1) * stride + headerOff);
    pushChain(fr, first, last, /*pendingTail=*/false);
    maybePhase(Phase::kCarvePublished);
}

void
DurableAllocator::allocLF(std::uint32_t slot, void **out, std::size_t n)
{
    std::size_t got = cacheTake(slot, out, n);
    if (got > 0)
        globalStats().add(Stat::kAllocFastPathHits, got);
    if (INCLL_UNLIKELY(got < n)) {
        // Refill: pop the shortfall plus one cache load as a single
        // segment; the surplus refills the cache.
        const std::uint32_t arena = arenaOfThisThread();
        DrainPin pin(*this);
        const std::uint64_t epoch = epochs_.writeEpoch();
        HeadRecord &fr = headOf(arena, slot, kFree);
        void *spare[kCacheTarget];
        std::size_t nSpare = 0;
        void *cut = nullptr;
        while (got < n) {
            const std::size_t want = n - got;
            const std::size_t k = popSegment(fr, epoch, out + got, want,
                                             spare, kCacheTarget, cut);
            if (k == 0) {
                carveSlab(arena, slot, epoch);
                continue;
            }
            got += std::min(k, want);
            nSpare = k - std::min(k, want);
        }
        if (nSpare > 0)
            cachePut(arena, slot, spare, nSpare, cut);
    }
    globalStats().add(Stat::kAllocs, n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<char *>(out[i]) + kHeaderSize;
}

void
DurableAllocator::freeLF(std::uint32_t slot, void *const *ps, std::size_t n)
{
    // Stage the frees in this thread slot's buffer. EBR still holds: a
    // staged object is on no list, so nothing can hand it out, and the
    // boundary pushes it onto the pending list before its flush — it
    // becomes allocatable only at the boundary after that.
    const std::uint32_t arena = arenaOfThisThread();
    ThreadCache &c = cacheOf(threadSlot(), slot);
    CacheLock lock(*this, c, /*fenceOpen=*/true);
    epochs_.noteWrite();
    for (std::size_t i = 0; i < n; ++i) {
        void *o = static_cast<char *>(ps[i]) - kHeaderSize;
        __builtin_prefetch(o, 1); // linked when the buffer is pushed
        c.freed[c.staged++] = o;
        if (c.staged == kCacheTarget) {
            pushObjects(arena, slot, kPending, c.freed, c.staged);
            c.staged = 0;
        }
    }
    globalStats().add(Stat::kFrees, n);
}

void
DurableAllocator::promotePending(std::uint64_t newEpoch)
{
    // Runs as an epoch-advance hook. The prepare hook closed the drain
    // fence before the global flush, so no shared-list operation is in
    // flight and none can start until the fence reopens — this splice
    // is exclusive. Version bumps keep the ABA guard monotonic.
    for (std::uint32_t arena = 0; arena < numArenas_; ++arena) {
        for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
            HeadRecord &pr = headOf(arena, slot, kPending);
            if (loadW(pr.head) == 0)
                continue;
            HeadRecord &fr = headOf(arena, slot, kFree);
            auto *tail =
                reinterpret_cast<ObjectHeader *>(loadW(pr.tail));
            recoverObjectHeader(tail);
            ensureLoggedShared(fr, newEpoch);
            ensureLoggedShared(pr, newEpoch);
            writeObjectNext(tail,
                            reinterpret_cast<void *>(loadW(fr.head)));
            storeW(fr.head, loadW(pr.head));
            storeW(fr.version, loadW(fr.version) + 1);
            storeW(pr.head, 0);
            storeW(pr.tail, 0);
            storeW(pr.version, loadW(pr.version) + 1);
            maybePhase(Phase::kPromoteSplice);
        }
    }
}

void
DurableAllocator::drainClose()
{
    drainClosed_.store(true, std::memory_order_seq_cst);
    drainPins_->waitIdle();
    // Push every staged free onto its arena's pending list while the
    // finishing epoch is open, so the flush makes each free of the
    // epoch durable. A free stages only under a cache flag it took
    // with the fence open; taking each flag here waits such a free out,
    // and any later one finds the fence closed. A slot stages only
    // after binding to an arena, and that binding (seq_cst) precedes
    // its fence check (seq_cst), so a slot read here as unbound cannot
    // have staged anything this epoch. A crash in here fails the
    // finishing epoch: the pushes roll back with the frees they carry.
    for (std::uint32_t ts = 0; ts < kMaxThreadSlots; ++ts) {
        const std::uint8_t arena =
            arenaOfSlot_[ts].load(std::memory_order_seq_cst);
        if (arena == 0xff)
            continue;
        for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
            ThreadCache &c = cacheOf(ts, slot);
            CacheLock lock(*this, c, /*fenceOpen=*/false);
            if (c.staged > 0) {
                pushObjects(arena, slot, kPending, c.freed, c.staged);
                c.staged = 0;
            }
        }
    }
}

void
DurableAllocator::drainOpen()
{
    drainClosed_.store(false, std::memory_order_release);
}

void
DurableAllocator::drainLocalCaches()
{
    for (std::uint32_t ts = 0; ts < kMaxThreadSlots; ++ts) {
        // A slot caches or stages objects only once bound to an arena.
        const std::uint8_t arena =
            arenaOfSlot_[ts].load(std::memory_order_acquire);
        if (arena == 0xff)
            continue;
        for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
            ThreadCache &c = cacheOf(ts, slot);
            CacheLock lock(*this, c, /*fenceOpen=*/true);
            if (c.staged > 0)
                pushObjects(arena, slot, kPending, c.freed, c.staged);
            if (c.count > 0)
                pushObjects(arena, slot, kFree, c.objs, c.count);
            c.staged = 0;
            c.count = 0;
            c.ahead = nullptr;
        }
    }
}

// ---------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------

void *
DurableAllocator::allocSlot(std::uint32_t slot)
{
    void *p = nullptr;
    allocLF(slot, &p, 1);
    return p;
}

void
DurableAllocator::freeSlot(std::uint32_t slot, void *p)
{
    freeLF(slot, &p, 1);
}

void *
DurableAllocator::alloc(std::size_t bytes)
{
    return allocSlot(SizeClasses::classOf(bytes));
}

void
DurableAllocator::free(void *p, std::size_t bytes)
{
    freeSlot(SizeClasses::classOf(bytes), p);
}

void *
DurableAllocator::allocAligned(std::size_t bytes)
{
    void *p =
        allocSlot(SizeClasses::classOf(bytes) + SizeClasses::kNumClasses);
    assert(reinterpret_cast<std::uintptr_t>(p) % kCacheLineSize == 0);
    return p;
}

void
DurableAllocator::freeAligned(void *p, std::size_t bytes)
{
    freeSlot(SizeClasses::classOf(bytes) + SizeClasses::kNumClasses, p);
}

void
DurableAllocator::allocMany(std::size_t bytes, void **out, std::size_t n)
{
    if (n == 0)
        return;
    allocLF(SizeClasses::classOf(bytes), out, n);
}

void
DurableAllocator::freeMany(void *const *ps, std::size_t n,
                           std::size_t bytes)
{
    if (n == 0)
        return;
    freeLF(SizeClasses::classOf(bytes), ps, n);
}

void
DurableAllocator::recoverHeads()
{
    // Called once at attach on a fresh instance (caches empty, claim
    // words re-derived below); single-threaded by contract.
    const std::uint64_t execEpoch = epochs_.firstExecEpoch();
    for (std::uint32_t arena = 0; arena < numArenas_; ++arena) {
        for (std::uint32_t slot = 0; slot < kNumSlots; ++slot) {
            for (auto kind : {kFree, kPending}) {
                HeadRecord &rec = headOf(arena, slot, kind);
                if (epochs_.isFailed(rec.epoch)) {
                    nvm::pstore(rec.head, rec.headInCLL);
                    nvm::pstore(rec.tail, rec.tailInCLL);
                }
                // Make skipping the in-line log in epoch execEpoch safe:
                // the logged copies must equal the live values.
                nvm::pstore(rec.headInCLL, rec.head);
                nvm::pstore(rec.tailInCLL, rec.tail);
                std::atomic_thread_fence(std::memory_order_release);
                nvm::pstore(rec.epoch, execEpoch);
                logStateOf(rec).store(execEpoch * 2 + 1,
                                      std::memory_order_relaxed);
            }
        }
    }
}

std::uint64_t
DurableAllocator::freeCount(std::uint32_t arena, std::uint32_t cls,
                            bool aligned) const
{
    const std::uint32_t slot =
        cls + (aligned ? SizeClasses::kNumClasses : 0);
    std::uint64_t n = 0;
    auto *o = reinterpret_cast<ObjectHeader *>(
        loadW(headOf(arena, slot, kFree).head));
    while (o != nullptr) {
        ++n;
        o = static_cast<ObjectHeader *>(resolveNext(o));
    }
    return n;
}

std::uint64_t
DurableAllocator::pendingCount(std::uint32_t arena, std::uint32_t cls,
                               bool aligned) const
{
    const std::uint32_t slot =
        cls + (aligned ? SizeClasses::kNumClasses : 0);
    std::uint64_t n = 0;
    auto *o = reinterpret_cast<ObjectHeader *>(
        loadW(headOf(arena, slot, kPending).head));
    while (o != nullptr) {
        ++n;
        o = static_cast<ObjectHeader *>(resolveNext(o));
    }
    for (std::uint32_t ts = 0; ts < kMaxThreadSlots; ++ts)
        if (arenaOfSlot_[ts].load(std::memory_order_acquire) == arena)
            n += cacheOf(ts, slot).staged;
    return n;
}

std::vector<void *>
DurableAllocator::listObjects(std::uint32_t arena, std::uint32_t cls,
                              bool aligned, bool pending) const
{
    const std::uint32_t slot =
        cls + (aligned ? SizeClasses::kNumClasses : 0);
    std::vector<void *> out;
    auto *o = reinterpret_cast<ObjectHeader *>(
        loadW(headOf(arena, slot, pending ? kPending : kFree).head));
    // Cap the walk so a corrupt list fails a test instead of hanging it.
    constexpr std::size_t kWalkCap = std::size_t{1} << 22;
    while (o != nullptr && out.size() < kWalkCap) {
        out.push_back(reinterpret_cast<char *>(o) + kHeaderSize);
        o = static_cast<ObjectHeader *>(resolveNext(o));
    }
    assert(o == nullptr && "allocator list walk exceeded sanity cap");
    return out;
}

} // namespace incll
