/**
 * @file
 * Simulated persistent-memory pool implementation.
 */
#include "nvm/pool.h"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace incll::nvm {

namespace {

/** Outstanding clwb()s of this thread, waiting for an sfence. */
thread_local std::vector<std::pair<Pool *, std::size_t>> tlPendingLines;

/**
 * Per-thread, per-pool RNGs for adversary coin flips (cheap,
 * uncontended). Each entry is seeded from its pool's seed on the
 * thread's first store into that pool, so same-seed pools replay
 * identical eviction decisions no matter how many pools the process
 * created before (crash-test reproducibility) — and a thread working
 * against several tracked shard pools keeps an independent stream per
 * pool instead of restarting one shared stream on every switch.
 */
struct AdversaryCoin
{
    std::uint64_t poolGen = 0;
    Rng rng{0};
};
thread_local std::vector<AdversaryCoin> tlAdversaryCoins;

/** Monotonic id generator distinguishing pool instances. */
std::atomic<std::uint64_t> poolGenCounter{0};

/**
 * Tracked-pool registry. Slots are sparse (nullptr = free); writers
 * serialise on the lock, the store hot path only reads the slots and the
 * published count. Sized for far more shards than any store configures.
 */
constexpr std::size_t kMaxTrackedPools = 64;
std::atomic<Pool *> trackedPools[kMaxTrackedPools];
SpinLock trackedRegistryLock;

} // namespace

namespace detail {

std::atomic<std::size_t> trackedPoolCount{0};

void
onTrackedStore(const void *addr, std::size_t len)
{
    std::size_t remaining = trackedPoolCount.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < kMaxTrackedPools && remaining != 0; ++i) {
        Pool *pool = trackedPools[i].load(std::memory_order_acquire);
        if (pool == nullptr)
            continue;
        --remaining;
        if (pool->contains(addr)) {
            pool->onStore(addr, len);
            return;
        }
    }
}

} // namespace detail

void
registerTrackedPool(Pool &pool)
{
    std::lock_guard<SpinLock> guard(trackedRegistryLock);
    std::size_t free = kMaxTrackedPools;
    for (std::size_t i = 0; i < kMaxTrackedPools; ++i) {
        Pool *cur = trackedPools[i].load(std::memory_order_relaxed);
        if (cur == &pool)
            return; // already registered
        if (cur == nullptr && free == kMaxTrackedPools)
            free = i;
    }
    if (free == kMaxTrackedPools)
        throw std::length_error(
            "tracked-pool registry full (64 pools); fewer shards, or raise "
            "kMaxTrackedPools");
    trackedPools[free].store(&pool, std::memory_order_release);
    detail::trackedPoolCount.fetch_add(1, std::memory_order_release);
}

void
unregisterTrackedPool(Pool &pool)
{
    std::lock_guard<SpinLock> guard(trackedRegistryLock);
    for (std::size_t i = 0; i < kMaxTrackedPools; ++i) {
        if (trackedPools[i].load(std::memory_order_relaxed) == &pool) {
            trackedPools[i].store(nullptr, std::memory_order_release);
            detail::trackedPoolCount.fetch_sub(1,
                                               std::memory_order_release);
            return;
        }
    }
}

Pool::Pool(std::size_t bytes, Mode mode, std::uint64_t seed)
    : mode_(mode), adversaryRng_(seed),
      gen_(poolGenCounter.fetch_add(1, std::memory_order_relaxed) + 1)
{
    // Distinct stream from adversaryRng_, but derived from the same seed.
    std::uint64_t s = seed ^ 0x9e3779b97f4a7c15ULL;
    coinSeed_ = splitmix64(s);
    size_ = (bytes + kCacheLineSize - 1) & ~(kCacheLineSize - 1);
    assert(size_ > kHeapOffset && "pool too small for meta + root area");
    numLines_ = size_ / kCacheLineSize;

    // Both regions start 2 MiB-aligned (rawAlloc aligns offsets relative
    // to the base) and arrive zeroed: the kernel zeroes each page at its
    // first touch, so nothing is written here and the resident size
    // grows with what rawAlloc hands out.
    primary_ = mapZeroed(size_);

    if (mode_ == Mode::kTracked) {
        shadow_ = mapZeroed(size_);
        const std::size_t words = (numLines_ + 63) / 64;
        dirty_ = std::make_unique<std::atomic<std::uint64_t>[]>(words);
        for (std::size_t i = 0; i < words; ++i)
            dirty_[i].store(0, std::memory_order_relaxed);
    }

    // Durable bump cursor lives in the meta line at offset 0.
    const std::uint64_t initialCursor = kHeapOffset;
    cursor_.store(initialCursor, std::memory_order_relaxed);
    std::memcpy(primary_.get(), &initialCursor, sizeof(initialCursor));
    if (mode_ == Mode::kTracked)
        std::memcpy(shadow_.get(), &initialCursor, sizeof(initialCursor));
}

Pool::~Pool()
{
    unregisterTrackedPool(*this);
    // Drop any of this thread's pending write-backs that target us, and
    // this thread's adversary coin stream for us — pool gens are never
    // reused, so stale entries would otherwise pile up one per pool ever
    // created on a long-lived thread (quadratic trial loops). Other
    // threads' entries die with the thread.
    std::erase_if(tlPendingLines,
                  [this](const auto &e) { return e.first == this; });
    std::erase_if(tlAdversaryCoins,
                  [this](const auto &e) { return e.poolGen == gen_; });
}

std::size_t
Pool::rawAvailable() const
{
    return size_ - cursor_.load(std::memory_order_relaxed);
}

void *
Pool::rawAlloc(std::size_t bytes, std::size_t align)
{
    assert(align >= 16 && (align & (align - 1)) == 0);
    std::uint64_t oldCur, base, newCur;
    do {
        oldCur = cursor_.load(std::memory_order_relaxed);
        base = (oldCur + align - 1) & ~(align - 1);
        newCur = base + bytes;
        if (newCur > size_)
            throw std::bad_alloc();
    } while (!cursor_.compare_exchange_weak(oldCur, newCur,
                                            std::memory_order_relaxed));

    // Persist the cursor before handing out the block, so a crash can
    // never re-allocate memory that was already given away. The durable
    // write-back must be serialized and re-read the live cursor: with
    // concurrent allocators, persisting our own newCur could overwrite
    // a later allocator's (larger) persisted value, and a crash then
    // would re-allocate that thread's block. Under the lock the loaded
    // cursor is >= our newCur, so our block is covered before return.
    {
        std::lock_guard<SpinLock> guard(cursorPersistLock_);
        const std::uint64_t cur = cursor_.load(std::memory_order_relaxed);
        std::memcpy(primary_.get(), &cur, sizeof(cur));
        onStore(primary_.get(), sizeof(cur));
        clwb(primary_.get());
        sfence();
    }

    char *block = primary_.get() + base;
    pmemset(block, 0, bytes);
    return block;
}

void
Pool::onStoreTracked(const void *addr, std::size_t len)
{
    // Stores to transient memory (anything outside the pool) need no
    // tracking; they are simply lost at a crash, as they should be.
    if (!contains(addr))
        return;
    const std::size_t first = lineIndexOf(addr);
    const std::size_t last =
        lineIndexOf(static_cast<const char *>(addr) + len - 1);
    for (std::size_t line = first; line <= last; ++line) {
        dirty_[line / 64].fetch_or(std::uint64_t{1} << (line % 64),
                                   std::memory_order_release);
    }

    const std::uint64_t threshold =
        evictThresholdQ32_.load(std::memory_order_relaxed);
    if (INCLL_UNLIKELY(threshold != 0)) {
        AdversaryCoin *coin = nullptr;
        for (auto &entry : tlAdversaryCoins) {
            if (entry.poolGen == gen_) {
                coin = &entry;
                break;
            }
        }
        if (coin == nullptr) {
            coin = &tlAdversaryCoins.emplace_back();
            coin->poolGen = gen_;
            coin->rng.reseed(coinSeed_);
        }
        if ((coin->rng.next() >> 32) < threshold)
            evictRandomLines(1);
    }
}

void
Pool::writebackLine(std::size_t lineIdx)
{
    // Clear the dirty bit *before* snapshotting: a racing store that we
    // miss re-marks the line, so persistence is never silently lost.
    dirty_[lineIdx / 64].fetch_and(~(std::uint64_t{1} << (lineIdx % 64)),
                                   std::memory_order_acquire);

    // Copy word-by-word with relaxed atomic loads: concurrent 8-byte
    // stores are never torn, and interleaving at word granularity is
    // exactly the nondeterminism real cache write-back exhibits.
    auto *src = reinterpret_cast<const std::uint64_t *>(
        primary_.get() + lineIdx * kCacheLineSize);
    auto *dst = reinterpret_cast<std::uint64_t *>(
        shadow_.get() + lineIdx * kCacheLineSize);
    for (std::size_t w = 0; w < kCacheLineSize / sizeof(std::uint64_t); ++w)
        dst[w] = __atomic_load_n(&src[w], __ATOMIC_RELAXED);
}

void
Pool::clwb(const void *addr)
{
    globalStats().add(Stat::kClwb);
    if (mode_ == Mode::kDirect)
        return;
    assert(contains(addr));
    tlPendingLines.emplace_back(this, lineIndexOf(addr));
}

void
Pool::flushRange(const void *addr, std::size_t len)
{
    const auto base = reinterpret_cast<std::uintptr_t>(addr);
    const auto first = cacheLineBase(base);
    const auto last = cacheLineBase(base + len - 1);
    for (std::uintptr_t line = first; line <= last;
         line += kCacheLineSize)
        clwb(reinterpret_cast<const void *>(line));
    sfence();
}

void
Pool::sfence()
{
    globalStats().add(Stat::kSfence);
    if (mode_ == Mode::kTracked) {
        for (const auto &[pool, line] : tlPendingLines) {
            if (pool == this)
                writebackLine(line);
        }
        std::erase_if(tlPendingLines,
                      [this](const auto &e) { return e.first == this; });
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    spinNs(latency_.sfenceExtraNs);
}

std::uint64_t
Pool::wbinvdFlushAll()
{
    globalStats().add(Stat::kWbinvd);
    if (mode_ == Mode::kDirect) {
        spinNs(latency_.wbinvdNs);
        return 0;
    }
    std::uint64_t flushed = 0;
    const std::size_t words = (numLines_ + 63) / 64;
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = dirty_[w].load(std::memory_order_acquire);
        while (bits != 0) {
            const unsigned bit = __builtin_ctzll(bits);
            bits &= bits - 1;
            writebackLine(w * 64 + bit);
            ++flushed;
        }
    }
    // Also complete this thread's pending clwb()s; wbinvd subsumes them.
    std::erase_if(tlPendingLines,
                  [this](const auto &e) { return e.first == this; });
    globalStats().add(Stat::kLinesFlushed, flushed);
    return flushed;
}

void
Pool::setEvictionRate(double perStoreProbability)
{
    assert(perStoreProbability >= 0.0 && perStoreProbability <= 1.0);
    evictThresholdQ32_.store(
        static_cast<std::uint64_t>(perStoreProbability * 4294967296.0),
        std::memory_order_relaxed);
}

void
Pool::evictRandomLines(std::size_t n)
{
    if (mode_ == Mode::kDirect)
        return;
    std::lock_guard<SpinLock> guard(adversaryLock_);
    const std::size_t words = (numLines_ + 63) / 64;
    for (std::size_t i = 0; i < n; ++i) {
        // Pick a random word, then scan forward (with wrap-around) for a
        // dirty line; give up after one full sweep.
        const std::size_t start = adversaryRng_.nextBounded(words);
        bool found = false;
        for (std::size_t k = 0; k < words && !found; ++k) {
            const std::size_t w = (start + k) % words;
            const std::uint64_t bits =
                dirty_[w].load(std::memory_order_acquire);
            if (bits == 0)
                continue;
            // Choose a random set bit of this word.
            const unsigned popcnt = __builtin_popcountll(bits);
            unsigned target = static_cast<unsigned>(
                adversaryRng_.nextBounded(popcnt));
            std::uint64_t b = bits;
            unsigned bit = 0;
            while (true) {
                bit = __builtin_ctzll(b);
                if (target == 0)
                    break;
                --target;
                b &= b - 1;
            }
            writebackLine(w * 64 + bit);
            found = true;
        }
        if (!found)
            return; // nothing dirty
    }
}

void
Pool::crash(double extraEvictionProbability)
{
    assert(mode_ == Mode::kTracked);

    // Some dirty lines may have been written back just before the power
    // failed; let the adversary decide which.
    if (extraEvictionProbability > 0.0) {
        std::lock_guard<SpinLock> guard(adversaryLock_);
        const std::size_t words = (numLines_ + 63) / 64;
        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t bits = dirty_[w].load(std::memory_order_acquire);
            while (bits != 0) {
                const unsigned bit = __builtin_ctzll(bits);
                bits &= bits - 1;
                if (adversaryRng_.nextDouble() < extraEvictionProbability)
                    writebackLine(w * 64 + bit);
            }
        }
    }

    // Everything still in "cache" is lost; memory now shows the durable
    // image, exactly what a restarted process would map from NVM.
    std::memcpy(primary_.get(), shadow_.get(), size_);
    const std::size_t words = (numLines_ + 63) / 64;
    for (std::size_t w = 0; w < words; ++w)
        dirty_[w].store(0, std::memory_order_relaxed);
    std::erase_if(tlPendingLines,
                  [this](const auto &e) { return e.first == this; });

    // Reload the transient copy of the durable bump cursor.
    std::uint64_t cur;
    std::memcpy(&cur, primary_.get(), sizeof(cur));
    cursor_.store(cur, std::memory_order_relaxed);
}

std::uint64_t
Pool::dirtyLineCount() const
{
    if (mode_ == Mode::kDirect)
        return 0;
    std::uint64_t count = 0;
    const std::size_t words = (numLines_ + 63) / 64;
    for (std::size_t w = 0; w < words; ++w)
        count += __builtin_popcountll(
            dirty_[w].load(std::memory_order_relaxed));
    return count;
}

void
pmemcpy(void *dst, const void *src, std::size_t len)
{
    std::memcpy(dst, src, len);
    if (INCLL_UNLIKELY(detail::anyTrackedPools()))
        detail::onTrackedStore(dst, len);
}

void
pmemset(void *dst, int value, std::size_t len)
{
    std::memset(dst, value, len);
    if (INCLL_UNLIKELY(detail::anyTrackedPools()))
        detail::onTrackedStore(dst, len);
}

} // namespace incll::nvm
