/**
 * @file
 * Transient pool allocator implementation.
 */
#include "alloc/pool_alloc.h"

#include <atomic>
#include <cassert>
#include <utility>

namespace incll {

namespace {

std::atomic<std::uint32_t> gNextArena{0};
thread_local std::uint32_t tlArena = UINT32_MAX;

} // namespace

std::uint32_t
PoolAllocator::arenaOfThisThread()
{
    if (tlArena == UINT32_MAX)
        tlArena = gNextArena.fetch_add(1, std::memory_order_relaxed);
    return tlArena % kArenas;
}

void *
PoolAllocator::alloc(std::size_t bytes)
{
    const std::uint32_t cls = SizeClasses::classOf(bytes);
    Arena &arena = arenas_[arenaOfThisThread()];
    std::lock_guard<SpinLock> guard(arena.lock);

    if (arena.heads[cls] == nullptr) {
        // Carve a fresh slab into objects of this class.
        const std::size_t stride = SizeClasses::bytesOf(cls);
        const std::size_t count = slabBytes_ / stride;
        nvm::Mapping mapping = nvm::mapZeroed(slabBytes_);
        char *slab = mapping.get();
        {
            std::lock_guard<SpinLock> slabGuard(slabsLock_);
            slabs_.push_back(std::move(mapping));
        }
        for (std::size_t i = count; i-- > 0;) {
            void *obj = slab + i * stride;
            *static_cast<void **>(obj) =
                (i + 1 < count) ? slab + (i + 1) * stride : nullptr;
        }
        arena.heads[cls] = slab;
    }

    void *obj = arena.heads[cls];
    arena.heads[cls] = *static_cast<void **>(obj);
    return obj;
}

void
PoolAllocator::free(void *p, std::size_t bytes)
{
    const std::uint32_t cls = SizeClasses::classOf(bytes);
    Arena &arena = arenas_[arenaOfThisThread()];
    std::lock_guard<SpinLock> guard(arena.lock);
    *static_cast<void **>(p) = arena.heads[cls];
    arena.heads[cls] = p;
}

} // namespace incll
