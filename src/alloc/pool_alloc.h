/**
 * @file
 * Transient allocators for the baseline trees.
 *
 * The paper's Fig. 2 ladder compares three configurations:
 *   MT    — unmodified Masstree, heap allocation (jemalloc there,
 *           malloc here): MallocAllocator.
 *   MT+   — Masstree with an mmap-backed pool allocator: PoolAllocator
 *           (size-class free lists carved from slabs mapped like the
 *           durable pools, nvm/mapping.h, so MT+ and INCLL both run
 *           on 2 MiB pages).
 *   INCLL — the durable tree with the DurableAllocator.
 *
 * PoolAllocator reuses the freed object's first word as the free-list
 * link, so allocated objects carry zero header overhead.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "alloc/durable_alloc.h" // SizeClasses
#include "common/spinlock.h"
#include "nvm/mapping.h"

namespace incll {

/** Heap allocator (the paper's MT baseline). */
class MallocAllocator
{
  public:
    void *
    alloc(std::size_t bytes)
    {
        void *p = nullptr;
        if (posix_memalign(&p, 64, bytes) != 0)
            throw std::bad_alloc();
        return p;
    }

    void free(void *p, std::size_t) { std::free(p); }
};

/** Slab/pool allocator (the paper's MT+ enhancement). */
class PoolAllocator
{
  public:
    static constexpr std::uint32_t kArenas = 8;

    /** @p slabBytes: the default slab is one 2 MiB huge page. */
    explicit PoolAllocator(std::size_t slabBytes = nvm::kHugePageSize)
        : slabBytes_(slabBytes)
    {
    }

    PoolAllocator(const PoolAllocator &) = delete;
    PoolAllocator &operator=(const PoolAllocator &) = delete;

    /** Allocate @p bytes (16-byte aligned). */
    void *alloc(std::size_t bytes);

    /** Return @p p (allocated with the same @p bytes) to its class. */
    void free(void *p, std::size_t bytes);

  private:
    struct Arena
    {
        void *heads[SizeClasses::kNumClasses] = {};
        SpinLock lock;
    };

    std::uint32_t arenaOfThisThread();

    std::size_t slabBytes_;
    Arena arenas_[kArenas];
    SpinLock slabsLock_;
    std::vector<nvm::Mapping> slabs_;
};

} // namespace incll
