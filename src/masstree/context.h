/**
 * @file
 * Runtime context threaded through every tree operation.
 *
 * The durable configuration needs access to the pool, the epoch manager,
 * the external log, the durable allocator and the transient recovery
 * lock array (paper §4.3); transient configurations only need their
 * allocator. The context is held by the Tree and passed by reference.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "common/hash.h"
#include "common/spinlock.h"
#include "epoch/epoch_manager.h"
#include "log/external_log.h"
#include "nvm/pool.h"

namespace incll::mt {

/** Context for the durable (INCLL / LOGGING) configuration. */
struct DurableContext
{
    static constexpr std::size_t kNumRecoveryLocks = 1024;

    nvm::Pool *pool = nullptr;
    EpochManager *epochs = nullptr;
    ExternalLog *log = nullptr;
    DurableAllocator *alloc = nullptr;

    /**
     * When false, the tree runs in the paper's LOGGING ablation mode:
     * the In-Cache-Line Logs are not used and every node is externally
     * logged on its first modification in an epoch (Figures 7, 8).
     */
    bool inCllEnabled = true;

    /**
     * Transient locks used to serialise lazy node recovery. The node's
     * own lock cannot be used because its state did not survive the
     * crash (§4.3).
     */
    std::unique_ptr<SpinLock[]> recoveryLocks =
        std::make_unique<SpinLock[]>(kNumRecoveryLocks);

    SpinLock &
    recoveryLockFor(const void *node)
    {
        return recoveryLocks[hashPointer(node) % kNumRecoveryLocks];
    }

    /** Epoch stamp for a durable store; marks the epoch written. */
    std::uint64_t writeEpoch() { return epochs->writeEpoch(); }
    /** Mark the epoch written (lazy recovery's stores). */
    void noteWrite() { epochs->noteWrite(); }
    std::uint64_t firstExecEpoch() const { return epochs->firstExecEpoch(); }
    bool isFailed(std::uint64_t e) const { return epochs->isFailed(e); }

    /** Log a node image; the log is sized so this cannot fail in normal
     *  operation — a full log is a configuration error. */
    void
    logObjectOrDie(const void *addr, std::uint32_t size)
    {
        if (!log->logObject(addr, size, writeEpoch()))
            throw std::runtime_error(
                "external log buffer full; enlarge ExternalLog buffers "
                "or shorten the epoch interval");
    }

    void *allocBytes(std::size_t n) { return alloc->alloc(n); }
    void freeBytes(void *p, std::size_t n) { alloc->free(p, n); }

    /**
     * Cache-line-aligned allocation for layout-sensitive objects (leaf
     * nodes, layer roots): the InCLL correctness argument requires each
     * logical node line to be one physical cache line.
     */
    void *allocNodeBytes(std::size_t n) { return alloc->allocAligned(n); }
    void freeNodeBytes(void *p, std::size_t n) { alloc->freeAligned(p, n); }
};

/** Context for the transient (MT / MT+) configurations. */
template <typename Allocator>
struct TransientContext
{
    Allocator *alloc = nullptr;

    void *allocBytes(std::size_t n) { return alloc->alloc(n); }
    void freeBytes(void *p, std::size_t n) { alloc->free(p, n); }

    // Transient nodes carry no InCLLs; 64-byte-multiple classes from
    // 64-aligned slabs still come out line-aligned (cache friendliness).
    void *allocNodeBytes(std::size_t n) { return alloc->alloc(n); }
    void freeNodeBytes(void *p, std::size_t n) { alloc->free(p, n); }
};

template <typename Config>
using ContextOf =
    std::conditional_t<Config::kDurable, DurableContext,
                       TransientContext<typename Config::Allocator>>;

} // namespace incll::mt
