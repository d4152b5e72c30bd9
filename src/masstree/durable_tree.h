/**
 * @file
 * DurableMasstree: the package a user actually instantiates.
 *
 * Owns the durable root record (pool root area), the epoch manager, the
 * external undo log, the durable allocator and the tree itself, and
 * implements the two lifecycle entry points:
 *
 *  - fresh construction in an empty pool, and
 *  - crash-recovery attach (paper §4.3): mark the interrupted epoch
 *    failed, apply the external log eagerly (entries are independent),
 *    roll back the allocator's list heads, and let every node repair
 *    itself lazily on first access through its InCLLs.
 *
 * TransientMasstree packages the MT / MT+ baselines the same way.
 */
#pragma once

#include <memory>

#include "alloc/durable_alloc.h"
#include "epoch/epoch_manager.h"
#include "log/external_log.h"
#include "masstree/tree.h"
#include "nvm/pool.h"

namespace incll::mt {

/** Durable root record, at a fixed location in the pool's root area. */
struct alignas(kCacheLineSize) DurableRoot
{
    static constexpr std::uint64_t kMagic = 0x1ac11d00dacc11e5ULL;

    std::uint64_t magic;
    std::uint64_t globalEpoch;
    std::uint64_t allocStateOffset;
    std::uint64_t reserved[5];
    LayerRoot layer0; // 64-aligned by construction
    LogDirectoryRecord logDir;
    FailedEpochRecord failed;
};

static_assert(sizeof(DurableRoot) <= nvm::Pool::kRootAreaSize,
              "root record must fit the pool root area");

class DurableMasstree
{
  public:
    /**
     * Component configuration. The store layer mirrors these fields in
     * store::StoreConfig (same names, defaults sourced from here, plus
     * store-level placement knobs this layer must not know about) and
     * converts back via StoreConfig::treeOptions() — which relies on
     * this struct's member order, so extend both together. The
     * definition stays here so masstree never depends on the store
     * layer above it.
     */
    struct Options
    {
        std::uint32_t logBuffers = 8;
        std::size_t logBufferBytes = ExternalLog::kDefaultBufferBytes;
        /** 0 = auto-size from std::thread::hardware_concurrency. */
        std::uint32_t allocArenas = 0;
        bool inCllEnabled = true; ///< false = the paper's LOGGING mode
    };

    struct RecoverTag
    {
    };
    static constexpr RecoverTag kRecover{};

    /** Create a fresh durable tree in an empty pool. */
    DurableMasstree(nvm::Pool &pool, Options options);

    explicit DurableMasstree(nvm::Pool &pool)
        : DurableMasstree(pool, Options())
    {
    }

    /** Re-attach to a crashed pool and run recovery. */
    DurableMasstree(nvm::Pool &pool, RecoverTag, Options options);

    DurableMasstree(nvm::Pool &pool, RecoverTag tag)
        : DurableMasstree(pool, tag, Options())
    {
    }

    DurableMasstree(const DurableMasstree &) = delete;
    DurableMasstree &operator=(const DurableMasstree &) = delete;

    /**
     * Clean detach: spill the allocator's thread caches back to the
     * shared free lists so a graceful shutdown strands nothing. Safe
     * because members are still alive here; a simulated crash rolls
     * these writes back with the rest of the epoch, which is exactly
     * the crashed-process semantics.
     */
    ~DurableMasstree() { alloc_->drainLocalCaches(); }

    // -- the public index API -------------------------------------------

    bool get(std::string_view key, void *&out) { return tree_.get(key, out); }

    bool
    put(std::string_view key, void *val, void **oldOut = nullptr)
    {
        return tree_.put(key, val, oldOut);
    }

    bool
    remove(std::string_view key, void **oldOut = nullptr)
    {
        return tree_.remove(key, oldOut);
    }

    template <typename F>
    std::size_t
    scan(std::string_view start, std::size_t limit, F &&cb)
    {
        return tree_.scan(start, limit, std::forward<F>(cb));
    }

    /** Allocate a durable value buffer (flush-free, paper §5). */
    void *allocValue(std::size_t bytes) { return alloc_->alloc(bytes); }

    /** Free a value buffer (reusable at the next epoch boundary). */
    void freeValue(void *p, std::size_t bytes) { alloc_->free(p, bytes); }

    /**
     * Key-aware allocation, the form the store interface uses: a sharded
     * store must place a value in the pool of the shard that owns the
     * key, so allocation carries the key. A single tree has one pool and
     * ignores it.
     */
    void *
    allocValueFor(std::string_view, std::size_t bytes)
    {
        return allocValue(bytes);
    }

    void
    freeValueFor(std::string_view, void *p, std::size_t bytes)
    {
        freeValue(p, bytes);
    }

    /** Batched value allocation: O(1) shared-list operations for the
     *  whole batch in the allocator's lock-free mode. */
    void
    allocValueMany(std::size_t bytes, void **out, std::size_t n)
    {
        alloc_->allocMany(bytes, out, n);
    }

    /** Batched value free (reusable at the next epoch boundary). */
    void
    freeValueMany(void *const *ps, std::size_t n, std::size_t bytes)
    {
        alloc_->freeMany(ps, n, bytes);
    }

    /** Advance the checkpoint epoch once (see EpochManager::advance). */
    void advanceEpoch() { epochs_->advance(); }

    // -- component access -------------------------------------------------

    Tree<ConfigInCLL> &tree() { return tree_; }
    EpochManager &epochs() { return *epochs_; }
    ExternalLog &log() { return *log_; }
    DurableAllocator &allocator() { return *alloc_; }
    DurableContext &context() { return ctx_; }
    DurableRoot &root() { return *root_; }

    /** Nodes restored from the external log by the last recovery. */
    std::uint64_t lastRecoveryLogApplied() const { return logApplied_; }

  private:
    void wire(nvm::Pool &pool, const Options &options, bool fresh);

    DurableRoot *root_ = nullptr;
    std::unique_ptr<EpochManager> epochs_;
    std::unique_ptr<ExternalLog> log_;
    std::unique_ptr<DurableAllocator> alloc_;
    DurableContext ctx_;
    Tree<ConfigInCLL> tree_;
    std::uint64_t logApplied_ = 0;
};

/** Convenience wrapper for the transient baselines (MT, MT+). */
template <typename Config>
class TransientMasstree
{
  public:
    TransientMasstree()
    {
        ctx_.alloc = &alloc_;
        tree_.init(&ctx_, &layer0_);
    }

    ~TransientMasstree() { tree_.destroy(); }

    TransientMasstree(const TransientMasstree &) = delete;
    TransientMasstree &operator=(const TransientMasstree &) = delete;

    bool get(std::string_view key, void *&out) { return tree_.get(key, out); }

    bool
    put(std::string_view key, void *val, void **oldOut = nullptr)
    {
        return tree_.put(key, val, oldOut);
    }

    bool
    remove(std::string_view key, void **oldOut = nullptr)
    {
        return tree_.remove(key, oldOut);
    }

    template <typename F>
    std::size_t
    scan(std::string_view start, std::size_t limit, F &&cb)
    {
        return tree_.scan(start, limit, std::forward<F>(cb));
    }

    void *allocValue(std::size_t bytes) { return alloc_.alloc(bytes); }
    void freeValue(void *p, std::size_t bytes) { alloc_.free(p, bytes); }

    void *
    allocValueFor(std::string_view, std::size_t bytes)
    {
        return allocValue(bytes);
    }

    void
    freeValueFor(std::string_view, void *p, std::size_t bytes)
    {
        freeValue(p, bytes);
    }

    void
    allocValueMany(std::size_t bytes, void **out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = alloc_.alloc(bytes);
    }

    void
    freeValueMany(void *const *ps, std::size_t n, std::size_t bytes)
    {
        for (std::size_t i = 0; i < n; ++i)
            alloc_.free(ps[i], bytes);
    }

    Tree<Config> &tree() { return tree_; }
    typename Config::Allocator &allocator() { return alloc_; }

  private:
    typename Config::Allocator alloc_;
    TransientContext<typename Config::Allocator> ctx_;
    LayerRoot layer0_;
    Tree<Config> tree_;
};

using MasstreeMT = TransientMasstree<ConfigMT>;
using MasstreeMTPlus = TransientMasstree<ConfigMTPlus>;

} // namespace incll::mt
