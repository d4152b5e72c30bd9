/**
 * @file
 * Shard lifecycle implementation.
 */
#include "store/shard.h"

namespace incll::store {

// The store layer keeps its manifest (two slots, see placement.h) in the
// tail of the pool root area; the masstree layer's DurableRoot grows
// from the head. They share the 8 KiB area, so neither may reach the
// other — and the manifest takes everything the root leaves free.
static_assert(sizeof(mt::DurableRoot) + kManifestAreaBytes ==
                  nvm::Pool::kRootAreaSize,
              "the manifest area must be exactly what DurableRoot leaves");

Shard::Shard(std::size_t poolBytes, nvm::Mode mode, std::uint64_t poolSeed,
             const StoreConfig &config)
    : pool_(std::make_unique<nvm::Pool>(poolBytes, mode, poolSeed))
{
    // Register before the first durable store so the fresh tree's root
    // sealing is tracked like everything after it.
    if (pool_->mode() == nvm::Mode::kTracked)
        nvm::registerTrackedPool(*pool_);
    tree_ = std::make_unique<mt::DurableMasstree>(*pool_,
                                                  config.treeOptions());
}

Shard::Shard(std::unique_ptr<nvm::Pool> pool, RecoverTag,
             const StoreConfig &config)
    : pool_(std::move(pool))
{
    if (pool_->mode() == nvm::Mode::kTracked)
        nvm::registerTrackedPool(*pool_); // idempotent
    tree_ = std::make_unique<mt::DurableMasstree>(
        *pool_, mt::DurableMasstree::kRecover, config.treeOptions());
}

std::unique_ptr<nvm::Pool>
Shard::releasePool()
{
    tree_.reset();
    return std::move(pool_);
}

} // namespace incll::store
