/**
 * @file
 * DurableMasstree lifecycle: fresh construction and crash recovery.
 */
#include "masstree/durable_tree.h"

#include <cassert>
#include <stdexcept>

namespace incll::mt {

DurableMasstree::DurableMasstree(nvm::Pool &pool, Options options)
{
    wire(pool, options, /*fresh=*/true);
    tree_.init(&ctx_, &root_->layer0);

    // Seal the root record: everything the recovery path needs must be
    // durable before the first epoch can commit any data.
    nvm::pstore(root_->magic, DurableRoot::kMagic);
    pool.clwb(&root_->magic);
    pool.sfence();
}

DurableMasstree::DurableMasstree(nvm::Pool &pool, RecoverTag,
                                 Options options)
{
    auto *root = static_cast<DurableRoot *>(pool.rootArea());
    if (root->magic != DurableRoot::kMagic)
        throw std::runtime_error("pool does not contain a durable tree");

    wire(pool, options, /*fresh=*/false);

    // 1. The epoch that was in progress at the crash has failed; open a
    //    fresh one (durably) before anything is rolled back.
    epochs_->markCrashRecovery();

    // 2. Apply the external undo log eagerly. Entries are independent
    //    (one per node per epoch), so order does not matter within one
    //    failed epoch; across multiple failed epochs the oldest image
    //    wins (see ExternalLog::applyForRecovery). The restorations are
    //    plain cache writes: if we crash again before they are flushed,
    //    recovery simply runs again (§4.3).
    logApplied_ = log_->applyForRecovery(epochs_->failedSet(),
                                         epochs_->oldestRelevantFailed());

    // 3. Roll back the allocator's free/pending list heads.
    alloc_->recoverHeads();

    // 4. The layer-0 root record is recovered eagerly (deeper layer
    //    records recover lazily during descents, like nodes do).
    root_->layer0.maybeRecover(ctx_);

    tree_.attach(&ctx_, &root_->layer0);
}

void
DurableMasstree::wire(nvm::Pool &pool, const Options &options, bool fresh)
{
    root_ = static_cast<DurableRoot *>(pool.rootArea());

    epochs_ = std::make_unique<EpochManager>(
        pool, &root_->globalEpoch, &root_->failed, fresh);
    log_ = std::make_unique<ExternalLog>(pool, &root_->logDir, fresh,
                                         options.logBuffers,
                                         options.logBufferBytes);
    alloc_ = std::make_unique<DurableAllocator>(
        pool, *epochs_, &root_->allocStateOffset, fresh,
        options.allocArenas);

    // The external log is logically discarded at every epoch boundary,
    // after the global flush made the logged nodes durable.
    epochs_->registerAdvanceHook(
        [this](std::uint64_t) { log_->truncateAll(); });

    ctx_.pool = &pool;
    ctx_.epochs = epochs_.get();
    ctx_.log = log_.get();
    ctx_.alloc = alloc_.get();
    ctx_.inCllEnabled = options.inCllEnabled;
}

} // namespace incll::mt
