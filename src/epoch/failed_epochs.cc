/**
 * @file
 * Durable failed-epoch set implementation.
 */
#include "epoch/failed_epochs.h"

#include <stdexcept>
#include <string>

#include "nvm/pool.h"

namespace incll {

FailedEpochSet::FailedEpochSet(nvm::Pool &pool, FailedEpochRecord *record,
                               bool fresh)
    : pool_(pool), record_(record)
{
    if (fresh) {
        nvm::pmemset(record_, 0, sizeof(*record_));
        pool_.clwb(record_);
        pool_.sfence();
        return;
    }
    if (record_->count > FailedEpochRecord::kCapacity)
        throw std::runtime_error(
            "failed-epoch record count exceeds its capacity; the pool's "
            "root area is corrupt");
    for (std::uint64_t i = 0; i < record_->count; ++i) {
        mirror_.insert(record_->epochs[i]);
        mirror32_.insert(static_cast<std::uint32_t>(record_->epochs[i]));
    }
}

void
FailedEpochSet::add(std::uint64_t epoch)
{
    if (mirror_.contains(epoch))
        return;
    // Checked in every build: a 385th entry would be written past the
    // record, into whatever follows it in the root area.
    if (record_->count >= FailedEpochRecord::kCapacity)
        throw std::runtime_error(
            "failed-epoch set exhausted (" +
            std::to_string(FailedEpochRecord::kCapacity) +
            " crash recoveries of one pool); compact before reuse");

    // Persist the entry before the count so a torn append is invisible.
    nvm::pstore(record_->epochs[record_->count], epoch);
    pool_.clwb(&record_->epochs[record_->count]);
    pool_.sfence();
    nvm::pstore(record_->count, record_->count + 1);
    pool_.clwb(&record_->count);
    pool_.sfence();

    mirror_.insert(epoch);
    mirror32_.insert(static_cast<std::uint32_t>(epoch));
}

} // namespace incll
