/**
 * @file
 * Durable set of failed epochs (paper §4).
 *
 * An epoch fails when a crash happens while it is in progress; during
 * recovery its number is appended to this set, and every InCLL whose
 * recorded epoch is in the set is rolled back. The set lives in durable
 * memory (it must survive the next crash) with a transient hash-set
 * mirror for the hot isFailed() checks issued by lazy node recovery.
 */
#pragma once

#include <cstdint>
#include <unordered_set>

namespace incll::nvm {
class Pool;
} // namespace incll::nvm

namespace incll {

/** Durable representation; placed inside the application root record. */
struct FailedEpochRecord
{
    static constexpr std::uint32_t kCapacity = 384;

    std::uint64_t count;
    std::uint64_t epochs[kCapacity];
};

class FailedEpochSet
{
  public:
    /**
     * Attach to a durable record. @p fresh zero-initialises it; otherwise
     * the transient mirror is rebuilt from the durable contents. Throws
     * std::runtime_error when the durable count exceeds the capacity.
     */
    FailedEpochSet(nvm::Pool &pool, FailedEpochRecord *record, bool fresh);

    /** Durably append @p epoch (flush + fence before returning). Throws
     *  std::runtime_error, writing nothing, when the record is full. */
    void add(std::uint64_t epoch);

    /** True iff @p epoch is a failed epoch. Hot path: transient mirror. */
    bool
    isFailed(std::uint64_t epoch) const
    {
        return mirror_.count(epoch) != 0;
    }

    /**
     * Failed check against a truncated 32-bit epoch, as reconstructed
     * from the allocator's compact headers (§5.1).
     */
    bool
    isFailed32(std::uint32_t epoch32) const
    {
        return mirror32_.count(epoch32) != 0;
    }

    std::uint64_t size() const { return record_->count; }

  private:
    nvm::Pool &pool_;
    FailedEpochRecord *record_;
    std::unordered_set<std::uint64_t> mirror_;
    std::unordered_set<std::uint32_t> mirror32_;
};

} // namespace incll
