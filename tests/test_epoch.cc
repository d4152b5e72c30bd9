/**
 * @file
 * Unit tests: epoch manager, failed-epoch set, epoch gate.
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/barrier.h"
#include "epoch/epoch_manager.h"
#include "nvm/pool.h"

namespace incll {
namespace {

struct EpochFixture : ::testing::Test
{
    void
    SetUp() override
    {
        pool = std::make_unique<nvm::Pool>(1u << 20, nvm::Mode::kTracked);
        nvm::registerTrackedPool(*pool);
        epochWord = static_cast<std::uint64_t *>(pool->rootArea());
        failedRec = reinterpret_cast<FailedEpochRecord *>(
            static_cast<char *>(pool->rootArea()) + 64);
    }

    void TearDown() override { nvm::unregisterTrackedPool(*pool); }

    std::unique_ptr<nvm::Pool> pool;
    std::uint64_t *epochWord = nullptr;
    FailedEpochRecord *failedRec = nullptr;
};

TEST_F(EpochFixture, FreshStartsAtEpochOne)
{
    EpochManager mgr(*pool, epochWord, failedRec, true);
    EXPECT_EQ(mgr.currentEpoch(), 1u);
    EXPECT_EQ(mgr.firstExecEpoch(), 1u);
    EXPECT_EQ(*epochWord, 1u);
}

TEST_F(EpochFixture, AdvanceIncrementsDurably)
{
    EpochManager mgr(*pool, epochWord, failedRec, true);
    mgr.advance();
    mgr.advance();
    EXPECT_EQ(mgr.currentEpoch(), 3u);
    EXPECT_EQ(pool->durableRead(epochWord), 3u);
}

TEST_F(EpochFixture, AdvanceFlushesDirtyLines)
{
    EpochManager mgr(*pool, epochWord, failedRec, true);
    auto *data = static_cast<std::uint64_t *>(pool->rawAlloc(64, 64));
    pool->wbinvdFlushAll();
    nvm::pstore(*data, std::uint64_t{77});
    EXPECT_EQ(pool->durableRead(data), 0u);
    mgr.advance();
    EXPECT_EQ(pool->durableRead(data), 77u);
}

TEST_F(EpochFixture, HooksRunWithNewEpoch)
{
    EpochManager mgr(*pool, epochWord, failedRec, true);
    std::uint64_t seen = 0;
    mgr.registerAdvanceHook([&seen](std::uint64_t e) { seen = e; });
    mgr.advance();
    EXPECT_EQ(seen, 2u);
}

TEST_F(EpochFixture, MarkCrashRecoveryFailsTheInterruptedEpoch)
{
    {
        EpochManager mgr(*pool, epochWord, failedRec, true);
        mgr.advance(); // epoch 2 in progress
    }
    // "Restart": attach non-fresh and mark recovery.
    EpochManager mgr2(*pool, epochWord, failedRec, false);
    EXPECT_EQ(mgr2.currentEpoch(), 2u);
    mgr2.markCrashRecovery();
    EXPECT_TRUE(mgr2.isFailed(2));
    EXPECT_FALSE(mgr2.isFailed(1));
    EXPECT_EQ(mgr2.currentEpoch(), 3u);
    EXPECT_EQ(mgr2.firstExecEpoch(), 3u);
}

TEST_F(EpochFixture, FailedSetSurvivesReattach)
{
    {
        EpochManager mgr(*pool, epochWord, failedRec, true);
        mgr.markCrashRecovery(); // fails epoch 1
    }
    EpochManager mgr2(*pool, epochWord, failedRec, false);
    EXPECT_TRUE(mgr2.isFailed(1));
    EXPECT_TRUE(mgr2.failedSet().isFailed32(1));
    EXPECT_FALSE(mgr2.failedSet().isFailed32(7));
}

TEST_F(EpochFixture, MultipleFailedEpochs)
{
    EpochManager mgr(*pool, epochWord, failedRec, true);
    mgr.markCrashRecovery();
    mgr.markCrashRecovery();
    mgr.markCrashRecovery();
    EXPECT_TRUE(mgr.isFailed(1));
    EXPECT_TRUE(mgr.isFailed(2));
    EXPECT_TRUE(mgr.isFailed(3));
    EXPECT_EQ(mgr.currentEpoch(), 4u);
    EXPECT_EQ(mgr.failedSet().size(), 3u);
}

TEST_F(EpochFixture, FullFailedSetThrowsAndWritesNothingPastTheRecord)
{
    FailedEpochSet set(*pool, failedRec, true);
    for (std::uint64_t e = 1; e <= FailedEpochRecord::kCapacity; ++e)
        set.add(e);
    ASSERT_EQ(set.size(), FailedEpochRecord::kCapacity);

    // Whatever follows the record in the root area must be untouched
    // by the overflowing append.
    auto *after = reinterpret_cast<unsigned char *>(failedRec + 1);
    ASSERT_LE(after + 64, static_cast<unsigned char *>(pool->rootArea()) +
                              nvm::Pool::kRootAreaSize);
    std::array<unsigned char, 64> guard;
    guard.fill(0xa5);
    std::memcpy(after, guard.data(), guard.size());
    const std::uint64_t next = FailedEpochRecord::kCapacity + 1;
    EXPECT_THROW(set.add(next), std::runtime_error);
    EXPECT_EQ(std::memcmp(after, guard.data(), guard.size()), 0);
    EXPECT_EQ(set.size(), FailedEpochRecord::kCapacity);
    EXPECT_FALSE(set.isFailed(next));
}

TEST_F(EpochFixture, AttachRejectsFailedCountAboveCapacity)
{
    {
        FailedEpochSet fresh(*pool, failedRec, true);
    }
    nvm::pstore(failedRec->count,
                std::uint64_t{FailedEpochRecord::kCapacity + 1});
    EXPECT_THROW(FailedEpochSet(*pool, failedRec, false),
                 std::runtime_error);
}

TEST_F(EpochFixture, WritesMarkTheEpochAndAdvanceClearsIt)
{
    {
        EpochManager mgr(*pool, epochWord, failedRec, true);
        EXPECT_FALSE(mgr.epochWritten());
        EXPECT_EQ(mgr.writeEpoch(), mgr.currentEpoch());
        EXPECT_TRUE(mgr.epochWritten());
        EXPECT_FALSE(mgr.skipIfIdle()) << "a written epoch must not skip";
        mgr.advance();
        EXPECT_FALSE(mgr.epochWritten());
        const auto skips = globalStats().get(Stat::kEpochIdleSkips);
        EXPECT_TRUE(mgr.skipIfIdle());
        EXPECT_EQ(globalStats().get(Stat::kEpochIdleSkips), skips + 1);
        EXPECT_EQ(mgr.currentEpoch(), 2u)
            << "a skip must not bump the epoch";
        mgr.noteWrite();
        EXPECT_TRUE(mgr.epochWritten());

        // A store made by an advance hook belongs to the new epoch.
        mgr.registerAdvanceHook(
            [&mgr](std::uint64_t) { mgr.noteWrite(); });
        mgr.advance();
        EXPECT_TRUE(mgr.epochWritten());
    }
    // Recovery marks its first epoch, so the first boundary runs.
    EpochManager recovered(*pool, epochWord, failedRec, false);
    EXPECT_FALSE(recovered.epochWritten());
    recovered.markCrashRecovery();
    EXPECT_TRUE(recovered.epochWritten());
}

TEST_F(EpochFixture, EpochSplitHelpers)
{
    EXPECT_EQ(epochLow16(0x12345678), 0x5678u);
    EXPECT_EQ(epochHigh48(0x12345678), 0x12340000u);
    EXPECT_EQ(epochHigh48(0x12345678) | epochLow16(0x12345678),
              0x12345678u);
}

TEST(EpochGateTest, ExclusiveWaitsForInFlight)
{
    EpochGate gate;
    gate.enter();
    std::atomic<bool> acquired{false};
    std::thread advancer([&] {
        gate.lockExclusive();
        acquired.store(true);
        gate.unlockExclusive();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load());
    gate.exit();
    advancer.join();
    EXPECT_TRUE(acquired.load());
}

TEST(EpochGateTest, WorkersBlockedDuringAdvance)
{
    EpochGate gate;
    gate.lockExclusive();
    std::atomic<bool> entered{false};
    std::thread worker([&] {
        EpochGate::Guard guard(gate);
        entered.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(entered.load());
    gate.unlockExclusive();
    worker.join();
    EXPECT_TRUE(entered.load());
}

TEST(EpochGateReentrancy, DepthTracksNestedEntries)
{
    EpochGate gate;
    EXPECT_FALSE(gate.heldByThisThread());
    EXPECT_EQ(gate.depthOfThisThread(), 0u);
    gate.enter();
    EXPECT_TRUE(gate.heldByThisThread());
    EXPECT_EQ(gate.depthOfThisThread(), 1u);
    {
        EpochGate::Guard nested(gate);
        EXPECT_EQ(gate.depthOfThisThread(), 2u);
        gate.enter();
        EXPECT_EQ(gate.depthOfThisThread(), 3u);
        gate.exit();
        EXPECT_EQ(gate.depthOfThisThread(), 2u);
    }
    EXPECT_EQ(gate.depthOfThisThread(), 1u);
    gate.exit();
    EXPECT_FALSE(gate.heldByThisThread());
    EXPECT_EQ(gate.depthOfThisThread(), 0u);
}

TEST(EpochGateReentrancy, IndependentGatesNestIndependently)
{
    // A cross-shard scan holds several gates at once; each must track
    // its own depth for this thread.
    EpochGate a, b, c;
    a.enter();
    b.enter();
    b.enter();
    c.enter();
    EXPECT_EQ(a.depthOfThisThread(), 1u);
    EXPECT_EQ(b.depthOfThisThread(), 2u);
    EXPECT_EQ(c.depthOfThisThread(), 1u);
    b.exit();
    c.exit(); // out-of-order release across gates is fine
    EXPECT_EQ(a.depthOfThisThread(), 1u);
    EXPECT_EQ(b.depthOfThisThread(), 1u);
    EXPECT_FALSE(c.heldByThisThread());
    b.exit();
    a.exit();
    EXPECT_FALSE(a.heldByThisThread());
    EXPECT_FALSE(b.heldByThisThread());
}

TEST(EpochGateReentrancy, NestedEnterDoesNotDeadlockBehindAdvancer)
{
    // The deadlock the re-entrant gate exists to prevent: a worker is
    // inside the gate when an advancer arrives; the worker then nests
    // another enter() (a per-shard scan inside a gate-holding merged
    // scan). A non-re-entrant gate would park the nested enter behind
    // advancing_ while the advancer waits for the worker's outer exit.
    EpochGate gate;
    Barrier both(2);
    std::atomic<bool> advancerDone{false};

    std::thread worker([&] {
        gate.enter();
        both.arriveAndWait(); // let the advancer raise its flag
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        {
            // Nested entry while the advance is pending: must not block.
            EpochGate::Guard nested(gate);
            EXPECT_EQ(gate.depthOfThisThread(), 2u);
            EXPECT_FALSE(advancerDone.load());
        }
        gate.exit();
    });
    std::thread advancer([&] {
        both.arriveAndWait();
        gate.lockExclusive(); // waits for the worker's full exit
        advancerDone.store(true);
        gate.unlockExclusive();
    });
    worker.join();
    advancer.join();
    EXPECT_TRUE(advancerDone.load());
}

} // namespace
} // namespace incll
