/**
 * @file
 * Integration tests: the YCSB driver against all three configurations,
 * with background epoch advancing and a mid-run crash for the durable
 * tree.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "masstree/durable_tree.h"
#include "ycsb/driver.h"

namespace incll {
namespace {

using mt::DurableMasstree;
using mt::MasstreeMT;
using mt::MasstreeMTPlus;

ycsb::Spec
smallSpec(ycsb::Mix mix, KeyChooser::Dist dist)
{
    ycsb::Spec spec;
    spec.mix = mix;
    spec.dist = dist;
    spec.numKeys = 4096;
    spec.opsPerThread = 8192;
    spec.threads = 2;
    return spec;
}

template <typename TreeLike>
void
checkUniverse(TreeLike &t, std::uint64_t numKeys)
{
    void *out = nullptr;
    for (std::uint64_t r = 0; r < numKeys; ++r)
        ASSERT_TRUE(t.get(mt::u64Key(ycsb::scrambledKey(r)), out)) << r;
}

TEST(IntegrationMT, AllMixesRun)
{
    MasstreeMT t;
    ycsb::preload(t, 4096);
    for (const auto mix :
         {ycsb::Mix::kA, ycsb::Mix::kB, ycsb::Mix::kC, ycsb::Mix::kE}) {
        const auto res = ycsb::run(t, smallSpec(mix, KeyChooser::Dist::kUniform));
        EXPECT_GT(res.mops(), 0.0) << ycsb::mixName(mix);
    }
    checkUniverse(t, 4096);
    // MT values are individually heap-allocated; return them with the
    // nodes so the suite runs leak-clean under LeakSanitizer.
    ycsb::destroyWithValues(t);
}

TEST(IntegrationMTPlus, ZipfianRuns)
{
    MasstreeMTPlus t;
    ycsb::preload(t, 4096);
    const auto res =
        ycsb::run(t, smallSpec(ycsb::Mix::kA, KeyChooser::Dist::kZipfian));
    EXPECT_GT(res.mops(), 0.0);
    checkUniverse(t, 4096);
}

TEST(IntegrationDurable, DirectModeWithTimerEpochs)
{
    // Direct (untracked) pool: the throughput configuration used by the
    // benchmarks, with a background thread advancing the epoch every
    // 5 ms.
    auto pool =
        std::make_unique<nvm::Pool>(1u << 27, nvm::Mode::kDirect);
    DurableMasstree t(*pool);
    ycsb::preload(t, 4096);
    std::atomic<bool> stop{false};
    std::thread advancer([&] {
        while (!stop.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            t.epochs().advance();
        }
    });
    for (const auto dist :
         {KeyChooser::Dist::kUniform, KeyChooser::Dist::kZipfian}) {
        const auto res = ycsb::run(t, smallSpec(ycsb::Mix::kA, dist));
        EXPECT_GT(res.mops(), 0.0);
    }
    stop.store(true, std::memory_order_release);
    advancer.join();
    checkUniverse(t, 4096);
}

TEST(IntegrationDurable, TrackedModeCrashMidWorkload)
{
    auto pool = std::make_unique<nvm::Pool>(1u << 27,
                                            nvm::Mode::kTracked, 31);
    nvm::registerTrackedPool(*pool);
    auto t = std::make_unique<DurableMasstree>(*pool);

    constexpr std::uint64_t kKeys = 2048;
    ycsb::preload(*t, kKeys);
    t->advanceEpoch(); // commit the preload

    // Run a write-heavy burst that will be (partially) lost.
    ycsb::Spec spec = smallSpec(ycsb::Mix::kA, KeyChooser::Dist::kUniform);
    spec.numKeys = kKeys;
    spec.opsPerThread = 2048;
    ycsb::run(*t, spec);

    t.reset();
    pool->crash(0.4);
    t = std::make_unique<DurableMasstree>(*pool, DurableMasstree::kRecover);

    // The committed universe must be fully present with correct values.
    void *out = nullptr;
    for (std::uint64_t r = 0; r < kKeys; ++r) {
        ASSERT_TRUE(t->get(mt::u64Key(ycsb::scrambledKey(r)), out)) << r;
        std::uint64_t stored;
        std::memcpy(&stored, out, sizeof(stored));
        ASSERT_EQ(stored, r);
    }
    EXPECT_EQ(t->tree().size(), kKeys);
    t.reset();
    nvm::unregisterTrackedPool(*pool);
}

TEST(IntegrationDurable, ScanWorkloadE)
{
    auto pool =
        std::make_unique<nvm::Pool>(1u << 27, nvm::Mode::kDirect);
    DurableMasstree t(*pool);
    ycsb::preload(t, 4096);
    const auto res =
        ycsb::run(t, smallSpec(ycsb::Mix::kE, KeyChooser::Dist::kUniform));
    EXPECT_GT(res.mops(), 0.0);
}

TEST(IntegrationStats, InCllAvoidsFencesRelativeToLogging)
{
    // The causal claim behind Figure 8: with InCLL the number of
    // fences (synchronous NVM round trips) is far smaller than in
    // LOGGING mode on the same workload.
    auto measure = [](bool inCll) {
        auto pool =
            std::make_unique<nvm::Pool>(1u << 27, nvm::Mode::kDirect);
        DurableMasstree::Options opts;
        opts.inCllEnabled = inCll;
        DurableMasstree t(*pool, opts);
        ycsb::preload(t, 4096);
        t.advanceEpoch();
        const auto before = globalStats().get(Stat::kSfence);
        // Run in short epochs, as in deployment: the InCLLs can absorb
        // the typical one-or-two modifications per node per epoch.
        ycsb::Spec spec =
            smallSpec(ycsb::Mix::kA, KeyChooser::Dist::kUniform);
        spec.threads = 1;
        spec.opsPerThread = 256;
        for (int chunk = 0; chunk < 16; ++chunk) {
            spec.seed = 7000 + chunk;
            ycsb::run(t, spec);
            t.advanceEpoch();
        }
        return globalStats().get(Stat::kSfence) - before;
    };
    const auto fencesInCll = measure(true);
    const auto fencesLogging = measure(false);
    EXPECT_LT(fencesInCll * 5, fencesLogging);
}

} // namespace
} // namespace incll
