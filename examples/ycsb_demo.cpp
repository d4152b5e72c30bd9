/**
 * @file
 * YCSB demo: run the paper's four workload mixes against all three
 * configurations (MT, MT+, INCLL) at a laptop-friendly scale and print a
 * miniature version of Figure 2, plus the simulator's persist-operation
 * counters that explain the differences.
 *
 * The INCLL configuration runs behind the store interface; an optional
 * fourth argument partitions it across N independent INCLL shards
 * (per-shard epochs and boundary flushes).
 *
 * Build & run:  ./examples/ycsb_demo [numKeys] [opsPerThread] [threads]
 *                                    [shards]
 */
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "masstree/durable_tree.h"
#include "service/epoch_service.h"
#include "store/sharded_store.h"
#include "ycsb/driver.h"

using namespace incll;

namespace {

ycsb::Spec
makeSpec(ycsb::Mix mix, KeyChooser::Dist dist, std::uint64_t numKeys,
         std::uint64_t ops, unsigned threads)
{
    ycsb::Spec spec;
    spec.mix = mix;
    spec.dist = dist;
    spec.numKeys = numKeys;
    spec.opsPerThread = ops;
    spec.threads = threads;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::uint64_t numKeys = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                           : 100000;
    const std::uint64_t ops = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                       : 200000;
    const unsigned threads =
        argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr, 10))
                 : 2;
    const unsigned shards = std::max<unsigned>(
        1, argc > 4
               ? static_cast<unsigned>(std::strtoul(argv[4], nullptr, 10))
               : 1);

    std::printf("# keys=%llu ops/thread=%llu threads=%u shards=%u "
                "(Figure 2, mini)\n",
                static_cast<unsigned long long>(numKeys),
                static_cast<unsigned long long>(ops), threads, shards);
    std::printf("%-8s %-8s %10s %10s %10s %9s\n", "mix", "dist", "MT",
                "MT+", "INCLL", "overhead");

    const std::pair<KeyChooser::Dist, const char *> dists[] = {
        {KeyChooser::Dist::kUniform, "uniform"},
        {KeyChooser::Dist::kZipfian, "zipfian"},
    };

    for (const auto mix : {ycsb::Mix::kA, ycsb::Mix::kB, ycsb::Mix::kC,
                           ycsb::Mix::kE}) {
        for (const auto &[dist, distName] : dists) {
            // MT: plain heap-allocated transient Masstree.
            mt::MasstreeMT mtTree;
            ycsb::preload(mtTree, numKeys);
            const auto mtRes = ycsb::run(
                mtTree, makeSpec(mix, dist, numKeys, ops, threads));
            ycsb::destroyWithValues(mtTree); // its values are heap buffers

            // MT+: pool allocator.
            mt::MasstreeMTPlus mtPlus;
            ycsb::preload(mtPlus, numKeys);
            const auto mtPlusRes = ycsb::run(
                mtPlus, makeSpec(mix, dist, numKeys, ops, threads));

            // INCLL: durable store (1..N shards) with 64 ms checkpoint
            // epochs, driven by an EpochService, and the paper's
            // measured wbinvd cost emulated per shard.
            store::ShardedStore::Options o;
            o.shards = shards;
            o.poolBytesPerShard = (std::size_t{3} << 30) / shards;
            store::ShardedStore incllTree(o);
            incllTree.forEachShard([](store::Shard &s) {
                s.pool().latency().wbinvdNs = nvm::kPaperWbinvdNs;
            });
            ycsb::preload(incllTree, numKeys);
            service::EpochService epochs(incllTree, {});
            epochs.start();
            const auto incllRes = ycsb::run(
                incllTree, makeSpec(mix, dist, numKeys, ops, threads));
            epochs.stop();

            const double overhead =
                (mtPlusRes.mops() - incllRes.mops()) / mtPlusRes.mops();
            std::printf("%-8s %-8s %9.2fM %9.2fM %9.2fM %8.1f%%\n",
                        ycsb::mixName(mix), distName, mtRes.mops(),
                        mtPlusRes.mops(), incllRes.mops(),
                        overhead * 100.0);
        }
    }

    std::printf("\npersist-operation counters (whole run):\n%s",
                globalStats().toString().c_str());
    return 0;
}
