/**
 * @file
 * Figure 4: throughput of MT+ and INCLL (YCSB_A) for different thread
 * counts. The paper sweeps 1..56 threads on a 28-core machine; the
 * INCLL overhead stays roughly flat in the thread count (14.6-21.3%
 * uniform, 3.0-19.3% zipfian).
 *
 * On top of the paper's figure, every INCLL run reports its
 * epoch-boundary cost: boundaries completed, time under the exclusive
 * gate (boundary work), and time workers stalled at gates behind
 * advances (boundary cost *exposed* to the request path). The
 * EpochService drives the boundaries (--service-threads N);
 * scripts/bench.sh records these rows into BENCH_*.json.
 *
 * Usage: fig4_threads [--paper|--keys N --ops N --threads MAXT]
 *                     [--shards N --batch N --json PATH]
 */
#include <vector>

#include "bench_util.h"

using namespace incll;
using namespace incll::bench;

int
main(int argc, char **argv)
{
    Params p = Params::parse(argc, argv);
    auto report = p.report("fig4_threads");
    std::vector<unsigned> sweep;
    const unsigned maxThreads = p.paperScale ? 56 : std::max(4u, p.threads);
    for (unsigned t = 1; t <= maxThreads; t *= 2)
        sweep.push_back(t);
    if (sweep.back() != maxThreads)
        sweep.push_back(maxThreads);

    std::printf("# Figure 4: YCSB_A throughput vs threads, keys=%llu "
                "shards=%u placement=%s service_threads=%u batch=%u\n",
                static_cast<unsigned long long>(p.numKeys), p.shards,
                p.placement.c_str(), p.serviceThreads, p.batch);
    std::printf("%-8s %-8s %10s %10s %10s %9s %12s %12s\n", "threads",
                "dist", "MT+", "INCLL", "overhead", "advances",
                "boundary_ms", "gatewait_ms");

    for (const auto dist :
         {KeyChooser::Dist::kUniform, KeyChooser::Dist::kZipfian}) {
        for (const unsigned t : sweep) {
            Params run = p;
            run.threads = t;
            const ycsb::Spec spec = specFor(run, ycsb::Mix::kA, dist);

            mt::MasstreeMTPlus plus;
            ycsb::preload(plus, run.numKeys);
            const auto plusRes = ycsb::run(plus, spec);

            DurableSetup incll(run);
            const StatWindow window;
            const auto incllRes = incll.run(run, spec);
            const std::uint64_t advances =
                window.since(Stat::kEpochAdvances);
            const std::uint64_t boundaryNs =
                window.since(Stat::kEpochBoundaryNs);
            const std::uint64_t gateWaitNs =
                window.since(Stat::kGateWaitNs);

            std::printf("%-8u %-8s %10.3f %10.3f %9.1f%% %9llu %12.3f "
                        "%12.3f\n",
                        t, distName(dist), plusRes.mops(), incllRes.mops(),
                        (1.0 - incllRes.mops() / plusRes.mops()) * 100.0,
                        static_cast<unsigned long long>(advances),
                        boundaryNs / 1e6, gateWaitNs / 1e6);
            report.row()
                .field("dist", distName(dist))
                .field("threads", t)
                .field("shards", run.shards)
                .field("placement", run.placement)
                .field("keys", run.numKeys)
                .field("batch", run.batch)
                .field("mtplus_mops", plusRes.mops())
                .field("incll_mops", incllRes.mops())
                .field("epoch_advances", advances)
                .field("epoch_boundary_ms", boundaryNs / 1e6)
                .field("gate_wait_ms", gateWaitNs / 1e6)
                .field("service_throttle_stalls",
                       incll.lastServiceCounters.throttleStalls);
        }
    }
    return 0;
}
