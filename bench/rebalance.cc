/**
 * @file
 * Online rebalancing under a shifting hotspot: the workload
 * RangePlacement cannot survive without the Rebalancer.
 *
 * Three phases over a range-partitioned store with ordered
 * (unscrambled) keys, so a rank hotspot is a key-range hotspot that
 * concentrates on one shard:
 *
 *   uniform           balanced load across all shards (the baseline)
 *   hotspot           a keyFrac slice takes opFrac of the ops, jumping
 *                     to the next segment every --hotspot-shift-ops
 *                     draws; the boundary table is frozen, so one
 *                     shard eats almost everything
 *   hotspot+rebalance same workload with the Rebalancer attached
 *                     (always measured; migrations run live under the
 *                     load): a warm-up pass lets detection split the
 *                     hot shard, then a steady-state pass is measured
 *
 * Reported: Mops/s per phase, recovered fraction (steady-state hotspot
 * with rebalance / uniform baseline — the acceptance metric), completed
 * migrations + keys moved, and the migration commit-pause percentiles
 * (p50/p95/p99 of the migration_pause_ns histogram over the phase).
 *
 * Usage: rebalance [--keys N --ops N --threads N --shards N]
 *                  [--rebalance-ms N --rebalance-skew F]
 *                  [--hotspot-shift-ops N] [--json PATH]
 * (--rebalance is implied for phase 3; phases 1-2 never rebalance.)
 */
#include "bench_util.h"

using namespace incll;
using namespace incll::bench;

namespace {

ycsb::Spec
hotspotSpec(const Params &p)
{
    ycsb::Spec spec = specFor(p, ycsb::Mix::kA, KeyChooser::Dist::kHotspot);
    spec.scrambleKeys = false;
    spec.hotspot.keyFrac = 0.1;
    spec.hotspot.opFrac = 0.95;
    spec.hotspot.shiftEvery = p.hotspotShiftOps > 0 ? p.hotspotShiftOps
                                                    : p.opsPerThread / 4;
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    Params p = Params::parse(argc, argv);
    const unsigned shards = p.shards >= 2 ? p.shards : 4;
    auto report = p.report("rebalance");
    std::printf("# Online rebalancing under a shifting hotspot: keys=%llu "
                "ops/thread=%llu threads=%u shards=%u\n",
                static_cast<unsigned long long>(p.numKeys),
                static_cast<unsigned long long>(p.opsPerThread), p.threads,
                shards);

    // -- phase 1: uniform baseline -------------------------------------
    ycsb::Spec uniform = specFor(p, ycsb::Mix::kA,
                                 KeyChooser::Dist::kUniform);
    uniform.scrambleKeys = false;
    double uniformMops;
    {
        DurableSetup setup(p, OrderedRange{shards});
        uniformMops = setup.runPasses(p, uniform, 1, nullptr)[0].mops();
        ycsb::destroyWithValues(*setup.store);
    }
    std::printf("%-24s %8.3f Mops/s\n", "uniform (baseline)", uniformMops);

    // -- phase 2: shifting hotspot, frozen boundaries ------------------
    const ycsb::Spec hotspot = hotspotSpec(p);
    double hotspotMops;
    {
        DurableSetup setup(p, OrderedRange{shards});
        hotspotMops = setup.runPasses(p, hotspot, 1, nullptr)[0].mops();
        ycsb::destroyWithValues(*setup.store);
    }
    std::printf("%-24s %8.3f Mops/s\n", "hotspot (no rebalance)",
                hotspotMops);

    // -- phase 3: shifting hotspot + Rebalancer ------------------------
    double warmupMops, steadyMops;
    service::Rebalancer::Counters rc;
    obs::HistSnapshot pauses;
    {
        DurableSetup setup(p, OrderedRange{shards});
        service::Rebalancer::Options ro = rebalancerOptionsFor(p);
        ro.elastic = false; // boundary moves only
        const HistWindow window(obs::Hist::kMigrationPauseNs);
        const auto res = setup.runPasses(p, hotspot, 2, &ro);
        warmupMops = res[0].mops();
        steadyMops = res[1].mops();
        rc = setup.lastRebalancerCounters;
        pauses = window.since();
        ycsb::destroyWithValues(*setup.store);
    }
    const double recovered =
        uniformMops > 0.0 ? steadyMops / uniformMops : 0.0;
    const double p50 = pauses.percentile(50) / 1e6;
    const double p95 = pauses.percentile(95) / 1e6;
    const double p99 = pauses.percentile(99) / 1e6;
    std::printf("%-24s %8.3f Mops/s (warm-up %.3f)\n",
                "hotspot (+rebalance)", steadyMops, warmupMops);
    std::printf("recovered fraction: %.2f of uniform (target >= 0.70)\n",
                recovered);
    std::printf("migrations: %llu (%llu keys), commit pause ms "
                "p50=%.3f p95=%.3f p99=%.3f\n",
                static_cast<unsigned long long>(rc.migrations),
                static_cast<unsigned long long>(rc.keysMoved), p50, p95,
                p99);

    report.row()
        .field("phase", "uniform")
        .field("threads", p.threads)
        .field("shards", shards)
        .field("keys", p.numKeys)
        .field("mops", uniformMops);
    report.row()
        .field("phase", "hotspot_norebalance")
        .field("threads", p.threads)
        .field("shards", shards)
        .field("keys", p.numKeys)
        .field("mops", hotspotMops);
    report.row()
        .field("phase", "hotspot_rebalance")
        .field("threads", p.threads)
        .field("shards", shards)
        .field("keys", p.numKeys)
        .field("mops", steadyMops)
        .field("warmup_mops", warmupMops)
        .field("recovered_frac_of_uniform", recovered)
        .field("migrations", rc.migrations)
        .field("rebalance_keys_moved", rc.keysMoved)
        .field("pause_ms_p50", p50)
        .field("pause_ms_p95", p95)
        .field("pause_ms_p99", p99);
    return 0;
}
