/**
 * @file
 * Elastic topology under load: the member set itself tracks the
 * workload (merge + retire a cold shard, split a hot one into a new
 * member) instead of only sliding boundaries between a fixed set.
 *
 * Three phases over a range-partitioned store with ordered
 * (unscrambled) keys, all starting from the same shard count:
 *
 *   uniform     balanced load across all shards, no rebalancer (the
 *               throughput baseline the elastic phases are read against)
 *   cold_merge  all ops confined to the first three quarters of the
 *               rank space (a static keyFrac=0.75 / opFrac=1.0 slice),
 *               so the last shard goes idle while the rest stay busy;
 *               the elastic Rebalancer merges it into its neighbour and
 *               retires the drained pool — shard count shrinks under
 *               steady load
 *   hot_add     a shifting keyFrac=0.5 / opFrac=0.95 hotspot heats two
 *               adjacent shards at once, so a boundary move would only
 *               slosh load between loaded neighbours; the elastic
 *               answer is addShard — the hot range splits into a brand
 *               new member and the shard count grows
 *
 * Reported per phase: Mops/s (steady-state; the elastic phases run the
 * workload twice and measure the second pass), the elastic transition
 * counters (merges / adds / retires), keys moved, the final shard
 * count, and the migration commit-pause percentiles.
 *
 * The default skew threshold here is 1.5, not bench_util's 2.0: the
 * add decision fires only when the hot shard exceeds skew x mean while
 * a neighbour still carries more than half its load, and on four
 * shards those cannot coexist at 2x. --rebalance-skew overrides.
 *
 * Usage: elasticity [--keys N --ops N --threads N --shards N]
 *                   [--rebalance-ms N --rebalance-skew F]
 *                   [--cold-ops N --merge-max-mb N]
 *                   [--hotspot-shift-ops N] [--json PATH]
 * (--elastic and --rebalance are implied; this bench exists to measure
 * the elastic decisions.)
 */
#include "bench_util.h"

using namespace incll;
using namespace incll::bench;

namespace {

struct ElasticResult
{
    double warmupMops = 0.0;
    double steadyMops = 0.0;
    unsigned finalShards = 0;
    service::Rebalancer::Counters counters;
    obs::HistSnapshot pauses; ///< migration_pause_ns over the phase
};

/** Two passes of @p spec with an elastic Rebalancer attached; the
 *  second pass is the steady-state measurement. */
ElasticResult
runElastic(const Params &p, double skewFactor, const ycsb::Spec &spec)
{
    ElasticResult out;
    DurableSetup setup(p, OrderedRange{p.shards});
    // Preload writes count as hotness; start detection from zero so
    // the cold shard looks cold on the first tick, not after the
    // preload burst has decayed away.
    for (unsigned s = 0; s < setup.store->shardCount(); ++s)
        setup.store->hotness(s).reset();
    service::Rebalancer::Options ro = rebalancerOptionsFor(p);
    ro.skewFactor = skewFactor;
    ro.elastic = true;
    ro.maxShards = p.shards * 2; // bound hot_add growth
    const HistWindow pauses(obs::Hist::kMigrationPauseNs);
    const auto res = setup.runPasses(p, spec, 2, &ro);
    out.warmupMops = res[0].mops();
    out.steadyMops = res[1].mops();
    out.finalShards = setup.store->shardCount();
    out.counters = setup.lastRebalancerCounters;
    out.pauses = pauses.since();
    ycsb::destroyWithValues(*setup.store);
    return out;
}

void
printElastic(const char *name, const ElasticResult &r, unsigned startShards)
{
    std::printf("%-24s %8.3f Mops/s (warm-up %.3f)  shards %u -> %u\n",
                name, r.steadyMops, r.warmupMops, startShards,
                r.finalShards);
    std::printf("  merges=%llu adds=%llu retires=%llu keys_moved=%llu "
                "pause ms p50=%.3f p95=%.3f p99=%.3f\n",
                static_cast<unsigned long long>(r.counters.merges),
                static_cast<unsigned long long>(r.counters.adds),
                static_cast<unsigned long long>(r.counters.retires),
                static_cast<unsigned long long>(r.counters.keysMoved),
                r.pauses.percentile(50) / 1e6,
                r.pauses.percentile(95) / 1e6,
                r.pauses.percentile(99) / 1e6);
}

void
elasticRow(JsonReport &report, const Params &p, const char *phase,
           const ElasticResult &r)
{
    report.row()
        .field("phase", phase)
        .field("threads", p.threads)
        .field("shards", p.shards)
        .field("keys", p.numKeys)
        .field("mops", r.steadyMops)
        .field("warmup_mops", r.warmupMops)
        .field("final_shards", r.finalShards)
        .field("topology_merges", r.counters.merges)
        .field("topology_adds", r.counters.adds)
        .field("topology_retires", r.counters.retires)
        .field("rebalance_keys_moved", r.counters.keysMoved)
        .field("pause_ms_p50", r.pauses.percentile(50) / 1e6)
        .field("pause_ms_p95", r.pauses.percentile(95) / 1e6)
        .field("pause_ms_p99", r.pauses.percentile(99) / 1e6);
}

} // namespace

int
main(int argc, char **argv)
{
    Params p = Params::parse(argc, argv);
    if (p.shards < 2)
        p.shards = 4;
    bool skewGiven = false;
    for (int i = 1; i < argc; ++i)
        skewGiven |= std::strcmp(argv[i], "--rebalance-skew") == 0;
    const double skew = skewGiven ? p.rebalanceSkew : 1.5;
    auto report = p.report("elasticity");
    std::printf("# Elastic topology under load: keys=%llu ops/thread=%llu "
                "threads=%u shards=%u skew=%.2f cold-ops=%llu\n",
                static_cast<unsigned long long>(p.numKeys),
                static_cast<unsigned long long>(p.opsPerThread), p.threads,
                p.shards, skew,
                static_cast<unsigned long long>(p.coldOps));

    // -- phase 1: uniform baseline, fixed topology ---------------------
    ycsb::Spec uniform = specFor(p, ycsb::Mix::kA,
                                 KeyChooser::Dist::kUniform);
    uniform.scrambleKeys = false;
    double uniformMops;
    {
        DurableSetup setup(p, OrderedRange{p.shards});
        uniformMops = setup.runPasses(p, uniform, 1, nullptr)[0].mops();
        ycsb::destroyWithValues(*setup.store);
    }
    std::printf("%-24s %8.3f Mops/s\n", "uniform (baseline)", uniformMops);
    report.row()
        .field("phase", "uniform")
        .field("threads", p.threads)
        .field("shards", p.shards)
        .field("keys", p.numKeys)
        .field("mops", uniformMops);

    // -- phase 2: cold merge -------------------------------------------
    // All ops land in the first 3/4 of the rank space: the last shard
    // carries zero load while the store as a whole stays busy, which is
    // exactly the merge-eligibility shape (no hot shard, nonzero total,
    // one member below --cold-ops).
    ycsb::Spec coldSpec = specFor(p, ycsb::Mix::kA,
                                  KeyChooser::Dist::kHotspot);
    coldSpec.scrambleKeys = false;
    coldSpec.hotspot.keyFrac = 0.75;
    coldSpec.hotspot.opFrac = 1.0;
    coldSpec.hotspot.shiftEvery = 0; // static slice
    const ElasticResult cold = runElastic(p, skew, coldSpec);
    printElastic("cold_merge (elastic)", cold, p.shards);
    elasticRow(report, p, "cold_merge", cold);

    // -- phase 3: hot add ----------------------------------------------
    // A half-width hotspot heats two adjacent shards equally, so the
    // cooler-neighbour move is pointless (the neighbour carries more
    // than half the hot shard's load) and the Rebalancer grows the
    // member set instead. The slice shifts so the split point keeps
    // having to be re-earned.
    ycsb::Spec hotSpec = specFor(p, ycsb::Mix::kA,
                                 KeyChooser::Dist::kHotspot);
    hotSpec.scrambleKeys = false;
    hotSpec.hotspot.keyFrac = 0.5;
    hotSpec.hotspot.opFrac = 0.95;
    hotSpec.hotspot.shiftEvery = p.hotspotShiftOps > 0
                                     ? p.hotspotShiftOps
                                     : p.opsPerThread / 2;
    const ElasticResult hot = runElastic(p, skew, hotSpec);
    printElastic("hot_add (elastic)", hot, p.shards);
    elasticRow(report, p, "hot_add", hot);

    const double recovered =
        uniformMops > 0.0 ? hot.steadyMops / uniformMops : 0.0;
    std::printf("hot_add recovered fraction: %.2f of uniform\n", recovered);
    return 0;
}
