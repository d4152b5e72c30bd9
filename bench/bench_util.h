/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks.
 *
 * Every binary prints the same rows/series as the corresponding paper
 * figure. Default parameters are laptop/CI sized so that running every
 * binary in sequence finishes quickly; pass --paper for the paper-scale
 * parameters (20M keys, 1M ops/thread, 8 threads) and --threads/--keys/
 * --ops to override individual knobs. The durable configuration runs
 * behind the store interface, so --shards N partitions it across N
 * independent INCLL shards (per-shard epochs and boundary flushes);
 * --shards 1 (the default) is exactly the single DurableMasstree of the
 * paper. --placement range switches the store from hash routing to
 * range partitioning (boundaries derived by sampling the preload key
 * universe), which keeps YCSB_E scans inside the shards whose ranges
 * they intersect instead of paying the N-way gather-merge.
 * Every durable run is driven by the EpochService maintenance pool
 * (--service-threads N threads advancing each shard every --epoch-ms N,
 * backpressure via --backpressure-mb N); --batch N groups ops through
 * the batched store API. --rebalance attaches the service-layer
 * Rebalancer (hotness tracking on, skew detection every
 * --rebalance-ms N ms at threshold --rebalance-skew F) so a skewed
 * range shard is split online;
 * --hotspot-shift-ops N sets how often bench_rebalance's wandering
 * hotspot jumps to the next key segment. --elastic additionally lets
 * the Rebalancer change the member set itself (split a hot shard into
 * a new member, merge + retire a cold one; thresholds via --cold-ops N
 * and --merge-max-mb N — see bench_elasticity). --json PATH writes
 * machine-readable rows (see json_out.h and scripts/bench.sh).
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "json_out.h"
#include "service/epoch_service.h"
#include "service/rebalancer.h"
#include "store/sharded_store.h"
#include "ycsb/driver.h"

namespace incll::bench {

struct Params
{
    std::uint64_t numKeys = 200000;
    std::uint64_t opsPerThread = 100000;
    unsigned threads = 2;
    unsigned shards = 1;
    /** Key-to-shard routing policy ("hash" or "range"). */
    std::string placement = "hash";
    bool paperScale = false;
    /** EpochService threads driving every shard's boundaries. */
    unsigned serviceThreads = 2;
    /** Backpressure threshold in MiB of log debt per shard (0 = off). */
    unsigned backpressureMb = 0;
    /** Adaptive debt-kick threshold in MiB per shard (0 = deadline-only
     *  scheduling; see EpochService::Options::adaptiveDebtBytes). */
    unsigned adaptiveDebtMb = 0;
    /** Ops per batch through the batched store API (1 = per-op). */
    unsigned batch = 1;
    /** Attach a Rebalancer (and enable hotness tracking). */
    bool rebalance = false;
    /** Rebalancer detection/decay period in milliseconds. */
    unsigned rebalanceMs = 50;
    /** Rebalancer skew threshold (hot if ops > skew * mean). */
    double rebalanceSkew = 2.0;
    /** Hotspot shift period in ops per thread (0 = static hotspot). */
    std::uint64_t hotspotShiftOps = 0;
    /** Enable the Rebalancer's elastic decisions (merge/add/retire). */
    bool elastic = false;
    /** Elastic cold-merge threshold (Rebalancer coldShardOps). */
    std::uint64_t coldOps = 128;
    /** Elastic merge cost cap in MiB (Rebalancer mergeMaxBytes). */
    unsigned mergeMaxMb = 32;
    /** Record per-op store latency histograms (fig3, latency studies). */
    bool recordOpLatency = false;
    /** Allocator arenas per shard (0 = auto-size from hardware). Small
     *  counts force threads to share lists — the contended case. */
    unsigned allocArenas = 0;
    /** Value-buffer size for benches that vary it (bench_alloc_churn). */
    std::size_t valueBytes = 32;
    std::string jsonPath; ///< empty = no JSON output

    /**
     * Paper §6: 64 ms epochs; wbinvd measured at 1.38 ms. Scaled-down
     * runs use shorter epochs so the ops-per-node-per-epoch ratio stays
     * closer to the paper's operating point (see EXPERIMENTS.md).
     */
    std::chrono::milliseconds epochInterval{16};
    std::uint64_t wbinvdNs = nvm::kPaperWbinvdNs;

    static Params
    parse(int argc, char **argv)
    {
        static constexpr const char *kUsage =
            "flags: --paper --keys N --ops N --threads N "
            "--shards N --placement hash|range "
            "--epoch-ms N "
            "--service-threads N --backpressure-mb N "
            "--adaptive-debt-mb N "
            "--batch N --rebalance --rebalance-ms N "
            "--rebalance-skew F --hotspot-shift-ops N "
            "--elastic --cold-ops N --merge-max-mb N "
            "--alloc-arenas N --value-bytes N --json PATH\n";
        Params p;
        FlagReader f(argc, argv, kUsage);
        while (f.next()) {
            if (f.is("--paper")) {
                p.paperScale = true;
                p.numKeys = 20000000;
                p.opsPerThread = 1000000;
                p.threads = 8;
                p.epochInterval = std::chrono::milliseconds(64);
            } else if (f.is("--keys")) {
                p.numKeys = f.num<std::uint64_t>(1);
            } else if (f.is("--ops")) {
                p.opsPerThread = f.num<std::uint64_t>(1);
            } else if (f.is("--threads")) {
                p.threads = f.num<unsigned>(1);
            } else if (f.is("--shards")) {
                p.shards = f.num<unsigned>(1);
            } else if (f.is("--placement")) {
                p.placement = f.valueOf(store::placementKindFromString);
            } else if (f.is("--epoch-ms")) {
                p.epochInterval =
                    std::chrono::milliseconds(f.num<unsigned>(1));
            } else if (f.is("--service-threads")) {
                p.serviceThreads = f.num<unsigned>(1);
            } else if (f.is("--backpressure-mb")) {
                p.backpressureMb = f.num<unsigned>();
            } else if (f.is("--adaptive-debt-mb")) {
                p.adaptiveDebtMb = f.num<unsigned>();
            } else if (f.is("--batch")) {
                p.batch = f.num<unsigned>(1);
            } else if (f.is("--rebalance")) {
                p.rebalance = true;
            } else if (f.is("--rebalance-ms")) {
                p.rebalanceMs = f.num<unsigned>(1);
            } else if (f.is("--rebalance-skew")) {
                p.rebalanceSkew = f.real(1.0, 1e9);
            } else if (f.is("--hotspot-shift-ops")) {
                p.hotspotShiftOps = f.num<std::uint64_t>();
            } else if (f.is("--elastic")) {
                p.elastic = true;
                p.rebalance = true; // elasticity rides the Rebalancer
            } else if (f.is("--cold-ops")) {
                p.coldOps = f.num<std::uint64_t>();
            } else if (f.is("--merge-max-mb")) {
                p.mergeMaxMb = f.num<unsigned>(1);
            } else if (f.is("--alloc-arenas")) {
                p.allocArenas = f.num<unsigned>(
                    0, DurableAllocator::kMaxArenas); // 0 = auto
            } else if (f.is("--value-bytes")) {
                p.valueBytes = f.num<std::size_t>(16);
            } else if (f.is("--json")) {
                p.jsonPath = f.value();
            } else {
                f.other();
            }
        }
        if (p.backpressureMb > 0 && p.batch <= 1)
            std::fprintf(stderr,
                         "warning: --backpressure-mb only engages for "
                         "batched writers; add --batch N (> 1) for it to "
                         "take effect\n");
        return p;
    }

    /** JSON report for this binary (disabled unless --json was given). */
    JsonReport
    report(std::string_view bench) const
    {
        return JsonReport(jsonPath, bench);
    }
};

/**
 * Pool sized for a durable tree holding @p numKeys entries split over
 * @p shards shards (per-shard bytes). The single-shard formula is the
 * historical one, unchanged, so --shards 1 images stay byte-identical
 * to the pre-store layout.
 */
inline std::size_t
poolBytesFor(std::uint64_t numKeys, unsigned shards = 1)
{
    // Leaf strides (384B per ~14 keys), value buffers (48B), interiors,
    // logs and slack; generously over-provisioned.
    if (shards <= 1)
        return 256u * 1024 * 1024 + static_cast<std::size_t>(numKeys) * 160;
    const std::uint64_t perShard = (numKeys + shards - 1) / shards;
    return 96u * 1024 * 1024 + static_cast<std::size_t>(perShard) * 160;
}

inline ycsb::Spec
specFor(const Params &p, ycsb::Mix mix, KeyChooser::Dist dist)
{
    ycsb::Spec spec;
    spec.mix = mix;
    spec.dist = dist;
    spec.numKeys = p.numKeys;
    spec.opsPerThread = p.opsPerThread;
    spec.threads = p.threads;
    spec.batchSize = p.batch;
    return spec;
}

/**
 * Range boundaries for --placement range, derived at preload time by
 * sampling the YCSB key universe (every stride-th rank's scrambled key)
 * and cutting shards-1 quantiles — the sample-based splitting path of
 * RangePlacement, so the bench exercises what a real loader would do
 * rather than assuming the uniform-u64 closed form.
 */
inline std::vector<std::string>
sampledRangeBoundaries(std::uint64_t numKeys, unsigned shards)
{
    const std::uint64_t n = std::min<std::uint64_t>(numKeys, 4096);
    const std::uint64_t stride = std::max<std::uint64_t>(1, numKeys / n);
    std::vector<std::string> samples;
    samples.reserve(static_cast<std::size_t>(numKeys / stride) + 1);
    for (std::uint64_t r = 0; r < numKeys; r += stride)
        samples.push_back(mt::u64Key(ycsb::scrambledKey(r)));
    return store::RangePlacement::boundariesFromSamples(std::move(samples),
                                                        shards);
}

/** Shard/config shape shared by the fresh and recovery bench setups. */
inline store::ShardedStore::Options
storeOptionsFor(const Params &p, bool inCllEnabled = true)
{
    store::ShardedStore::Options o;
    o.shards = p.shards;
    o.config.inCllEnabled = inCllEnabled;
    o.config.logBuffers = std::max(8u, p.threads);
    o.config.logBufferBytes = 16u << 20;
    o.config.placement = store::placementKindFromString(p.placement);
    o.config.trackHotness = p.rebalance;
    o.config.recordOpLatency = p.recordOpLatency;
    o.config.allocArenas = p.allocArenas;
    if (o.config.placement == store::PlacementKind::kRange && p.shards > 1)
        o.config.rangeBoundaries =
            sampledRangeBoundaries(p.numKeys, p.shards);
    o.poolBytesPerShard = poolBytesFor(p.numKeys, p.shards) +
                          o.config.logBuffers * o.config.logBufferBytes;
    return o;
}

/** The EpochService every durable bench run is driven by. */
inline service::EpochService::Options
serviceOptionsFor(const Params &p)
{
    service::EpochService::Options so;
    so.threads = p.serviceThreads;
    so.interval = p.epochInterval;
    so.maxLogBytesPerEpoch = std::uint64_t{p.backpressureMb} << 20;
    so.adaptiveDebtBytes = std::uint64_t{p.adaptiveDebtMb} << 20;
    return so;
}

/** The Rebalancer of the --rebalance / --elastic flags. */
inline service::Rebalancer::Options
rebalancerOptionsFor(const Params &p)
{
    service::Rebalancer::Options ro;
    ro.interval = std::chrono::milliseconds(p.rebalanceMs);
    ro.skewFactor = p.rebalanceSkew;
    ro.valueBytes = ycsb::kValueBytes;
    ro.elastic = p.elastic;
    ro.coldShardOps = p.coldOps;
    ro.mergeMaxBytes = std::uint64_t{p.mergeMaxMb} << 20;
    return ro;
}

/**
 * Range store over the ORDERED rank space, for the benches whose
 * hotspots are key ranges (bench_rebalance, bench_elasticity):
 * boundary i at rank numKeys*i/shards, preloaded unscrambled, hotness
 * tracked.
 */
struct OrderedRange
{
    unsigned shards;
};

/**
 * Build a durable store in fresh direct-mode pools, preloaded and
 * checkpointed: p.shards INCLL shards placed by --placement, or an
 * OrderedRange.
 */
struct DurableSetup
{
    std::unique_ptr<store::ShardedStore> store;

    DurableSetup(const Params &p, bool inCllEnabled = true,
                 bool emulateWbinvd = true)
    {
        build(p, storeOptionsFor(p, inCllEnabled), emulateWbinvd,
              /*scramble=*/true);
    }

    DurableSetup(const Params &p, OrderedRange r)
    {
        Params q = p;
        q.shards = r.shards;
        store::ShardedStore::Options o = storeOptionsFor(q);
        o.config.placement = store::PlacementKind::kRange;
        o.config.trackHotness = true;
        o.config.rangeBoundaries.clear();
        for (unsigned s = 1; s < r.shards; ++s)
            o.config.rangeBoundaries.push_back(
                mt::u64Key(p.numKeys * s / r.shards));
        build(p, o, /*emulateWbinvd=*/true, /*scramble=*/false);
    }

    /**
     * Run @p spec @p passes times back to back under one EpochService
     * (serviceOptionsFor) and, when @p ro is given, one Rebalancer
     * attached to it — splitting any range shard the workload skews
     * onto; under hash placement it detects but never moves. Returns
     * each pass's result.
     */
    std::vector<ycsb::Result>
    runPasses(const Params &p, const ycsb::Spec &spec, unsigned passes,
              const service::Rebalancer::Options *ro)
    {
        service::EpochService svc(*store, serviceOptionsFor(p));
        std::unique_ptr<service::Rebalancer> reb;
        if (ro != nullptr)
            reb = std::make_unique<service::Rebalancer>(*store, *ro, &svc);
        svc.start();
        if (reb)
            reb->start();
        std::vector<ycsb::Result> res;
        for (unsigned i = 0; i < passes; ++i)
            res.push_back(ycsb::run(*store, spec));
        if (reb)
            reb->stop();
        svc.stop();
        lastServiceCounters = svc.totalCounters();
        lastRebalancerCounters = reb ? reb->counters()
                                     : service::Rebalancer::Counters{};
        return res;
    }

    /** One pass of @p spec, with the flags' Rebalancer under
     *  --rebalance (hotness tracking was enabled at store creation). */
    ycsb::Result
    run(const Params &p, const ycsb::Spec &spec)
    {
        const service::Rebalancer::Options ro = rebalancerOptionsFor(p);
        return runPasses(p, spec, 1, p.rebalance ? &ro : nullptr).back();
    }

    /** Service counters of the last run. */
    service::EpochService::ShardCounters lastServiceCounters{};

    /** Rebalancer counters of the last run (zeros without one). */
    service::Rebalancer::Counters lastRebalancerCounters{};

    /** Emulated sfence latency knob, applied to every shard pool. */
    void
    setSfenceExtraNs(std::uint64_t ns)
    {
        store->forEachShard([ns](incll::store::Shard &s) {
            s.pool().latency().sfenceExtraNs = ns;
        });
    }

    /** External-log bytes appended, summed over shards. */
    std::uint64_t
    logBytesAppended()
    {
        std::uint64_t total = 0;
        store->forEachShard([&total](incll::store::Shard &s) {
            total += s.tree().log().bytesAppended();
        });
        return total;
    }

  private:
    void
    build(const Params &p, const store::ShardedStore::Options &o,
          bool emulateWbinvd, bool scramble)
    {
        store = std::make_unique<store::ShardedStore>(o);
        if (emulateWbinvd)
            store->forEachShard([&p](incll::store::Shard &s) {
                s.pool().latency().wbinvdNs = p.wbinvdNs;
            });
        ycsb::preload(*store, p.numKeys, scramble);
        store->advanceEpoch();
    }
};

inline const char *
distName(KeyChooser::Dist d)
{
    switch (d) {
      case KeyChooser::Dist::kUniform: return "uniform";
      case KeyChooser::Dist::kZipfian: return "zipfian";
      case KeyChooser::Dist::kHotspot: return "hotspot";
    }
    return "?";
}

/**
 * Delta window over the global stat counters: construct it before a
 * workload, then read since(Stat) after — each bench names the counters
 * it reports instead of growing a bespoke snapshot struct per figure
 * (this replaced the old EpochCost/ScanLocality pair). The base is the
 * full counter set, so one window serves any number of stats.
 */
class StatWindow
{
  public:
    static constexpr unsigned kNumStats =
        static_cast<unsigned>(Stat::kNumStats);

    StatWindow()
    {
        for (unsigned i = 0; i < kNumStats; ++i)
            base_[i] = globalStats().get(static_cast<Stat>(i));
    }

    /** Growth of @p s since this window opened. */
    std::uint64_t
    since(Stat s) const
    {
        return globalStats().get(s) - base_[static_cast<unsigned>(s)];
    }

    /**
     * Average gates entered per cross-shard scan in this window — the
     * gather width (== shard count: every scan pays the full
     * gather-merge; ~1: range placement keeps scans inside one shard).
     * 0 when no scans ran (single-shard stores count nothing).
     */
    double
    shardsPerScan() const
    {
        const std::uint64_t scans = since(Stat::kScans);
        return scans > 0
                   ? static_cast<double>(since(Stat::kScanShardsEntered)) /
                         static_cast<double>(scans)
                   : 0.0;
    }

  private:
    std::uint64_t base_[kNumStats] = {};
};

/** Delta window over one global obs histogram, like StatWindow: the
 *  samples recorded since construction. */
class HistWindow
{
  public:
    explicit HistWindow(obs::Hist h) : h_(h), base_(obs::hist(h).snapshot())
    {
    }

    obs::HistSnapshot
    since() const
    {
        obs::HistSnapshot s = obs::hist(h_).snapshot();
        s.subtract(base_);
        return s;
    }

  private:
    obs::Hist h_;
    obs::HistSnapshot base_;
};

} // namespace incll::bench
