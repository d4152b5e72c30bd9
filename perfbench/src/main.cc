/**
 * @file
 * incll_perfbench: the repository benchmark.
 *
 *   incll_perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
 *                   [--commit ID] [--out-dir DIR]
 *
 * Runs one workload, prints its provenance and a human-readable report,
 * and ends with one JSON line: {"correct", "attempted", "failed",
 * "metrics"}. An untraced run reports the end-to-end metrics; a traced
 * run (--trace 1) reports the per-layer ledger. See perfbench/README.md.
 */
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

struct WorkloadDef
{
    const char *name;
    Result (*run)(const Args &);
    /** Threads per role; their sum must not exceed nproc. */
    std::vector<std::pair<const char *, unsigned>> roles;
    const char *flush;
};

const char *const kDirectFlush =
    "direct pools, wbinvd_ns=1380000 per shard boundary, sfence_extra_ns=0, "
    "epoch_ms=16 driven by 1 EpochService thread, lock-free allocator";

const std::vector<WorkloadDef> kWorkloads = {
    {"ycsb_a_zipf", runYcsbA, {{"worker", 3}, {"service", 1}},
     kDirectFlush},
    {"scan_range", runScanRange, {{"worker", 3}, {"service", 1}},
     kDirectFlush},
    {"wire_point", runWirePoint,
     {{"client", 1}, {"io", 1}, {"executor", 1}, {"service", 1}},
     kDirectFlush},
    {"crash_recover", runCrashRecover, {{"writer", 1}},
     "tracked pools (boundary = flush of dirty lines, no emulated stall), "
     "explicit advanceEpoch, no epoch timers, lock-free allocator, "
     "crash eviction probability 0.3"},
};

/** The end-to-end metrics of BENCHMARK.json, in its order. */
struct E2eMetric
{
    const char *name;
    const char *unit;
};
const E2eMetric kE2eMetrics[] = {
    {"throughput_ops_s", "ops/s"}, {"op_p50_us", "us"},
    {"op_p99_us", "us"},           {"space_amp", "ratio"},
    {"peak_rss_mb", "MiB"},        {"setup_s", "s"},
};

void
printJson(const Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto &[name, vu] : r.metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), vu.first,
                    vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

void
finishE2e(Result &r, const E2e &e, const std::vector<double> &setups)
{
    const double errorFrac =
        r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0;
    const double values[] = {e.throughput, e.opP50,      e.opP99,
                             e.spaceAmp,   peakRssMb(),  e.setupS};
    static_assert(std::size(values) == std::size(kE2eMetrics));
    std::printf("# end-to-end (untraced; rates and latencies of the faster "
                "rounds: upper quartile of round_ops_s, lower quartile of "
                "round_p50_us and round_p99_us)\n");
    for (const auto &n : e.named)
        line(n.name.c_str(), n.value, n.unit);
    line("error_frac", errorFrac, "ratio");
    auto rounds = [](const char *name, const std::vector<double> &xs) {
        std::printf("  %-34s", name);
        for (double x : xs)
            std::printf(" %.6g", x);
        std::printf("\n");
    };
    rounds("round_ops_s", e.roundRates);
    rounds("round_p50_us", e.roundP50);
    rounds("round_p99_us", e.roundP99);
    std::printf("  setups_s                          ");
    for (double s : setups)
        std::printf(" %.4f", s);
    std::printf("\n");
    for (std::size_t i = 0; i < std::size(kE2eMetrics); ++i) {
        line(kE2eMetrics[i].name, values[i], kE2eMetrics[i].unit);
        r.set(kE2eMetrics[i].name, values[i], kE2eMetrics[i].unit);
    }
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args a;
    try {
        a = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "incll_perfbench: %s\n", e.what());
        return 2;
    }
    const WorkloadDef *w = nullptr;
    for (const auto &d : kWorkloads)
        if (a.workload == d.name)
            w = &d;
    if (w == nullptr) {
        std::fprintf(stderr, "incll_perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    unsigned threads = 0;
    std::string roles;
    for (const auto &[role, n] : w->roles) {
        threads += n;
        roles += (roles.empty() ? "" : ", ") + std::string("\"") + role +
                 "\": " + std::to_string(n);
    }
    if (threads > nproc()) {
        std::fprintf(stderr,
                     "incll_perfbench: %s needs %u threads but nproc is %u\n",
                     w->name, threads, nproc());
        return 2;
    }
    std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %u, \"trace\": %d, \"nproc\": %u, "
                "\"cpu\": \"%s\", \"commit\": \"%s\", \"build_type\": "
                "\"%s\", \"threads\": {%s}, \"flush\": \"%s\"}\n",
                w->name, static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, nproc(), cpuModel().c_str(),
                a.commit.c_str(), PERFBENCH_BUILD_TYPE, roles.c_str(),
                w->flush);
    std::fflush(stdout);
    try {
        printJson(w->run(a));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "incll_perfbench: %s: %s\n", w->name, e.what());
        return 1;
    }
}
