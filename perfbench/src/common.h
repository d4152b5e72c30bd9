/**
 * @file
 * Shared pieces of the repository benchmark: the command line, the
 * flush cost model every workload runs under, store construction and
 * preload, per-round latency histograms, /proc readers and the result
 * line the benchmark ends with.
 */
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "store/sharded_store.h"

namespace perfbench {

/** Seed used when --seed is not given (README.md names the held-out one). */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    unsigned seconds = 20;
    bool trace = false;
    /** Provenance only: the commit (or source digest) being measured. */
    std::string commit = "unknown";
    /** Where the traced run writes its spans. */
    std::string outDir = ".";
};

/** Parse the command line; throws std::invalid_argument on bad input. */
Args parseArgs(int argc, char **argv);

// ---- the flush cost model (paper §6.2), identical for every workload ----

/** Emulated wbinvd per shard boundary (LatencyModel::wbinvdNs). */
inline constexpr std::uint64_t kWbinvdNs = 1380000;
/** Extra delay after each sfence (LatencyModel::sfenceExtraNs). */
inline constexpr std::uint64_t kSfenceExtraNs = 0;
/** Epoch length; one EpochService thread drives every shard. */
inline constexpr std::chrono::milliseconds kEpochInterval{16};
inline constexpr unsigned kServiceThreads = 1;

/** Durable value-buffer size (the paper's 32-byte buffers). */
inline constexpr std::size_t kValueBytes = 32;
/** Store set-ups per untraced run; setup_s is their median. Except in
 *  crash_recover, each build runs an equal share of the timed rounds. */
inline constexpr unsigned kSetups = 3;
/** Untimed load before the timed phase (thread caches, epochs). */
inline constexpr std::uint64_t kWarmupNs = 500'000'000;
/** The timed phase is cut into rounds of this length; each time-based
 *  metric is taken over its per-round values (see steadyRate()). */
inline constexpr std::uint64_t kRoundNs = 1'000'000'000;
/**
 * The share of rounds a time-based metric may lose to a slow host and
 * still read as on a quiet one: throughput is the upper quartile of the
 * per-round rates and a latency the lower quartile of the per-round
 * percentiles. The host's neighbours slow whole stretches of seconds,
 * never speed one up, so the faster rounds are the program's own speed.
 */
inline constexpr double kSteadyQuantile = 0.75;

inline std::uint64_t
nowNs()
{
    return incll::obs::steadyNowNs();
}

/** Logical CPUs this process may run on (what nproc prints). */
unsigned nproc();

/** CPU model string from /proc/cpuinfo. */
std::string cpuModel();

// ---- keys and payloads ----

/** Stored key of rank @p rank: the YCSB scramble, 8 big-endian bytes.
 *  Byte order equals numeric order of keyU64(). */
struct Key
{
    char b[8];
    std::string_view view() const { return {b, 8}; }
};

std::uint64_t keyU64(std::uint64_t rank);
Key keyOf(std::uint64_t rank);
std::uint64_t decodeKey(std::string_view key);

inline std::uint64_t
loadPayload(const void *v)
{
    std::uint64_t x;
    std::memcpy(&x, v, sizeof(x));
    return x;
}

// ---- stores ----

struct StoreShape
{
    unsigned shards = 1;
    bool range = false;
    std::uint64_t keys = 0;
    incll::nvm::Mode mode = incll::nvm::Mode::kDirect;
    /** Seeds the tracked pools' eviction adversary (crash images). */
    std::uint64_t poolSeed = 1;
    bool recordOpLatency = false;
};

incll::store::ShardedStore::Options storeOptions(const StoreShape &shape);

/**
 * Build a store, apply the flush cost model to every pool, preload
 * ranks 0..keys-1 (payload = rank, in kValueBytes buffers) and take the
 * first checkpoint.
 */
std::unique_ptr<incll::store::ShardedStore> buildStore(const StoreShape &shape);

/** Σ over shards of pool bytes handed out (size − rawAvailable). */
std::uint64_t poolUsedBytes(incll::store::ShardedStore &st);

/** Bytes reserved for external-log buffers over all shards. */
std::uint64_t logReservedBytes(const StoreShape &shape);

// ---- counters and histograms the program exports ----

/** Every global counter at one instant. */
struct Counters
{
    Counters();
    /** Growth of @p s from @p earlier to this snapshot. */
    double
    since(const Counters &earlier, incll::Stat s) const
    {
        const auto i = static_cast<unsigned>(s);
        return static_cast<double>(v[i] - earlier.v[i]);
    }

    std::array<std::uint64_t, static_cast<unsigned>(incll::Stat::kNumStats)>
        v{};
};

// ---- per-round latency ----

/** Latency histograms of one op type, one per round of the timed phase. */
struct Rounds
{
    explicit Rounds(unsigned rounds = 0) : hist(rounds) {}

    void
    record(unsigned round, std::uint64_t ns)
    {
        if (round < hist.size())
            hist[round].record(ns);
    }
    void merge(const Rounds &o);
    std::uint64_t count() const;
    /** Per-round percentile @p p, in µs, for rounds that have ops. */
    std::vector<double> pctUs(double p) const;
    /** The per-round percentile @p p of the faster rounds (the lower
     *  quartile over rounds), in µs. */
    double steadyPctUs(double p) const;
    /** Ops completed per second, round by round. */
    std::vector<double> rates() const;

    std::vector<incll::obs::HistSnapshot> hist;
};

double median(std::vector<double> v);
/** Quantile @p q (0..1) of @p v, interpolating between neighbours. */
double quantile(std::vector<double> v, double q);
/** Throughput of the faster rounds: the upper quartile of @p rates. */
double steadyRate(std::vector<double> rates);
/** Latency of the faster rounds: the lower quartile of @p us. */
double steadyLatency(std::vector<double> us);

// ---- /proc ----

/** VmHWM of this process, in MiB. */
double peakRssMb();

/** Thread ids of this process, ascending. */
std::vector<pid_t> taskIds();

struct TaskUsage
{
    double cpuSeconds = 0.0;    ///< utime + stime
    std::uint64_t syscw = 0;    ///< write-family syscalls issued
};
TaskUsage taskUsage(pid_t tid);

/** CPU time of the calling thread, in seconds. */
double threadCpuSeconds();

// ---- the result line ----

struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** name -> (value, unit) */
    std::map<std::string, std::pair<double, std::string>> metrics;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
};

/** One human-readable "name value unit" report line. */
void line(const char *name, double value, const char *unit);

} // namespace perfbench
