/**
 * @file
 * Observability hot-path cost: the contended baseline the per-thread
 * counter slabs replaced, measured directly.
 *
 * Two phases, same work (each of T threads bumps its *own* counter N
 * times — no logical sharing at all):
 *
 *  - shared_atomics: counters live in one contiguous atomic array, the
 *    original StatSet layout. Distinct counters share cache lines, so
 *    every add bounces a line between cores — pure false sharing.
 *  - registry: the same adds through StatSet, which lands them in
 *    per-thread 64-byte-aligned slabs. No line is ever written by two
 *    threads.
 *
 * The printed/JSON ns-per-add pair is the satellite acceptance evidence
 * for the false-sharing fix; the registry number is also the absolute
 * cost a hot-path counter bump adds (relaxed fetch_add + TLS hit).
 *
 * Usage: bench_obs_overhead [--threads N --ops N --json PATH]
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "json_out.h"

using namespace incll;

namespace {

using Clock = std::chrono::steady_clock;

double
runShared(unsigned threads, std::uint64_t opsPerThread)
{
    // The old layout: adjacent atomics, no padding. Thread t owns
    // counters_[t]; with 8-byte counters, 8 threads share one line.
    std::vector<std::atomic<std::uint64_t>> counters(
        static_cast<unsigned>(Stat::kNumStats));
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&counters, t, opsPerThread] {
            auto &c = counters[t % counters.size()];
            for (std::uint64_t i = 0; i < opsPerThread; ++i)
                c.fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (auto &th : pool)
        th.join();
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    return secs * 1e9 / static_cast<double>(opsPerThread * threads);
}

double
runSlabs(unsigned threads, std::uint64_t opsPerThread)
{
    StatSet stats; // local set: the measured object, isolated
    const auto start = Clock::now();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&stats, t, opsPerThread] {
            const Stat s = static_cast<Stat>(
                t % static_cast<unsigned>(Stat::kNumStats));
            for (std::uint64_t i = 0; i < opsPerThread; ++i)
                stats.add(s);
        });
    }
    for (auto &th : pool)
        th.join();
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    return secs * 1e9 / static_cast<double>(opsPerThread * threads);
}

} // namespace

int
main(int argc, char **argv)
{
    static constexpr const char *kUsage =
        "flags: --threads N --ops N --json PATH\n";
    unsigned threads = 4;
    std::uint64_t opsPerThread = 2000000;
    std::string jsonPath;
    FlagReader f(argc, argv, kUsage);
    while (f.next()) {
        if (f.is("--threads"))
            threads = f.num<unsigned>(1);
        else if (f.is("--ops"))
            opsPerThread = f.num<std::uint64_t>(1);
        else if (f.is("--json"))
            jsonPath = f.value();
        else
            f.other();
    }

    bench::JsonReport report(jsonPath, "obs_overhead");
    const double sharedNs = runShared(threads, opsPerThread);
    const double registryNs = runSlabs(threads, opsPerThread);
    std::printf("# counter add cost, %u threads x %llu adds\n", threads,
                static_cast<unsigned long long>(opsPerThread));
    std::printf("shared_atomics %8.2f ns/add (adjacent lines, the old "
                "StatSet layout)\nregistry       %8.2f ns/add "
                "(per-thread padded slabs)\nspeedup        %8.2fx\n",
                sharedNs, registryNs,
                registryNs > 0.0 ? sharedNs / registryNs : 0.0);
    report.row()
        .field("threads", threads)
        .field("ops_per_thread", opsPerThread)
        .field("shared_ns_per_add", sharedNs)
        .field("registry_ns_per_add", registryNs)
        .field("speedup",
               registryNs > 0.0 ? sharedNs / registryNs : 0.0);
    return 0;
}
