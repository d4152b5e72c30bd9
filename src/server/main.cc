/**
 * @file
 * incll_server: stand-alone networked front-end over a sharded INCLL
 * store. Builds the store (optionally preloaded with the YCSB key
 * universe and checkpointed), attaches the EpochService that advances
 * every shard's epoch — so an acked write becomes durable within about
 * one interval — then serves the binary protocol until SIGINT/SIGTERM.
 *
 * Prints one `READY port=<port> shards=<n>` line to stdout once the
 * socket is listening, so scripts (scripts/bench.sh, CI's server-smoke
 * job) can wait for startup without sleeping blind.
 */
#include <csignal>
#include <cstdio>
#include <memory>
#include <semaphore>
#include <string>

#include "common/flags.h"
#include "common/stats.h"
#include "server/server.h"
#include "service/epoch_service.h"
#include "store/sharded_store.h"
#include "ycsb/driver.h"

namespace {

std::binary_semaphore gStopSem{0};

void
onSignal(int)
{
    gStopSem.release();
}

struct Args
{
    std::uint16_t port = 0;
    unsigned shards = 4;
    std::string placement = "hash";
    std::uint64_t keys = 200000;
    std::size_t valueBytes = incll::ycsb::kValueBytes;
    unsigned ioThreads = 2;
    unsigned execThreads = 2;
    unsigned serviceThreads = 2;
    unsigned epochMs = 16;
    unsigned backpressureMb = 0;
    unsigned adaptiveDebtMb = 0;
    bool allowCrash = false;
    unsigned slowOpUs = 0;
    bool recordOpLatency = false;
};

Args
parseArgs(int argc, char **argv)
{
    static constexpr const char *kUsage =
        "flags: --port N --shards N --placement hash|range "
        "--keys N --value-bytes N --io-threads N --exec-threads N "
        "--service-threads N --epoch-ms N "
        "--backpressure-mb N --adaptive-debt-mb N "
        "--allow-crash --slow-op-us N --record-op-latency\n";
    Args a;
    incll::FlagReader f(argc, argv, kUsage);
    while (f.next()) {
        if (f.is("--port")) {
            a.port = f.num<std::uint16_t>(); // 0 = ephemeral
        } else if (f.is("--shards")) {
            a.shards = f.num<unsigned>(1);
        } else if (f.is("--placement")) {
            a.placement = f.valueOf(incll::store::placementKindFromString);
        } else if (f.is("--keys")) {
            a.keys = f.num<std::uint64_t>(); // 0 = no preload
        } else if (f.is("--value-bytes")) {
            a.valueBytes = f.num<std::size_t>(1);
        } else if (f.is("--io-threads")) {
            a.ioThreads = f.num<unsigned>(1);
        } else if (f.is("--exec-threads")) {
            a.execThreads = f.num<unsigned>(1);
        } else if (f.is("--service-threads")) {
            a.serviceThreads = f.num<unsigned>(1);
        } else if (f.is("--epoch-ms")) {
            a.epochMs = f.num<unsigned>(1);
        } else if (f.is("--backpressure-mb")) {
            a.backpressureMb = f.num<unsigned>();
        } else if (f.is("--adaptive-debt-mb")) {
            a.adaptiveDebtMb = f.num<unsigned>();
        } else if (f.is("--allow-crash")) {
            a.allowCrash = true;
        } else if (f.is("--slow-op-us")) {
            a.slowOpUs = f.num<unsigned>();
        } else if (f.is("--record-op-latency")) {
            a.recordOpLatency = true;
        } else {
            f.other();
        }
    }
    return a;
}

/** Pool sizing for a preload of @p keys over @p shards (bench formula,
 *  re-stated here: the server must not depend on bench headers). */
std::size_t
poolBytes(std::uint64_t keys, unsigned shards,
          const incll::store::StoreConfig &cfg)
{
    const std::uint64_t perShard = (keys + shards - 1) / shards;
    return 96u * 1024 * 1024 + static_cast<std::size_t>(perShard) * 160 +
           cfg.logBuffers * cfg.logBufferBytes;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace incll;
    const Args a = parseArgs(argc, argv);

    store::ShardedStore::Options so;
    so.shards = a.shards;
    // Crash-cycling needs dirty-line tracking; without it, serve from
    // the fast direct-mode pools.
    so.mode = a.allowCrash ? nvm::Mode::kTracked : nvm::Mode::kDirect;
    so.config.logBuffers = std::max(8u, a.ioThreads + a.execThreads);
    so.config.logBufferBytes = 16u << 20;
    so.config.placement = store::placementKindFromString(a.placement);
    so.config.recordOpLatency = a.recordOpLatency;
    if (so.config.placement == store::PlacementKind::kRange &&
        a.shards > 1) {
        // Sample the YCSB key universe for boundaries, exactly as the
        // benches do (RangePlacement's sample-based splitting path).
        const std::uint64_t n = std::min<std::uint64_t>(a.keys, 4096);
        const std::uint64_t stride = std::max<std::uint64_t>(1, a.keys / n);
        std::vector<std::string> samples;
        for (std::uint64_t r = 0; r < a.keys; r += stride)
            samples.push_back(mt::u64Key(ycsb::scrambledKey(r)));
        so.config.rangeBoundaries =
            store::RangePlacement::boundariesFromSamples(
                std::move(samples), a.shards);
    }
    so.poolBytesPerShard = poolBytes(a.keys, a.shards, so.config);

    auto st = std::make_unique<store::ShardedStore>(so);
    // Every boundary of a direct-mode pool pays the paper's measured
    // flush; the pools keep it across a kCrash cycle.
    st->forEachShard([](store::Shard &s) {
        s.pool().latency().wbinvdNs = nvm::kPaperWbinvdNs;
    });
    if (a.keys > 0) {
        ycsb::preload(*st, a.keys);
        st->advanceEpoch();
    }

    server::Server::Options svo;
    svo.port = a.port;
    svo.ioThreads = a.ioThreads;
    svo.executorThreads = a.execThreads;
    svo.valueBytes = a.valueBytes;
    svo.allowCrash = a.allowCrash;
    svo.slowOpThreshold = std::chrono::microseconds(a.slowOpUs);

    // The EpochService is the only thing that advances an epoch after
    // the preload's checkpoint: without it no acked write ever becomes
    // durable.
    std::unique_ptr<service::EpochService> svc;
    server::Server *serverPtr = nullptr;
    service::EpochService::Options eso;
    eso.threads = a.serviceThreads;
    eso.interval = std::chrono::milliseconds(a.epochMs);
    eso.maxLogBytesPerEpoch = std::uint64_t{a.backpressureMb} << 20;
    eso.adaptiveDebtBytes = std::uint64_t{a.adaptiveDebtMb} << 20;
    // The kCrash cycle replaces the store object: detach the service
    // before the pools are crash-cycled, re-attach to the recovered
    // store after.
    svo.beforeCrash = [&svc] { svc.reset(); };
    svo.afterRecover = [&svc, &serverPtr, eso] {
        svc = std::make_unique<service::EpochService>(serverPtr->store(),
                                                      eso);
        svc->start();
    };

    server::Server server(std::move(st), so.config, svo);
    serverPtr = &server;
    server.start();
    svc = std::make_unique<service::EpochService>(server.store(), eso);
    svc->start();

    std::printf("READY port=%u shards=%u placement=%s keys=%llu\n",
                server.port(), a.shards, a.placement.c_str(),
                static_cast<unsigned long long>(a.keys));
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    gStopSem.acquire();

    svc.reset();
    server.stop();
    std::fputs(globalStats().toString().c_str(), stderr);
    return 0;
}
