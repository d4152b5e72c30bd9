/**
 * @file
 * Load generator for incll_server: drives the binary wire protocol over
 * TCP with closed-loop (connections × pipeline depth) or open-loop
 * (Poisson arrivals at --rate ops/s) load, and reports throughput plus
 * p50/p95/p99 request latency against an SLO.
 *
 * Closed loop measures capacity: each connection keeps --pipeline
 * requests in flight, so offered load tracks service rate. Open loop
 * measures the operating point the paper's tail-latency story cares
 * about: requests arrive on a schedule that does not slow down when the
 * server does, and latency is measured from the *scheduled* arrival —
 * queueing delay a lagging server builds up is charged to it.
 *
 * With --baseline the same mix first runs *in process* against an
 * identically configured local store through the batched store API
 * (multiGet / installValueBatch) — the server's acceptance yardstick:
 * the wire front-end at 4 shards should hold ≥ half of that. Both rows
 * and their ratio land in the --json report (BENCH_server.json).
 *
 * Keys follow the YCSB preload universe (rank scrambled into a u64
 * key), so --keys here must match the server's --keys for a ~100% hit
 * rate; reads of un-preloaded ranks are honest misses.
 */
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "json_out.h"
#include "obs/histogram.h"
#include "server/protocol.h"
#include "store/value_util.h"
#include "ycsb/driver.h"

namespace {

using namespace incll;
using Clock = std::chrono::steady_clock;

struct LgArgs
{
    std::uint16_t port = 7700;
    unsigned connections = 4;
    unsigned pipeline = 16;
    double rate = 0.0; ///< total ops/s, Poisson; 0 = closed loop
    std::uint64_t opsPerConn = 100000;
    std::uint64_t keys = 200000;
    unsigned readPct = 95;
    unsigned multi = 1; ///< ops per request (MULTI framing when > 1)
    std::size_t valueBytes = ycsb::kValueBytes;
    std::uint64_t sloUs = 1000;
    std::uint64_t seed = 42;
    bool baseline = false;
    bool crashDrill = false; ///< after the run: kCrash, then verify
    unsigned shards = 4;          ///< baseline store topology
    std::string placement = "hash";
    unsigned batch = 64;          ///< baseline in-process batch size
    bool stats = false; ///< probe kStats before/mid/after; validate + report
    std::string jsonPath;

    static LgArgs
    parse(int argc, char **argv)
    {
        static constexpr const char *kUsage =
            "flags: --port N --connections N --pipeline N "
            "--rate R --ops N --keys N --read-pct P --multi M "
            "--value-bytes N --slo-us N --seed N --baseline "
            "--shards N --placement hash|range --batch N "
            "--crash-drill --stats --json PATH\n";
        LgArgs a;
        FlagReader f(argc, argv, kUsage);
        while (f.next()) {
            if (f.is("--port")) {
                a.port = f.num<std::uint16_t>(1);
            } else if (f.is("--connections")) {
                a.connections = f.num<unsigned>(1);
            } else if (f.is("--pipeline")) {
                a.pipeline = f.num<unsigned>(1);
            } else if (f.is("--rate")) {
                a.rate = f.real(0.0, 1e12); // 0 = closed loop
            } else if (f.is("--ops")) {
                a.opsPerConn = f.num<std::uint64_t>(1);
            } else if (f.is("--keys")) {
                a.keys = f.num<std::uint64_t>(1);
            } else if (f.is("--read-pct")) {
                a.readPct = f.num<unsigned>(0, 100);
            } else if (f.is("--multi")) {
                a.multi = f.num<unsigned>(1);
            } else if (f.is("--value-bytes")) {
                a.valueBytes = f.num<std::size_t>();
            } else if (f.is("--slo-us")) {
                a.sloUs = f.num<std::uint64_t>();
            } else if (f.is("--seed")) {
                a.seed = f.num<std::uint64_t>();
            } else if (f.is("--baseline")) {
                a.baseline = true;
            } else if (f.is("--crash-drill")) {
                a.crashDrill = true;
            } else if (f.is("--shards")) {
                a.shards = f.num<unsigned>(1);
            } else if (f.is("--placement")) {
                a.placement = f.valueOf(store::placementKindFromString);
            } else if (f.is("--batch")) {
                a.batch = f.num<unsigned>(1);
            } else if (f.is("--stats")) {
                a.stats = true;
            } else if (f.is("--json")) {
                a.jsonPath = f.value();
            } else {
                f.other();
            }
        }
        return a;
    }
};

/**
 * One connection's measured slice of the run. Latency goes straight
 * into a log-bucketed histogram (ns): constant memory however long the
 * run, and the per-connection histograms merge into one snapshot for
 * the report — no giant sample vector, no sort.
 */
struct ConnResult
{
    std::uint64_t ops = 0;
    obs::Histogram latencyNs; ///< per-request, scheduled-to-done
    std::uint64_t misses = 0; ///< kNotFound responses (reads)
    bool failed = false;
};

int
connectTo(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const char *data, std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, data + off, len - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd p{fd, POLLOUT, 0};
            ::poll(&p, 1, 1000);
            continue;
        }
        return false;
    }
    return true;
}

/** Build one request's bytes into @p out; @return ops it carries. */
std::uint64_t
buildRequest(std::vector<char> &out, const LgArgs &a, Rng &rng,
             std::uint64_t seq)
{
    const bool isRead = rng.nextBounded(100) < a.readPct;
    auto keyAt = [&] {
        return mt::u64Key(ycsb::keyOfRank(rng.nextBounded(a.keys), true));
    };
    if (a.multi <= 1) {
        const std::string key = keyAt();
        server::ReqHeader h{};
        h.op = static_cast<std::uint8_t>(isRead ? server::Op::kGet
                                                : server::Op::kPut);
        h.keyLen = static_cast<std::uint16_t>(key.size());
        h.valLen = isRead ? 0u : static_cast<std::uint32_t>(a.valueBytes);
        h.seq = seq;
        server::putRaw(out, h);
        out.insert(out.end(), key.begin(), key.end());
        if (!isRead)
            out.insert(out.end(), a.valueBytes,
                       static_cast<char>(seq & 0xff));
        return 1;
    }
    // MULTI framing: one request, a.multi sub-ops, one response.
    std::vector<char> payload;
    server::putRaw(payload, static_cast<std::uint32_t>(a.multi));
    for (unsigned j = 0; j < a.multi; ++j) {
        const std::string key = keyAt();
        server::putRaw(payload, static_cast<std::uint16_t>(key.size()));
        if (!isRead)
            server::putRaw(payload,
                           static_cast<std::uint32_t>(a.valueBytes));
        payload.insert(payload.end(), key.begin(), key.end());
        if (!isRead)
            payload.insert(payload.end(), a.valueBytes,
                           static_cast<char>(seq & 0xff));
    }
    server::ReqHeader h{};
    h.op = static_cast<std::uint8_t>(isRead ? server::Op::kMultiGet
                                            : server::Op::kMultiPut);
    h.keyLen = 0;
    h.valLen = static_cast<std::uint32_t>(payload.size());
    h.seq = seq;
    server::putRaw(out, h);
    out.insert(out.end(), payload.begin(), payload.end());
    return a.multi;
}

/**
 * One connection's driver loop. Closed loop: keep `pipeline` requests
 * in flight. Open loop: send on the Poisson schedule regardless of
 * completions, measuring latency from the scheduled instant.
 */
void
runConn(const LgArgs &a, unsigned connIdx, ConnResult &res)
{
    const int fd = connectTo(a.port);
    if (fd < 0) {
        res.failed = true;
        return;
    }
    Rng rng(a.seed * 1000003 + connIdx);
    const double perConnRate =
        a.rate > 0.0 ? a.rate / a.connections / a.multi : 0.0;

    const std::uint64_t totalReqs =
        std::max<std::uint64_t>(1, a.opsPerConn / a.multi);
    std::vector<double> sendTime(totalReqs, 0.0); // seconds since start

    const auto start = Clock::now();
    auto secs = [&start](Clock::time_point t) {
        return std::chrono::duration<double>(t - start).count();
    };

    std::uint64_t sent = 0, done = 0;
    double nextSend = 0.0; // open-loop schedule, seconds since start
    std::vector<char> inBuf;
    std::size_t inOff = 0;
    std::vector<char> req;

    while (done < totalReqs) {
        const double now = secs(Clock::now());
        const bool wantSend =
            sent < totalReqs &&
            (a.rate > 0.0 ? now >= nextSend : sent - done < a.pipeline);
        if (wantSend) {
            req.clear();
            res.ops += buildRequest(req, a, rng, sent);
            // Open loop charges from the scheduled arrival, so a
            // late send (client fell behind its own schedule) still
            // reports the queueing the server caused upstream.
            sendTime[sent] = a.rate > 0.0 ? nextSend : now;
            if (!sendAll(fd, req.data(), req.size())) {
                res.failed = true;
                break;
            }
            ++sent;
            if (a.rate > 0.0) {
                // Exponential inter-arrival (Poisson process).
                const double u = std::max(rng.nextDouble(), 1e-12);
                nextSend += -std::log(u) / perConnRate;
            }
            continue;
        }
        // Wait for a response (or the next scheduled send).
        int timeoutMs = 1000;
        if (a.rate > 0.0 && sent < totalReqs) {
            const double wait = (nextSend - now) * 1e3;
            timeoutMs = std::max(0, std::min(1000, static_cast<int>(wait)));
        }
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, timeoutMs) < 0) {
            res.failed = true;
            break;
        }
        if (p.revents & POLLIN) {
            char buf[64 * 1024];
            const ssize_t n = ::read(fd, buf, sizeof(buf));
            if (n <= 0) {
                res.failed = true;
                break;
            }
            inBuf.insert(inBuf.end(), buf, buf + n);
        }
        // Parse complete responses.
        while (inBuf.size() - inOff >= sizeof(server::RespHeader)) {
            server::RespHeader rh;
            std::memcpy(&rh, inBuf.data() + inOff, sizeof(rh));
            if (inBuf.size() - inOff < sizeof(rh) + rh.valLen)
                break;
            inOff += sizeof(rh) + rh.valLen;
            const double doneAt = secs(Clock::now());
            const double ns = (doneAt - sendTime[rh.seq]) * 1e9;
            res.latencyNs.record(
                ns > 0.0 ? static_cast<std::uint64_t>(ns) : 0);
            if (rh.status ==
                static_cast<std::uint8_t>(server::Status::kNotFound))
                ++res.misses;
            ++done;
        }
        if (inOff > (64u << 10)) {
            inBuf.erase(inBuf.begin(),
                        inBuf.begin() + static_cast<std::ptrdiff_t>(inOff));
            inOff = 0;
        }
    }
    ::close(fd);
}

/** Read exactly one response off a blocking socket. */
bool
recvOne(int fd, server::RespHeader &h, std::string &payload)
{
    char *hp = reinterpret_cast<char *>(&h);
    std::size_t off = 0;
    while (off < sizeof(h)) {
        const ssize_t n = ::read(fd, hp + off, sizeof(h) - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    payload.resize(h.valLen);
    off = 0;
    while (off < h.valLen) {
        const ssize_t n = ::read(fd, payload.data() + off, h.valLen - off);
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

// ---------------------------------------------------------------------------
// kStats probing (--stats): fetch, parse, validate, extract percentiles
// ---------------------------------------------------------------------------

/** Fetch one kStats exposition (@p prom: text format, else JSON). */
bool
fetchStats(std::uint16_t port, bool prom, std::string &out)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return false;
    std::vector<char> req;
    server::ReqHeader h{};
    h.op = static_cast<std::uint8_t>(server::Op::kStats);
    h.flags = prom ? server::kFlagStatsProm : 0;
    h.seq = 1;
    server::putRaw(req, h);
    bool ok = sendAll(fd, req.data(), req.size());
    server::RespHeader rh{};
    ok = ok && recvOne(fd, rh, out) &&
         rh.status == static_cast<std::uint8_t>(server::Status::kOk);
    ::close(fd);
    return ok;
}

/** A parsed Prometheus text exposition. */
struct PromData
{
    std::map<std::string, std::string> types; ///< family -> counter/gauge/...
    std::map<std::string, double> samples;    ///< name{labels} -> value
};

/**
 * Strict-enough parse of the Prometheus text format: every non-comment
 * line must be `name[{labels}] <float>`, every `# TYPE` line must name
 * a known type. @return false (with @p err set) on the first bad line.
 */
bool
parsePromText(const std::string &text, PromData &out, std::string &err)
{
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        if (line.rfind("# TYPE ", 0) == 0) {
            const std::size_t sp = line.rfind(' ');
            const std::string family = line.substr(7, sp - 7);
            const std::string type = line.substr(sp + 1);
            if (type != "counter" && type != "gauge" && type != "summary") {
                err = "bad TYPE line: " + line;
                return false;
            }
            out.types[family] = type;
            continue;
        }
        if (line[0] == '#')
            continue;
        const std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp == 0) {
            err = "unparsable sample line: " + line;
            return false;
        }
        const std::string name = line.substr(0, sp);
        char *end = nullptr;
        const double v = std::strtod(line.c_str() + sp + 1, &end);
        if (end == line.c_str() + sp + 1 || *end != '\0') {
            err = "unparsable value: " + line;
            return false;
        }
        out.samples[name] = v;
    }
    return true;
}

/** Family of a sample name: strip labels and the _sum/_count suffix. */
std::string
promFamily(const std::string &sample)
{
    std::string f = sample.substr(0, sample.find('{'));
    for (const char *suffix : {"_sum", "_count"}) {
        const std::size_t n = std::strlen(suffix);
        if (f.size() > n && f.compare(f.size() - n, n, suffix) == 0)
            return f.substr(0, f.size() - n);
    }
    return f;
}

/**
 * Structural validation of one exposition parse: the families the
 * server must export exist with the right types, and every sample
 * belongs to a typed family (directly, or via its _sum/_count suffix or
 * quantile label).
 */
bool
validateProm(const PromData &d, std::string &err)
{
    static const std::pair<const char *, const char *> kRequired[] = {
        {"server_requests", "counter"},
        {"server_stats_requests", "counter"},
        {"server_batches", "counter"},
        {"server_get_ns", "summary"},
        {"server_put_ns", "summary"},
        {"server_batch_flush_ns", "summary"},
        {"hist_gate_wait_ns", "summary"},
        {"hist_epoch_boundary_ns", "summary"},
    };
    for (const auto &[family, type] : kRequired) {
        auto it = d.types.find(family);
        if (it == d.types.end()) {
            err = std::string("missing family: ") + family;
            return false;
        }
        if (it->second != type) {
            err = std::string("family ") + family + " has type " +
                  it->second + ", want " + type;
            return false;
        }
    }
    for (const auto &[name, value] : d.samples) {
        (void)value;
        const std::string family = promFamily(name);
        if (d.types.find(family) == d.types.end()) {
            // A family whose base name collides with a _sum/_count
            // stripping (none today) would land here too — every
            // exported sample must trace back to a TYPE line.
            err = "sample without TYPE line: " + name;
            return false;
        }
    }
    return true;
}

/**
 * Counter monotonicity between two probes of one server: no counter
 * may move backwards (per-thread slabs fold on thread exit, never
 * un-count). Quantiles and gauges are exempt — they legitimately move
 * both ways.
 */
bool
checkMonotonic(const PromData &before, const PromData &after,
               std::string &err)
{
    for (const auto &[name, v0] : before.samples) {
        auto t = before.types.find(promFamily(name));
        if (t == before.types.end() || t->second != "counter")
            continue;
        auto it = after.samples.find(name);
        if (it == after.samples.end()) {
            err = "counter disappeared between probes: " + name;
            return false;
        }
        if (it->second < v0) {
            err = "counter went backwards: " + name;
            return false;
        }
    }
    return true;
}

/** One summary quantile in µs (0.0 when the family is missing/empty). */
double
promQuantileUs(const PromData &d, const std::string &family,
               const char *q)
{
    auto it =
        d.samples.find(family + "{quantile=\"" + q + "\"}");
    return it == d.samples.end() ? 0.0 : it->second / 1000.0;
}

/**
 * Mid-load probe: fetch + validate both formats, then issue a handful
 * of kScan requests so the scan histogram is exercised even though the
 * load mix sends none. Runs concurrently with the load connections.
 */
bool
midLoadProbe(const LgArgs &a, PromData &mid, std::string &err)
{
    std::string text;
    if (!fetchStats(a.port, true, text)) {
        err = "mid-load kStats fetch failed";
        return false;
    }
    if (!parsePromText(text, mid, err) || !validateProm(mid, err))
        return false;
    std::string json;
    if (!fetchStats(a.port, false, json) || json.empty() ||
        json[0] != '{') {
        err = "mid-load JSON kStats fetch failed";
        return false;
    }
    const int fd = connectTo(a.port);
    if (fd < 0) {
        err = "scan probe connect failed";
        return false;
    }
    bool ok = true;
    for (unsigned i = 0; ok && i < 32; ++i) {
        const std::string key = mt::u64Key(
            ycsb::keyOfRank(i * std::max<std::uint64_t>(1, a.keys / 32),
                            true));
        std::vector<char> req;
        server::ReqHeader h{};
        h.op = static_cast<std::uint8_t>(server::Op::kScan);
        h.keyLen = static_cast<std::uint16_t>(key.size());
        h.valLen = 16; // scan limit
        h.seq = i;
        server::putRaw(req, h);
        req.insert(req.end(), key.begin(), key.end());
        server::RespHeader rh{};
        std::string payload;
        ok = sendAll(fd, req.data(), req.size()) &&
             recvOne(fd, rh, payload);
    }
    ::close(fd);
    if (!ok)
        err = "scan probe failed";
    return ok;
}

/**
 * The crash drill of the CI server-smoke job: send the kCrash admin op
 * (the server crash-cycles its emulated NVM pools in place and runs
 * recovery), then prove the recovered store re-serves — reads of the
 * preloaded universe hit, and a fresh write round-trips. Requires a
 * server started with --allow-crash. @return true if the whole drill
 * passed.
 */
bool
runCrashDrill(const LgArgs &a)
{
    const int fd = connectTo(a.port);
    if (fd < 0) {
        std::fprintf(stderr, "crash-drill: cannot connect\n");
        return false;
    }
    auto sendHdr = [&](server::Op op, std::string_view key,
                       std::string_view payload, std::uint64_t seq) {
        std::vector<char> out;
        server::ReqHeader h{};
        h.op = static_cast<std::uint8_t>(op);
        h.keyLen = static_cast<std::uint16_t>(key.size());
        h.valLen = static_cast<std::uint32_t>(payload.size());
        h.seq = seq;
        server::putRaw(out, h);
        out.insert(out.end(), key.begin(), key.end());
        out.insert(out.end(), payload.begin(), payload.end());
        return sendAll(fd, out.data(), out.size());
    };
    server::RespHeader rh{};
    std::string payload;
    bool ok = sendHdr(server::Op::kCrash, {}, {}, 1) &&
              recvOne(fd, rh, payload) &&
              rh.status == static_cast<std::uint8_t>(server::Status::kOk);
    if (!ok) {
        std::fprintf(stderr,
                     "crash-drill: kCrash failed (status %u; server "
                     "started without --allow-crash?)\n",
                     rh.status);
        ::close(fd);
        return false;
    }
    // Recovery re-serves the preloaded universe...
    std::uint64_t hits = 0;
    const std::uint64_t probes = std::min<std::uint64_t>(a.keys, 100);
    for (std::uint64_t r = 0; r < probes; ++r) {
        const std::string key =
            mt::u64Key(ycsb::keyOfRank(r * (a.keys / probes), true));
        if (!sendHdr(server::Op::kGet, key, {}, 2 + r) ||
            !recvOne(fd, rh, payload)) {
            ok = false;
            break;
        }
        hits += rh.status ==
                static_cast<std::uint8_t>(server::Status::kOk);
    }
    // ...and accepts fresh writes.
    const std::string freshKey = "crash-drill-fresh";
    const std::string freshVal(a.valueBytes, 'd');
    ok = ok && sendHdr(server::Op::kPut, freshKey, freshVal, 999) &&
         recvOne(fd, rh, payload) &&
         rh.status == static_cast<std::uint8_t>(server::Status::kOk);
    ::close(fd);
    // The preload was made durable by the server's post-preload epoch
    // advance, so every probe must hit after recovery.
    ok = ok && hits == probes;
    std::printf("crash-drill: %s (recovered hits %llu/%llu)\n",
                ok ? "OK" : "FAILED",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(probes));
    return ok;
}

/**
 * The acceptance yardstick: the same key mix through the in-process
 * batched store API on an identically shaped local store. Returns
 * ops/s.
 */
double
runBaseline(const LgArgs &a)
{
    bench::Params p;
    p.numKeys = a.keys;
    p.shards = a.shards;
    p.placement = a.placement;
    auto st = std::make_unique<store::ShardedStore>(
        bench::storeOptionsFor(p));
    ycsb::preload(*st, a.keys);
    st->advanceEpoch();

    const std::uint64_t opsPerThread = a.opsPerConn;
    std::atomic<std::uint64_t> totalOps{0};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < a.connections; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(a.seed * 7919 + t);
            std::vector<std::string> keys(a.batch);
            std::vector<std::string_view> getKeys;
            std::vector<void *> getOut(a.batch);
            std::vector<store::InstallOp> puts;
            std::vector<char> val(a.valueBytes, 'v');
            std::uint64_t ops = 0;
            while (ops < opsPerThread) {
                const std::size_t n = std::min<std::uint64_t>(
                    a.batch, opsPerThread - ops);
                getKeys.clear();
                puts.clear();
                for (std::size_t i = 0; i < n; ++i) {
                    keys[i] = mt::u64Key(
                        ycsb::keyOfRank(rng.nextBounded(a.keys), true));
                    if (rng.nextBounded(100) < a.readPct)
                        getKeys.push_back(keys[i]);
                    else
                        puts.push_back({keys[i], val.data(), val.size(),
                                        false});
                }
                if (!getKeys.empty())
                    st->multiGet(getKeys, getOut.data());
                if (!puts.empty())
                    store::installValueBatch(*st, puts, a.valueBytes);
                ops += n;
            }
            totalOps.fetch_add(ops, std::memory_order_relaxed);
        });
    }
    for (auto &t : threads)
        t.join();
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double thr = static_cast<double>(totalOps.load()) / secs;
    std::printf("baseline: inproc batched %.0f ops/s "
                "(%u threads, batch %u, shards %u/%s)\n",
                thr, a.connections, a.batch, a.shards,
                a.placement.c_str());
    ycsb::destroyWithValues(*st);
    return thr;
}

} // namespace

int
main(int argc, char **argv)
{
    const LgArgs a = LgArgs::parse(argc, argv);
    bench::JsonReport report(a.jsonPath, "server_loadgen");

    double baselineThr = 0.0;
    if (a.baseline)
        baselineThr = runBaseline(a);

    // --stats: one probe before the load (baseline for monotonicity)...
    PromData statsBefore, statsMid, statsAfter;
    if (a.stats) {
        std::string text, err;
        if (!fetchStats(a.port, true, text) ||
            !parsePromText(text, statsBefore, err) ||
            !validateProm(statsBefore, err)) {
            std::fprintf(stderr, "loadgen: pre-load kStats failed: %s\n",
                         err.c_str());
            return 1;
        }
    }

    std::vector<ConnResult> results(a.connections);
    bool statsMidOk = true;
    std::string statsMidErr;
    const auto start = Clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < a.connections; ++c)
            threads.emplace_back(
                [&a, &results, c] { runConn(a, c, results[c]); });
        // ...one mid-load (the exposition must render while batches are
        // in flight, and the scan probe exercises the scan path)...
        if (a.stats)
            statsMidOk = midLoadProbe(a, statsMid, statsMidErr);
        for (auto &t : threads)
            t.join();
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();

    obs::HistSnapshot lat;
    std::uint64_t ops = 0, misses = 0;
    bool failed = false;
    for (const ConnResult &r : results) {
        lat.add(r.latencyNs.snapshot());
        ops += r.ops;
        misses += r.misses;
        failed |= r.failed;
    }
    if (failed || lat.count == 0) {
        std::fprintf(stderr,
                     "loadgen: connection failures (server down?)\n");
        return 1;
    }
    const double thr = static_cast<double>(ops) / secs;
    const double p50 = lat.percentile(50) / 1e3,
                 p95 = lat.percentile(95) / 1e3,
                 p99 = lat.percentile(99) / 1e3;
    const double sloOk = lat.fractionAtOrBelow(a.sloUs * 1000);

    // ...and one after, for counter monotonicity and the store-side
    // percentile columns of the report.
    if (a.stats) {
        std::string text, err;
        bool ok = statsMidOk;
        if (!ok)
            err = statsMidErr;
        ok = ok && fetchStats(a.port, true, text) &&
             parsePromText(text, statsAfter, err) &&
             validateProm(statsAfter, err);
        ok = ok && checkMonotonic(statsBefore, statsAfter, err);
        ok = ok && checkMonotonic(statsMid, statsAfter, err);
        if (ok &&
            statsAfter.samples.count("server_scan_ns_count") != 0 &&
            statsAfter.samples["server_scan_ns_count"] < 32.0) {
            ok = false;
            err = "scan probe not visible in server_scan_ns_count";
        }
        if (!ok) {
            std::fprintf(stderr, "loadgen: kStats validation failed: %s\n",
                         err.c_str());
            return 1;
        }
        std::printf(
            "stats: server-side lat(us) get p50 %.1f p99 %.1f  put p50 "
            "%.1f p99 %.1f  scan p50 %.1f p99 %.1f  gate-wait p99 %.1f\n",
            promQuantileUs(statsAfter, "server_get_ns", "0.5"),
            promQuantileUs(statsAfter, "server_get_ns", "0.99"),
            promQuantileUs(statsAfter, "server_put_ns", "0.5"),
            promQuantileUs(statsAfter, "server_put_ns", "0.99"),
            promQuantileUs(statsAfter, "server_scan_ns", "0.5"),
            promQuantileUs(statsAfter, "server_scan_ns", "0.99"),
            promQuantileUs(statsAfter, "hist_gate_wait_ns", "0.99"));
    }

    const char *mode = a.rate > 0.0 ? "open" : "closed";
    std::printf("server: %s-loop %.0f ops/s  lat(us) p50 %.1f p95 %.1f "
                "p99 %.1f  slo(%lluus) %.3f  misses %llu\n",
                mode, thr, p50, p95, p99,
                static_cast<unsigned long long>(a.sloUs), sloOk,
                static_cast<unsigned long long>(misses));

    report.row()
        .field("kind", "wire")
        .field("mode", mode)
        .field("connections", a.connections)
        .field("pipeline", a.pipeline)
        .field("multi", a.multi)
        .field("rate", a.rate)
        .field("read_pct", a.readPct)
        .field("ops", ops)
        .field("throughput_ops_s", thr)
        .field("lat_p50_us", p50)
        .field("lat_p95_us", p95)
        .field("lat_p99_us", p99)
        .field("slo_us", a.sloUs)
        .field("slo_attainment", sloOk)
        .field("misses", misses);
    if (a.stats) {
        // Store-side (server-measured) percentiles, from the kStats
        // exposition — admission-to-response per op class, plus the
        // epoch gate-wait tail the paper's latency story is about.
        static const std::pair<const char *, const char *> kFamilies[] = {
            {"server_get_ns", "server_get"},
            {"server_put_ns", "server_put"},
            {"server_scan_ns", "server_scan"},
            {"hist_gate_wait_ns", "gate_wait"},
        };
        static const std::pair<const char *, const char *> kQuantiles[] = {
            {"0.5", "_p50_us"},
            {"0.95", "_p95_us"},
            {"0.99", "_p99_us"},
        };
        auto row = report.row();
        row.field("kind", "server_histograms");
        for (const auto &[family, column] : kFamilies)
            for (const auto &[q, suffix] : kQuantiles)
                row.field(std::string(column) + suffix,
                          promQuantileUs(statsAfter, family, q));
    }
    if (a.baseline) {
        report.row()
            .field("kind", "inproc_baseline")
            .field("threads", a.connections)
            .field("batch", a.batch)
            .field("shards", a.shards)
            .field("placement", a.placement)
            .field("throughput_ops_s", baselineThr)
            .field("wire_fraction",
                   baselineThr > 0.0 ? thr / baselineThr : 0.0);
        std::printf("ratio: wire/in-process = %.3f\n",
                    baselineThr > 0.0 ? thr / baselineThr : 0.0);
    }
    if (a.crashDrill && !runCrashDrill(a))
        return 1;
    return 0;
}
