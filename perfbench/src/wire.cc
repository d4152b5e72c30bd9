/**
 * @file
 * wire_point: server::Server in this process, over loopback TCP.
 *
 * The server runs 4 hash shards with 1 IO thread and 1 executor, beside
 * one EpochService thread; the main thread is the client. It keeps
 * 2 connections × 16 single-op requests in flight (closed loop: a slot
 * sends its next request when its response arrives), 95% get and 5%
 * put over uniform ranks, and checks every response. Latency runs from
 * the write() that sent a request to the read() that returned its
 * response.
 */
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "server/protocol.h"
#include "server/server.h"
#include "service/epoch_service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace incll;

namespace {

constexpr unsigned kConns = 2;
constexpr unsigned kDepth = 16;
constexpr double kPutFrac = 0.05;
constexpr std::uint64_t kKeys = 1000000;

struct Slot
{
    std::uint64_t rank = 0;
    std::uint64_t sentNs = 0;
    bool put = false;
    bool busy = false;
};

struct Conn
{
    int fd = -1;
    std::vector<char> in;
    std::vector<char> out;
    std::vector<unsigned> unsent; ///< slots whose request is in `out`
    std::array<Slot, kDepth> slots{};

    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

void
connectTo(Conn &c, std::uint16_t port)
{
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (c.fd < 0 ||
        ::connect(c.fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0)
        throw std::runtime_error("cannot connect to the server");
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** The server, its epoch service and the client's connections. */
struct Stack
{
    std::unique_ptr<server::Server> srv;
    std::unique_ptr<service::EpochService> svc;
    std::array<Conn, kConns> conns;
    pid_t ioTid = 0, execTid = 0;

    explicit Stack(bool recordOpLatency)
    {
        StoreShape shape{4, false, kKeys};
        shape.recordOpLatency = recordOpLatency;
        const auto config = storeOptions(shape).config;
        server::Server::Options so;
        so.ioThreads = 1;
        so.executorThreads = 1;
        so.valueBytes = kValueBytes;
        srv = std::make_unique<server::Server>(buildStore(shape), config, so);
        // Server::start starts the IO threads before the executors, so
        // the new thread ids, ascending, are the IO thread then the
        // executor.
        const auto before = taskIds();
        srv->start();
        std::vector<pid_t> fresh;
        for (pid_t t : taskIds())
            if (!std::binary_search(before.begin(), before.end(), t))
                fresh.push_back(t);
        if (fresh.size() != 2)
            throw std::runtime_error("unexpected server thread count");
        ioTid = fresh[0];
        execTid = fresh[1];
        service::EpochService::Options eo;
        eo.threads = kServiceThreads;
        eo.interval = kEpochInterval;
        svc = std::make_unique<service::EpochService>(srv->store(), eo);
        svc->start();
        for (auto &c : conns)
            connectTo(c, srv->port());
    }

    ~Stack()
    {
        // Join the executors before the service uninstalls its write
        // throttle from the store (that swap needs quiescent writers).
        srv->stop();
        svc.reset();
    }
};

void
appendRequest(Conn &c, unsigned connIdx, unsigned slotIdx, std::uint64_t n,
              Rng &rng)
{
    Slot &s = c.slots[slotIdx];
    s.rank = rng.nextBounded(kKeys);
    s.put = rng.nextBool(kPutFrac);
    s.busy = true;
    const Key key = keyOf(s.rank);
    server::ReqHeader h{};
    h.op = static_cast<std::uint8_t>(s.put ? server::Op::kPut
                                           : server::Op::kGet);
    h.keyLen = 8;
    h.valLen = s.put ? sizeof(s.rank) : 0;
    h.seq = (n << 8) | (connIdx << 4) | slotIdx;
    server::putRaw(c.out, h);
    c.out.insert(c.out.end(), key.b, key.b + 8);
    if (s.put)
        server::putRaw(c.out, s.rank);
    c.unsent.push_back(slotIdx);
}

void
flush(Conn &c)
{
    if (c.out.empty())
        return;
    const std::uint64_t t = nowNs();
    for (unsigned i : c.unsent)
        c.slots[i].sentNs = t;
    c.unsent.clear();
    std::size_t off = 0;
    while (off < c.out.size()) {
        const ssize_t n = ::write(c.fd, c.out.data() + off, c.out.size() - off);
        if (n <= 0)
            throw std::runtime_error("write to the server failed");
        off += static_cast<std::size_t>(n);
    }
    c.out.clear();
}

/** The histograms read for the ledger. */
constexpr obs::Hist kHists[] = {
    obs::Hist::kServerGetNs,      obs::Hist::kServerPutNs,
    obs::Hist::kServerBatchFlushNs, obs::Hist::kStoreMultiGetNs,
    obs::Hist::kStoreMultiPutNs,
};

struct Marks
{
    Counters stats;
    std::array<obs::HistSnapshot, std::size(kHists)> hists;
    service::EpochService::ShardCounters svc{};
    TaskUsage io, exec;
    double clientCpu = 0;
    std::uint64_t at = 0;
};

std::unique_ptr<Marks>
mark(Stack &s)
{
    auto m = std::make_unique<Marks>();
    for (std::size_t i = 0; i < std::size(kHists); ++i)
        m->hists[i] = obs::hist(kHists[i]).snapshot();
    m->svc = s.svc->totalCounters();
    m->io = taskUsage(s.ioTid);
    m->exec = taskUsage(s.execTid);
    m->clientCpu = threadCpuSeconds();
    m->at = nowNs();
    return m;
}

/** When one stack's load runs: untimed warm-up, timed rounds, traced
 *  rounds. */
struct Window
{
    std::uint64_t timedStart, tracedStart, end;
    /** Index in the timed Rounds of this window's first timed round. */
    unsigned firstRound;
};

/** What the client records while it drives the load. */
struct Record
{
    Record(unsigned timedRounds, unsigned tracedRounds)
        : lat{{Rounds(timedRounds), Rounds(timedRounds)},
              {Rounds(tracedRounds), Rounds(tracedRounds)}}
    {
    }
    /** [untraced|traced][get|put] */
    Rounds lat[2][2];
    Tracer tracer;
    /** Marks at the timed start, the traced start and the end. */
    std::unique_ptr<Marks> marks[3];
};

/** Drive @p stack closed loop through window @p w, checking every
 *  response into @p r. */
void
drive(Stack &stack, Rng &rng, const Window &w, Record &rec, Result &r)
{
    const std::uint64_t markAt[3] = {w.timedStart, w.tracedStart, w.end};
    unsigned markIdx = 0;
    std::uint64_t issued = 0;
    unsigned outstanding = 0;
    for (unsigned ci = 0; ci < kConns; ++ci) {
        for (unsigned si = 0; si < kDepth; ++si)
            appendRequest(stack.conns[ci], ci, si, issued++, rng);
        outstanding += kDepth;
        flush(stack.conns[ci]);
    }

    pollfd pfds[kConns];
    std::vector<char> buf(1 << 16);
    std::uint64_t lastProgress = nowNs();
    while (outstanding > 0) {
        for (unsigned ci = 0; ci < kConns; ++ci)
            pfds[ci] = {stack.conns[ci].fd, POLLIN, 0};
        if (::poll(pfds, kConns, 100) < 0)
            throw std::runtime_error("poll failed");
        const std::uint64_t now = nowNs();
        while (markIdx < 3 && now >= markAt[markIdx])
            rec.marks[markIdx++] = mark(stack);
        if (now - lastProgress > 10'000'000'000ULL)
            throw std::runtime_error("no response from the server for 10 s");
        for (unsigned ci = 0; ci < kConns; ++ci) {
            if (!(pfds[ci].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            Conn &c = stack.conns[ci];
            const ssize_t n =
                ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
            if (n <= 0)
                throw std::runtime_error("the server closed a connection");
            const std::uint64_t t = nowNs();
            lastProgress = t;
            c.in.insert(c.in.end(), buf.data(), buf.data() + n);
            std::size_t off = 0;
            while (c.in.size() - off >= sizeof(server::RespHeader)) {
                server::RespHeader h;
                std::memcpy(&h, c.in.data() + off, sizeof(h));
                if (c.in.size() - off < sizeof(h) + h.valLen)
                    break;
                const char *payload = c.in.data() + off + sizeof(h);
                off += sizeof(h) + h.valLen;
                const unsigned si = static_cast<unsigned>(h.seq & 15);
                Slot &sl = c.slots[si];
                if (((h.seq >> 4) & 15) != ci || !sl.busy)
                    throw std::runtime_error("response for no request");
                sl.busy = false;
                --outstanding;
                ++r.attempted;
                const bool ok =
                    h.status == static_cast<std::uint8_t>(server::Status::kOk) &&
                    (sl.put ? (h.flags & server::kFlagInserted) == 0
                            : h.valLen == kValueBytes &&
                                  loadPayload(payload) == sl.rank);
                r.failed += !ok;
                const bool traced = sl.sentNs >= w.tracedStart;
                if (sl.sentNs >= w.timedStart) {
                    const std::uint64_t base =
                        traced ? w.tracedStart : w.timedStart;
                    rec.lat[traced][sl.put].record(
                        (traced ? 0 : w.firstRound) +
                            static_cast<unsigned>((sl.sentNs - base) / kRoundNs),
                        t - sl.sentNs);
                    if (traced)
                        rec.tracer.record(sl.put ? OpType::kUpdate
                                                 : OpType::kGet,
                                          h.seq >> 8, sl.sentNs, t);
                }
                if (t < w.end) {
                    appendRequest(c, ci, si, issued++, rng);
                    ++outstanding;
                }
            }
            c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(off));
            flush(c);
        }
    }
    while (markIdx < 3)
        rec.marks[markIdx++] = mark(stack);
}

} // namespace

Result
runWirePoint(const Args &a)
{
    Result r;
    const unsigned timedRounds =
        a.trace ? std::max(1u, a.seconds / 2) : a.seconds;
    const unsigned tracedRounds = a.trace ? a.seconds - timedRounds : 0;
    Record rec(timedRounds, tracedRounds);
    std::uint64_t s = a.seed;
    Rng rng(splitmix64(s));

    // An untraced run builds kSetups stacks and gives each an equal share
    // of the timed rounds, so one stack's thread placement and memory
    // layout weigh a third. A traced run drives its one stack through
    // the timed half, then the traced half.
    std::unique_ptr<Stack> stack;
    std::vector<double> setups;
    const unsigned stacks = a.trace ? 1 : kSetups;
    unsigned firstRound = 0;
    for (unsigned i = 0; i < stacks; ++i) {
        stack.reset();
        const std::uint64_t t0 = nowNs();
        stack = std::make_unique<Stack>(a.trace);
        setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        const unsigned share =
            a.trace ? timedRounds
                    : (timedRounds - firstRound) / (stacks - i);
        if (share == 0 && tracedRounds == 0)
            continue;
        Window w;
        w.timedStart = nowNs() + kWarmupNs;
        w.tracedStart = w.timedStart + share * kRoundNs;
        w.end = w.tracedStart + tracedRounds * kRoundNs;
        w.firstRound = firstRound;
        drive(*stack, rng, w, rec, r);
        firstRound += share;
    }
    r.correct = r.failed == 0;

    Rounds ops(timedRounds);
    ops.merge(rec.lat[0][0]);
    ops.merge(rec.lat[0][1]);
    const double used = static_cast<double>(poolUsedBytes(stack->srv->store()));
    E2e e;
    e.roundRates = ops.rates();
    e.throughput = steadyRate(e.roundRates);
    e.roundP50 = ops.pctUs(50);
    e.roundP99 = ops.pctUs(99);
    e.opP50 = steadyLatency(e.roundP50);
    e.opP99 = steadyLatency(e.roundP99);
    e.spaceAmp = used / (static_cast<double>(kKeys) * 16.0);
    e.setupS = median(setups);
    e.named = {{"get_p50_us", rec.lat[0][0].steadyPctUs(50), "us"},
               {"get_p99_us", rec.lat[0][0].steadyPctUs(99), "us"},
               {"put_p50_us", rec.lat[0][1].steadyPctUs(50), "us"},
               {"put_p99_us", rec.lat[0][1].steadyPctUs(99), "us"}};
    if (!a.trace) {
        finishE2e(r, e, setups);
        return r;
    }

    const Marks &m0 = *rec.marks[1];
    const Marks &m1 = *rec.marks[2];
    const double secs = static_cast<double>(m1.at - m0.at) / 1e9;
    auto d = [&](Stat st) {
        return m1.stats.since(m0.stats, st);
    };
    auto per = [](double x, double n) { return n > 0 ? x / n : 0.0; };
    auto histP50Us = [&](std::size_t i) {
        obs::HistSnapshot h = m1.hists[i];
        h.subtract(m0.hists[i]);
        return h.percentile(50) / 1000.0;
    };
    Rounds tracedOps(tracedRounds);
    tracedOps.merge(rec.lat[1][0]);
    tracedOps.merge(rec.lat[1][1]);
    const double nOps = static_cast<double>(tracedOps.count());
    const double puts = static_cast<double>(rec.lat[1][1].count());
    std::map<std::string, double> v;
    v["nvm.sfence_per_op"] = per(d(Stat::kSfence), nOps);
    v["nvm.clwb_per_op"] = per(d(Stat::kClwb), nOps);
    v["nvm.wbinvd_per_s"] = d(Stat::kWbinvd) / secs;
    v["nvm.pool_used_mb"] = used / (1 << 20);
    v["masstree.incll_per_put"] =
        per(d(Stat::kInCllPerm) + d(Stat::kInCllVal), puts);
    v["log.nodes_per_put"] = per(d(Stat::kNodesLogged), puts);
    v["log.bytes_per_put"] = per(d(Stat::kLogBytes), puts);
    v["log.reserved_mb"] = static_cast<double>(logReservedBytes(
                               {4, false, kKeys})) /
                           (1 << 20);
    v["alloc.fast_path_frac"] =
        per(d(Stat::kAllocFastPathHits), d(Stat::kAllocs));
    v["alloc.cas_retries_per_alloc"] =
        per(d(Stat::kAllocCasRetries), d(Stat::kAllocs));
    v["epoch.boundary_ms"] =
        per(d(Stat::kEpochBoundaryNs), d(Stat::kEpochAdvances)) / 1e6;
    v["epoch.advances_per_s"] = d(Stat::kEpochAdvances) / secs;
    // The executor is the only thread that enters shard gates.
    v["epoch.gate_wait_frac"] = d(Stat::kGateWaitNs) / (secs * 1e9);
    v["store.multiget_p50_us"] = histP50Us(3);
    v["store.install_batch_p50_us"] = histP50Us(4);
    v["service.busy_frac"] =
        static_cast<double>(m1.svc.boundaryNs - m0.svc.boundaryNs) /
        (secs * 1e9);
    v["server.exec_cpu_frac"] = (m1.exec.cpuSeconds - m0.exec.cpuSeconds) / secs;
    v["server.io_cpu_frac"] = (m1.io.cpuSeconds - m0.io.cpuSeconds) / secs;
    v["server.writes_per_op"] =
        per(static_cast<double>(m1.exec.syscw - m0.exec.syscw +
                                m1.io.syscw - m0.io.syscw),
            nOps);
    v["server.ops_per_batch"] =
        per(d(Stat::kServerBatchedOps), d(Stat::kServerBatches));
    v["server.get_p50_us"] = histP50Us(0);
    v["server.put_p50_us"] = histP50Us(1);
    v["server.flush_p50_us"] = histP50Us(2);
    v["bench.client_cpu_frac"] = (m1.clientCpu - m0.clientCpu) / secs;
    v["bench.trace_overhead_frac"] =
        1.0 - steadyRate(tracedOps.rates()) / e.throughput;

    printSelfTimeLedger(rec.tracer, {{"get", e.named[0].value},
                                 {"update", e.named[2].value}});
    writeSpans(rec.tracer, a.outDir + "/spans-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".tsv");
    finishLayerMetrics(r, v);
    return r;
}

} // namespace perfbench
