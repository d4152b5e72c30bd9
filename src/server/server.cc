/**
 * @file
 * Server implementation: epoll event loops (admission), shard-batched
 * request scheduling (execution), and the wire-driven crash/recovery
 * admin cycle. See server.h for the architecture.
 */
#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include "common/stats.h"
#include "obs/export.h"
#include "store/value_util.h"

namespace incll::server {

namespace {

/** Per-line eviction probability of the pools a kCrash op crashes. */
constexpr double kCrashEvictionProbability = 0.3;

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * Write to a client socket without raising SIGPIPE: a peer that reset
 * the connection makes this return EPIPE, which the callers treat as
 * any other hard error, instead of killing the process.
 */
ssize_t
sendSome(int fd, const char *data, std::size_t len)
{
    globalStats().add(Stat::kServerSends);
    return ::send(fd, data, len, MSG_NOSIGNAL);
}

} // namespace

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

/**
 * One TCP connection. Owned by its IO thread's fd map; every admitted
 * op holds a shared_ptr so a mid-batch teardown never leaves a dangling
 * response target. `closed` + outMu make the executor-side respond path
 * safe against a concurrent close: the fd is closed with outMu held and
 * `closed` set first, so no writer can touch a recycled descriptor.
 */
struct Server::Conn : std::enable_shared_from_this<Server::Conn>
{
    int fd = -1;
    unsigned io = 0; ///< owning IO thread index

    std::vector<char> in; ///< partial request bytes (IO thread only)

    std::mutex outMu;
    std::vector<char> out; ///< pending response bytes
    std::size_t outOff = 0;
    bool wantWrite = false; ///< queued on the IO thread's needWrite list
    bool epollout = false;  ///< EPOLLOUT armed (IO thread only)
    std::atomic<bool> closed{false};

    /** Frame one response onto `out`; false if already closed. */
    bool
    append(Status status, Op op, std::uint8_t flags, std::uint64_t seq,
           std::string_view payload)
    {
        RespHeader h{};
        h.status = static_cast<std::uint8_t>(status);
        h.op = static_cast<std::uint8_t>(op);
        h.flags = flags;
        h.valLen = static_cast<std::uint32_t>(payload.size());
        h.seq = seq;
        std::lock_guard lk(outMu);
        if (closed.load(std::memory_order_acquire))
            return false;
        putRaw(out, h);
        out.insert(out.end(), payload.begin(), payload.end());
        return true;
    }
};

/**
 * Reassembly context of one MULTI request: sub-ops write their own
 * slots, and whichever thread drops `remaining` to zero builds and
 * sends the single response. The release-decrement / acquire-at-zero
 * pairing makes every slot write visible to the assembling thread
 * without a lock.
 */
struct Server::MultiCtx
{
    std::shared_ptr<Conn> conn;
    Op op = Op::kMultiGet;
    std::uint64_t seq = 0;
    std::atomic<std::uint32_t> remaining{0};
    std::atomic<std::uint32_t> inserted{0}; ///< kMultiPut tally
    std::vector<std::uint8_t> hit;          ///< kMultiGet per-slot hit
    std::vector<std::string> values;        ///< kMultiGet per-slot value
};

/** One admitted point op, parked in its shard's pending batch. */
struct Server::PendOp
{
    std::shared_ptr<Conn> conn;
    std::shared_ptr<MultiCtx> multi; ///< null for single-op requests
    std::uint32_t slot = 0;          ///< this op's MultiCtx slot
    Op op = Op::kGet;
    std::uint64_t seq = 0;
    std::string key;
    std::string val; ///< kPut payload (validated <= valueBytes)
    Clock::time_point admitted{}; ///< set by admit(); latency origin
};

/**
 * Where an op's execution time went, shared by every op of one flushed
 * run: when the store call started, how long it took, and how much of
 * it was epoch-gate stall (sampled from the executor thread's gate-wait
 * accumulator around the call). Feeds the per-op latency histograms
 * and the slow-op tracer's phase breakdown.
 */
struct Server::ExecTiming
{
    Clock::time_point execStart{};
    std::uint64_t storeNs = 0;
    std::uint64_t gateNs = 0;
    int shard = -1;
};

/**
 * A shard's pending batch. `inflight` serializes batches of one shard:
 * an executor sets it under mu when it takes the batch and clears it
 * after, so a second executor can never run a later batch while an
 * earlier one is still in flight — per-shard admission order is the
 * protocol's only cross-batch ordering guarantee (a pipelined PUT then
 * same-key GET must not answer from before the PUT).
 */
struct Server::ShardQueue
{
    std::mutex mu;
    std::vector<PendOp> ops;
    bool inflight = false; ///< a batch of this shard is executing
};

/**
 * What one executor pass owes once its store calls are done. `batches`
 * holds the ops it executed (alive until the write: `done` points into
 * them; the first `taken` are this pass's, the rest keep their capacity
 * for the next swap with a queue). `conns` lists the connections it
 * appended responses to, each written once when the pass ends, and may
 * repeat one; writeBatch dedups it. Each op's latency record and each
 * batch's flush sample (`batchStarts`) are charged against one clock
 * read taken after those writes. The raw pointers stay valid until the
 * batches are cleared: every op holds its connection (and MULTI
 * context) alive.
 */
struct Server::BatchOut
{
    struct Done
    {
        const PendOp *op;
        const char *label;
        obs::Hist hist;
        ExecTiming t;
    };
    std::vector<std::vector<PendOp>> batches;
    std::size_t taken = 0;
    std::vector<Clock::time_point> batchStarts;
    std::vector<Conn *> conns;
    std::vector<Done> done;

    /** Swap @p queued out for an empty vector (its capacity goes back
     *  to the queue) and return the taken batch. */
    std::vector<PendOp> &
    take(std::vector<PendOp> &queued)
    {
        if (taken == batches.size())
            batches.emplace_back();
        std::vector<PendOp> &batch = batches[taken++];
        batch.swap(queued);
        return batch;
    }
};

/** A non-batchable request: scan, stats exposition or admin crash. */
struct Server::MiscOp
{
    std::shared_ptr<Conn> conn;
    Op op = Op::kScan;
    std::uint64_t seq = 0;
    std::string key;           ///< kScan start key
    std::uint32_t limit = 0;   ///< kScan max entries
    std::uint8_t flags = 0;    ///< kStats format selector
    Clock::time_point admitted{};
};

/** Per-IO-thread event loop state. */
struct Server::IoThread
{
    int epfd = -1;
    int wakeFd = -1;
    std::thread th;
    /** Conns registered with this thread's epoll (thread-local). */
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    std::mutex mu; ///< guards the two handoff lists below
    std::vector<std::shared_ptr<Conn>> pendingConns; ///< accepted, to adopt
    std::vector<std::shared_ptr<Conn>> needWrite;    ///< arm EPOLLOUT
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Server::Server(std::unique_ptr<store::ShardedStore> st,
               store::StoreConfig recoverConfig, Options options)
    : options_(std::move(options)), recoverConfig_(recoverConfig),
      store_(std::move(st))
{
    queues_.reserve(store_->shardCount());
    for (unsigned i = 0; i < store_->shardCount(); ++i)
        queues_.push_back(std::make_unique<ShardQueue>());
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (!stop_.load(std::memory_order_acquire))
        return;

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throw std::runtime_error("server: socket() failed");
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bindAddr.c_str(), &addr.sin_addr) != 1)
        throw std::runtime_error("server: bad bind address");
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 128) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw std::runtime_error("server: bind/listen failed");
    }
    socklen_t len = sizeof(addr);
    ::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort_ = ntohs(addr.sin_port);
    setNonBlocking(listenFd_);

    stop_.store(false, std::memory_order_release);
    const unsigned nio = std::max(1u, options_.ioThreads);
    ioThreads_.clear();
    for (unsigned i = 0; i < nio; ++i) {
        auto io = std::make_unique<IoThread>();
        io->epfd = ::epoll_create1(0);
        io->wakeFd = ::eventfd(0, EFD_NONBLOCK);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = io->wakeFd;
        ::epoll_ctl(io->epfd, EPOLL_CTL_ADD, io->wakeFd, &ev);
        ioThreads_.push_back(std::move(io));
    }
    // The listener lives on IO thread 0's epoll.
    {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = listenFd_;
        ::epoll_ctl(ioThreads_[0]->epfd, EPOLL_CTL_ADD, listenFd_, &ev);
    }
    for (unsigned i = 0; i < nio; ++i)
        ioThreads_[i]->th = std::thread([this, i] { ioLoop(i); });

    const unsigned nexec = std::max(1u, options_.executorThreads);
    executors_.clear();
    for (unsigned i = 0; i < nexec; ++i)
        executors_.emplace_back([this] { execLoop(); });
}

void
Server::stop()
{
    if (stop_.exchange(true, std::memory_order_acq_rel))
        return;
    for (auto &io : ioThreads_) {
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            ::write(io->wakeFd, &one, sizeof(one));
    }
    for (auto &io : ioThreads_)
        if (io->th.joinable())
            io->th.join();
    {
        std::lock_guard lk(execMu_);
        execCv_.notify_all();
    }
    for (auto &t : executors_)
        t.join();
    executors_.clear();
    for (auto &io : ioThreads_) {
        for (auto &[fd, conn] : io->conns) {
            std::lock_guard lk(conn->outMu);
            conn->closed.store(true, std::memory_order_release);
            ::close(conn->fd);
            conn->fd = -1;
        }
        io->conns.clear();
        ::close(io->epfd);
        ::close(io->wakeFd);
    }
    ioThreads_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Drop unexecuted pending ops (their clients are gone).
    for (auto &q : queues_) {
        std::lock_guard lk(q->mu);
        q->ops.clear();
    }
    {
        std::lock_guard lk(execMu_);
        miscQ_.clear();
    }
}

// ---------------------------------------------------------------------------
// IO threads: accept, read, parse, admit, write
// ---------------------------------------------------------------------------

void
Server::ioLoop(unsigned self)
{
    IoThread &io = *ioThreads_[self];
    epoll_event events[64];
    while (!stop_.load(std::memory_order_acquire)) {
        const int n = ::epoll_wait(io.epfd, events, 64, 100);
        if (stop_.load(std::memory_order_acquire))
            break;
        for (int i = 0; i < n; ++i) {
            const epoll_event &ev = events[i];
            if (ev.data.fd == io.wakeFd) {
                std::uint64_t drain;
                while (::read(io.wakeFd, &drain, sizeof(drain)) > 0) {
                }
                adoptPending(io);
                armWrites(io);
                continue;
            }
            if (self == 0 && ev.data.fd == listenFd_) {
                acceptReady();
                continue;
            }
            const auto it = io.conns.find(ev.data.fd);
            if (it == io.conns.end())
                continue;
            std::shared_ptr<Conn> conn = it->second;
            if (ev.events & (EPOLLHUP | EPOLLERR)) {
                teardown(io, conn);
                continue;
            }
            if (ev.events & EPOLLOUT)
                writeReady(io, conn);
            if (ev.events & EPOLLIN)
                readReady(io, conn);
        }
    }
}

void
Server::acceptReady()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->io = nextIo_.fetch_add(1, std::memory_order_relaxed) %
                   static_cast<unsigned>(ioThreads_.size());
        IoThread &target = *ioThreads_[conn->io];
        if (conn->io == 0) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.fd = fd;
            ::epoll_ctl(target.epfd, EPOLL_CTL_ADD, fd, &ev);
            target.conns.emplace(fd, std::move(conn));
        } else {
            {
                std::lock_guard lk(target.mu);
                target.pendingConns.push_back(std::move(conn));
            }
            const std::uint64_t oneW = 1;
            [[maybe_unused]] ssize_t w =
                ::write(target.wakeFd, &oneW, sizeof(oneW));
        }
    }
}

void
Server::adoptPending(IoThread &io)
{
    std::vector<std::shared_ptr<Conn>> fresh;
    {
        std::lock_guard lk(io.mu);
        fresh.swap(io.pendingConns);
    }
    for (auto &conn : fresh) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = conn->fd;
        ::epoll_ctl(io.epfd, EPOLL_CTL_ADD, conn->fd, &ev);
        io.conns.emplace(conn->fd, std::move(conn));
    }
}

void
Server::armWrites(IoThread &io)
{
    std::vector<std::shared_ptr<Conn>> need;
    {
        std::lock_guard lk(io.mu);
        need.swap(io.needWrite);
    }
    for (auto &conn : need) {
        std::lock_guard lk(conn->outMu);
        conn->wantWrite = false;
        if (conn->closed.load(std::memory_order_acquire))
            continue;
        if (conn->outOff >= conn->out.size() || conn->epollout)
            continue;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn->fd;
        ::epoll_ctl(io.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
        conn->epollout = true;
    }
}

void
Server::readReady(IoThread &io, const std::shared_ptr<Conn> &conn)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
        if (n > 0) {
            conn->in.insert(conn->in.end(), buf, buf + n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue; // benign signal delivery: retry the read
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        teardown(io, conn); // EOF or hard error
        return;
    }
    if (!parseConn(conn))
        teardown(io, conn);
}

void
Server::writeReady(IoThread &io, const std::shared_ptr<Conn> &conn)
{
    std::lock_guard lk(conn->outMu);
    if (conn->closed.load(std::memory_order_acquire))
        return;
    while (conn->outOff < conn->out.size()) {
        const ssize_t n = sendSome(conn->fd, conn->out.data() + conn->outOff,
                                   conn->out.size() - conn->outOff);
        if (n > 0) {
            conn->outOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue; // benign signal delivery: retry the write
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // EPOLLOUT stays armed
        conn->out.clear();
        conn->outOff = 0;
        break; // hard error; EPOLLIN will observe the close
    }
    conn->out.clear();
    conn->outOff = 0;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(io.epfd, EPOLL_CTL_MOD, conn->fd, &ev);
    conn->epollout = false;
}

void
Server::teardown(IoThread &io, const std::shared_ptr<Conn> &conn)
{
    {
        std::lock_guard lk(conn->outMu);
        if (conn->closed.exchange(true, std::memory_order_acq_rel))
            return;
        ::epoll_ctl(io.epfd, EPOLL_CTL_DEL, conn->fd, nullptr);
        ::close(conn->fd);
    }
    io.conns.erase(conn->fd);
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

bool
Server::parseConn(const std::shared_ptr<Conn> &conn)
{
    std::vector<char> &buf = conn->in;
    std::size_t off = 0;
    while (buf.size() - off >= sizeof(ReqHeader)) {
        ReqHeader h;
        std::memcpy(&h, buf.data() + off, sizeof(h));
        if (h.keyLen > kMaxKeyLen || h.valLen > kMaxValLen) {
            respond(conn, Status::kBadRequest, static_cast<Op>(h.op), 0,
                    h.seq, {});
            return false;
        }
        // kScan reuses valLen as the entry limit: no payload bytes.
        const std::size_t payloadLen =
            static_cast<Op>(h.op) == Op::kScan ? 0 : h.valLen;
        const std::size_t need = sizeof(ReqHeader) + h.keyLen + payloadLen;
        if (buf.size() - off < need)
            break; // fragmented: wait for more bytes
        const char *key = buf.data() + off + sizeof(ReqHeader);
        const char *payload = key + h.keyLen;
        if (!handleRequest(conn, h, key, payload))
            return false;
        off += need;
    }
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(off));
    return true;
}

bool
Server::handleRequest(const std::shared_ptr<Conn> &conn, const ReqHeader &h,
                      const char *key, const char *payload)
{
    globalStats().add(Stat::kServerRequests);
    const Op op = static_cast<Op>(h.op);
    switch (op) {
      case Op::kPing:
        respond(conn, Status::kOk, op, 0, h.seq, {});
        return true;
      case Op::kGet:
      case Op::kRemove: {
        if (h.keyLen == 0 || h.valLen != 0) {
            respond(conn, Status::kBadRequest, op, 0, h.seq, {});
            return false;
        }
        PendOp p;
        p.conn = conn;
        p.op = op;
        p.seq = h.seq;
        p.key.assign(key, h.keyLen);
        admit(std::move(p));
        return true;
      }
      case Op::kPut: {
        if (h.keyLen == 0) {
            respond(conn, Status::kBadRequest, op, 0, h.seq, {});
            return false;
        }
        if (h.valLen > options_.valueBytes) {
            respond(conn, Status::kTooLarge, op, 0, h.seq, {});
            return true;
        }
        PendOp p;
        p.conn = conn;
        p.op = op;
        p.seq = h.seq;
        p.key.assign(key, h.keyLen);
        p.val.assign(payload, h.valLen);
        // Fixed-size value contract: shorter payloads are zero-padded
        // to the full buffer (the tail would otherwise be whatever the
        // pool allocator handed back).
        p.val.resize(options_.valueBytes, '\0');
        admit(std::move(p));
        return true;
      }
      case Op::kScan: {
        MiscOp m;
        m.conn = conn;
        m.op = op;
        m.seq = h.seq;
        m.key.assign(key, h.keyLen);
        m.limit = h.valLen;
        m.admitted = Clock::now();
        {
            std::lock_guard lk(execMu_);
            miscQ_.push_back(std::move(m));
        }
        execCv_.notify_one();
        return true;
      }
      case Op::kStats: {
        // Exposition renders on an executor, not the IO thread: it
        // walks the registry and every histogram under locks, and the
        // misc queue already serializes such non-batchable work.
        MiscOp m;
        m.conn = conn;
        m.op = op;
        m.seq = h.seq;
        m.flags = h.flags;
        m.admitted = Clock::now();
        {
            std::lock_guard lk(execMu_);
            miscQ_.push_back(std::move(m));
        }
        execCv_.notify_one();
        return true;
      }
      case Op::kCrash: {
        if (!options_.allowCrash) {
            respond(conn, Status::kRefused, op, 0, h.seq, {});
            return true;
        }
        MiscOp m;
        m.conn = conn;
        m.op = op;
        m.seq = h.seq;
        {
            std::lock_guard lk(execMu_);
            miscQ_.push_back(std::move(m));
        }
        execCv_.notify_one();
        return true;
      }
      case Op::kMultiGet:
      case Op::kMultiPut:
        return handleMulti(conn, h, payload);
    }
    respond(conn, Status::kBadRequest, op, 0, h.seq, {});
    return false;
}

bool
Server::handleMulti(const std::shared_ptr<Conn> &conn, const ReqHeader &h,
                    const char *payload)
{
    const Op op = static_cast<Op>(h.op);
    const std::size_t len = h.valLen;
    std::size_t off = 0;
    if (h.keyLen != 0 || len < sizeof(std::uint32_t)) {
        respond(conn, Status::kBadRequest, op, 0, h.seq, {});
        return false;
    }
    const std::uint32_t count = getRaw<std::uint32_t>(payload, off);
    // Every entry carries at least its keyLen field and one key byte
    // (plus a valLen field for puts); a count the remaining payload
    // cannot possibly hold is malformed. Checking before the reserve
    // keeps a hostile count from requesting a multi-GB allocation.
    const std::size_t minEntry =
        sizeof(std::uint16_t) + 1 +
        (op == Op::kMultiPut ? sizeof(std::uint32_t) : 0);
    if (count > (len - off) / minEntry) {
        respond(conn, Status::kBadRequest, op, 0, h.seq, {});
        return false;
    }
    // Parse and validate every entry before admitting any: a malformed
    // MULTI admits nothing (no partial batch to unwind).
    std::vector<PendOp> subs;
    subs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint16_t keyLen;
        std::uint32_t valLen = 0;
        if (len - off < sizeof(keyLen))
            goto malformed;
        keyLen = getRaw<std::uint16_t>(payload, off);
        if (op == Op::kMultiPut) {
            if (len - off < sizeof(valLen))
                goto malformed;
            valLen = getRaw<std::uint32_t>(payload, off);
        }
        // The sum must be computed in std::size_t: a valLen near
        // UINT32_MAX would wrap a 32-bit sum past the bounds check.
        if (keyLen == 0 || keyLen > kMaxKeyLen ||
            len - off < static_cast<std::size_t>(keyLen) + valLen)
            goto malformed;
        if (op == Op::kMultiPut && valLen > options_.valueBytes) {
            respond(conn, Status::kTooLarge, op, 0, h.seq, {});
            return true;
        }
        {
            PendOp p;
            p.conn = conn;
            p.slot = i;
            p.op = op == Op::kMultiGet ? Op::kGet : Op::kPut;
            p.seq = h.seq;
            p.key.assign(payload + off, keyLen);
            off += keyLen;
            if (op == Op::kMultiPut) {
                p.val.assign(payload + off, valLen);
                p.val.resize(options_.valueBytes, '\0');
                off += valLen;
            }
            subs.push_back(std::move(p));
        }
    }
    if (count == 0) {
        // Degenerate but legal: answer the empty batch immediately.
        const std::uint32_t zero = 0;
        respond(conn, Status::kOk, op, 0, h.seq,
                {reinterpret_cast<const char *>(&zero), sizeof(zero)});
        return true;
    }
    {
        auto ctx = std::make_shared<MultiCtx>();
        ctx->conn = conn;
        ctx->op = op;
        ctx->seq = h.seq;
        ctx->remaining.store(count, std::memory_order_relaxed);
        if (op == Op::kMultiGet) {
            ctx->hit.assign(count, 0);
            ctx->values.resize(count);
        }
        for (auto &p : subs)
            p.multi = ctx;
        for (auto &p : subs)
            admit(std::move(p));
    }
    return true;

malformed:
    respond(conn, Status::kBadRequest, op, 0, h.seq, {});
    return false;
}

void
Server::admit(PendOp &&op)
{
    op.admitted = Clock::now();
    unsigned s;
    {
        std::shared_lock storeLk(storeMu_);
        s = store_->shardOf(op.key);
    }
    // Queues are sized at construction, but an elastic topology can
    // grow the shard count past that: overflow positions share the
    // last queue. The queue index is only a batching bucket — the
    // store re-routes every key, and falls back to per-key calls inside
    // a migration window — so sharing costs batching efficiency, never
    // correctness.
    s = std::min(s, static_cast<unsigned>(queues_.size()) - 1);
    bool notify = false;
    {
        ShardQueue &q = *queues_[s];
        std::lock_guard lk(q.mu);
        notify = q.ops.empty(); // the queue just became runnable
        q.ops.push_back(std::move(op));
    }
    if (notify) {
        // Lock-then-notify: an executor between its empty scan and its
        // wait holds execMu_, so taking it here orders this admission
        // after the scan — the notify lands in the wait, never before.
        std::lock_guard lk(execMu_);
        execCv_.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void
Server::respond(const std::shared_ptr<Conn> &conn, Status status, Op op,
                std::uint8_t flags, std::uint64_t seq,
                std::string_view payload)
{
    if (conn->append(status, op, flags, seq, payload))
        flushOut(*conn);
}

/**
 * respond() for an executing batch: append only, and leave the write to
 * writeBatch, which sends each touched connection's responses at once.
 */
void
Server::reply(BatchOut &out, const std::shared_ptr<Conn> &conn,
              Status status, Op op, std::uint8_t flags, std::uint64_t seq,
              std::string_view payload)
{
    if (!conn->append(status, op, flags, seq, payload))
        return;
    if (out.conns.empty() || out.conns.back() != conn.get())
        out.conns.push_back(conn.get());
}

void
Server::flushOut(Conn &conn)
{
    bool needArm = false;
    {
        std::lock_guard lk(conn.outMu);
        if (conn.closed.load(std::memory_order_acquire))
            return;
        while (conn.outOff < conn.out.size()) {
            const ssize_t n =
                sendSome(conn.fd, conn.out.data() + conn.outOff,
                         conn.out.size() - conn.outOff);
            if (n > 0) {
                conn.outOff += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue; // benign signal delivery: retry the write
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                // Socket full: hand the tail to the IO thread's
                // EPOLLOUT path. One queue entry per episode.
                if (!conn.wantWrite) {
                    conn.wantWrite = true;
                    needArm = true;
                }
                break;
            }
            // Hard error: drop the buffered output; the IO thread's
            // next read on this fd observes the failure and tears down.
            conn.out.clear();
            conn.outOff = 0;
            break;
        }
        if (conn.outOff >= conn.out.size()) {
            conn.out.clear();
            conn.outOff = 0;
        }
    }
    if (needArm) {
        IoThread &io = *ioThreads_[conn.io];
        {
            std::lock_guard lk(io.mu);
            io.needWrite.push_back(conn.shared_from_this());
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t w = ::write(io.wakeFd, &one, sizeof(one));
    }
}

void
Server::completeMulti(const std::shared_ptr<MultiCtx> &ctx, BatchOut &out)
{
    if (ctx->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1)
        return;
    // Last sub-op: assemble the one response.
    if (ctx->op == Op::kMultiGet) {
        std::vector<char> payload;
        const auto count = static_cast<std::uint32_t>(ctx->hit.size());
        payload.reserve(sizeof(count) +
                        ctx->hit.size() * (5 + options_.valueBytes));
        putRaw(payload, count);
        for (std::uint32_t i = 0; i < count; ++i) {
            putRaw(payload, ctx->hit[i]);
            const auto valLen =
                static_cast<std::uint32_t>(ctx->values[i].size());
            putRaw(payload, valLen);
            payload.insert(payload.end(), ctx->values[i].begin(),
                           ctx->values[i].end());
        }
        reply(out, ctx->conn, Status::kOk, ctx->op, 0, ctx->seq,
              {payload.data(), payload.size()});
    } else {
        const std::uint32_t inserted =
            ctx->inserted.load(std::memory_order_acquire);
        reply(out, ctx->conn, Status::kOk, ctx->op, 0, ctx->seq,
              {reinterpret_cast<const char *>(&inserted), sizeof(inserted)});
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void
Server::execLoop()
{
    BatchOut out;
    std::unique_lock lk(execMu_);
    while (!stop_.load(std::memory_order_acquire)) {
        lk.unlock();
        bool deferred = false;
        bool did = runOneMisc();
        did |= runPendingBatches(out, deferred);
        if (deferred && !did) {
            // Every runnable batch waits on its shard's boundary. Give
            // the CPU up (the boundary's thread may want it) and pass
            // again, so a batch admitted for an open shard runs at
            // once instead of behind a gate this thread would block in.
            std::this_thread::yield();
        }
        lk.lock();
        if (did || deferred || stop_.load(std::memory_order_acquire) ||
            !miscQ_.empty())
            continue;
        // Nothing ran: sleep unless a batch became runnable since the
        // pass above. admit() notifies under execMu_, so an admission
        // after this check lands in the wait, never before it.
        bool runnable = false;
        for (auto &q : queues_) {
            std::lock_guard qlk(q->mu);
            runnable |= !q->inflight && !q->ops.empty();
        }
        if (!runnable)
            execCv_.wait_for(lk, std::chrono::milliseconds(100));
    }
}

/**
 * One executor pass over the shard queues. Each queue that no other
 * executor has in flight is taken whole — a batch is whatever was
 * admitted while the executor was busy; nothing waits for a batch to
 * fill — unless its shard's epoch boundary holds or is draining the
 * shard's gate. That batch stays queued, in admission order, and the
 * pass serves the other shards instead of stalling in the gate. The
 * executor only looks at the gate: the store calls enter it
 * themselves, and must, since a batched write's backpressure hook is
 * skipped for a thread that already holds the gate. Every executed
 * batch appends to @p out, and the pass ends with one writeBatch: one
 * write per touched connection per pass. @return whether a batch ran;
 * @p deferred is set when a batch was left behind a boundary.
 */
bool
Server::runPendingBatches(BatchOut &out, bool &deferred)
{
    {
        std::shared_lock storeLk(storeMu_);
        const auto queues = static_cast<unsigned>(queues_.size());
        // Members past the last queue (an elastic store grew) share
        // it, so no single shard's boundary speaks for that queue.
        const bool lastShared = store_->shardCount() > queues;
        for (unsigned s = 0; s < queues; ++s) {
            ShardQueue &q = *queues_[s];
            std::vector<PendOp> *ops = nullptr;
            {
                std::lock_guard lk(q.mu);
                if (q.inflight || q.ops.empty())
                    continue;
                if ((s + 1 < queues || !lastShared) &&
                    store_->shardAdvancePending(s)) {
                    deferred = true;
                    continue;
                }
                ops = &out.take(q.ops);
                q.inflight = true;
            }
            executeBatch(s, *ops, out);
            bool followOn;
            {
                std::lock_guard lk(q.mu);
                q.inflight = false;
                followOn = !q.ops.empty();
            }
            if (followOn) {
                // Ops admitted while this batch ran were skipped by
                // every other executor (inflight was set); wake one.
                std::lock_guard lk(execMu_);
                execCv_.notify_one();
            }
        }
    }
    const bool ran = out.taken > 0;
    writeBatch(out);
    return ran;
}

/**
 * Grouped execution in arrival-ordered *runs*: consecutive reads become
 * one multiGet, consecutive puts one installValueBatch, and a class
 * switch (or a remove) runs the pending run first. Splitting into a
 * read pass then a write pass would be one call fewer, but it reorders
 * a same-key read-after-write admitted into one batch — pipelined
 * clients would read their own write's past. Homogeneous bursts (the
 * common workloads) still batch at full width. The batch was grouped
 * under the placement current at admission; the store re-routes every
 * key and falls back to per-key calls inside a migration window, so a
 * stale grouping costs batching width, never correctness.
 */
void
Server::executeBatch(unsigned shardIdx, std::vector<PendOp> &ops,
                     BatchOut &out)
{
    globalStats().add(Stat::kServerBatches);
    globalStats().add(Stat::kServerBatchedOps, ops.size());
    out.batchStarts.push_back(Clock::now());
    std::vector<std::string_view> getKeys;
    std::vector<PendOp *> getOps;
    std::vector<store::InstallOp> putInstalls;
    std::vector<PendOp *> putOps;
    auto flushGets = [&] {
        if (getKeys.empty())
            return;
        ExecTiming t;
        t.shard = static_cast<int>(shardIdx);
        t.execStart = Clock::now();
        const std::uint64_t gate0 = obs::threadGateWaitNs();
        const std::uint64_t store0 = obs::steadyNowNs();
        std::vector<void *> vals(getKeys.size());
        store_->multiGet(getKeys, vals.data());
        t.storeNs = obs::steadyNowNs() - store0;
        t.gateNs = obs::threadGateWaitNs() - gate0;
        // Copy each hit's value out immediately: the pointer contract
        // (dereferenceable until the shard's next boundary after a
        // concurrent free) covers this prompt copy, not a parked one.
        for (std::size_t i = 0; i < getOps.size(); ++i)
            finishGet(*getOps[i], vals[i], t, out);
        getKeys.clear();
        getOps.clear();
    };
    auto flushPuts = [&] {
        if (putInstalls.empty())
            return;
        ExecTiming t;
        t.shard = static_cast<int>(shardIdx);
        t.execStart = Clock::now();
        const std::uint64_t gate0 = obs::threadGateWaitNs();
        const std::uint64_t store0 = obs::steadyNowNs();
        store::installValueBatch(*store_, putInstalls,
                                 options_.valueBytes);
        t.storeNs = obs::steadyNowNs() - store0;
        t.gateNs = obs::threadGateWaitNs() - gate0;
        for (std::size_t i = 0; i < putOps.size(); ++i)
            finishPut(*putOps[i], putInstalls[i].inserted, t, out);
        putInstalls.clear();
        putOps.clear();
    };
    for (PendOp &op : ops) {
        switch (op.op) {
          case Op::kGet:
            flushPuts();
            getKeys.push_back(op.key);
            getOps.push_back(&op);
            break;
          case Op::kPut:
            flushGets();
            putInstalls.push_back(
                {op.key, op.val.data(), op.val.size(), false});
            putOps.push_back(&op);
            break;
          default: {
            flushGets();
            flushPuts();
            ExecTiming t;
            t.shard = static_cast<int>(shardIdx);
            t.execStart = Clock::now();
            const std::uint64_t gate0 = obs::threadGateWaitNs();
            const std::uint64_t store0 = obs::steadyNowNs();
            void *old = nullptr;
            const bool hit = store_->remove(op.key, &old);
            if (old != nullptr)
                store_->freeValueFor(op.key, old, options_.valueBytes);
            t.storeNs = obs::steadyNowNs() - store0;
            t.gateNs = obs::threadGateWaitNs() - gate0;
            finishRemove(op, hit, t, out);
            break;
          }
        }
    }
    flushGets();
    flushPuts();
}

/**
 * The end of a pass: one write per touched connection, then one clock
 * read that closes every op's admission-to-response-written latency in
 * its server histogram and every batch's flush sample (execution start
 * to the write that carries its responses). When slow-op tracing is on,
 * an op that crossed the threshold also records a phase breakdown into
 * the global ring: queueNs is admission to execution start; flushNs is
 * the post-store remainder (response formatting, the rest of the pass
 * and its socket writes), i.e. execution-to-written minus the store
 * call. The members of one run share the run's ExecTiming: store/gate
 * time is attributed to each op of the run rather than divided, since
 * each op genuinely waited for the whole run. The pass's batches are
 * released last.
 */
void
Server::writeBatch(BatchOut &out)
{
    std::sort(out.conns.begin(), out.conns.end());
    out.conns.erase(std::unique(out.conns.begin(), out.conns.end()),
                    out.conns.end());
    for (Conn *conn : out.conns)
        flushOut(*conn);
    const auto written = Clock::now();
    const auto ns = [](Clock::duration d) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                .count());
    };
    for (const Clock::time_point start : out.batchStarts)
        obs::recordNs(obs::Hist::kServerBatchFlushNs, ns(written - start));
    const std::uint64_t thresholdNs = ns(options_.slowOpThreshold);
    for (const BatchOut::Done &d : out.done) {
        const std::uint64_t totalNs = ns(written - d.op->admitted);
        obs::recordNs(d.hist, totalNs);
        if (thresholdNs == 0 || totalNs < thresholdNs)
            continue;
        const std::uint64_t queueNs = ns(d.t.execStart - d.op->admitted);
        const std::uint64_t execNs = ns(written - d.t.execStart);
        const std::uint64_t flushNs =
            execNs > d.t.storeNs ? execNs - d.t.storeNs : 0;
        obs::slowOps().record(d.label, d.t.shard, d.op->seq, totalNs,
                              queueNs, d.t.gateNs, d.t.storeNs, flushNs);
    }
    out.conns.clear();
    out.done.clear();
    out.batchStarts.clear();
    for (std::size_t i = 0; i < out.taken; ++i)
        out.batches[i].clear();
    out.taken = 0;
}

void
Server::finishGet(PendOp &op, const void *val, const ExecTiming &t,
                  BatchOut &out)
{
    out.done.push_back({&op, "get", obs::Hist::kServerGetNs, t});
    if (op.multi) {
        if (val != nullptr) {
            op.multi->hit[op.slot] = 1;
            op.multi->values[op.slot].assign(
                static_cast<const char *>(val), options_.valueBytes);
        }
        completeMulti(op.multi, out);
        return;
    }
    if (val == nullptr) {
        reply(out, op.conn, Status::kNotFound, Op::kGet, 0, op.seq, {});
        return;
    }
    reply(out, op.conn, Status::kOk, Op::kGet, 0, op.seq,
          {static_cast<const char *>(val), options_.valueBytes});
}

void
Server::finishPut(PendOp &op, bool inserted, const ExecTiming &t,
                  BatchOut &out)
{
    out.done.push_back({&op, "put", obs::Hist::kServerPutNs, t});
    if (op.multi) {
        if (inserted)
            op.multi->inserted.fetch_add(1, std::memory_order_acq_rel);
        completeMulti(op.multi, out);
        return;
    }
    reply(out, op.conn, Status::kOk, Op::kPut, inserted ? kFlagInserted : 0,
          op.seq, {});
}

void
Server::finishRemove(PendOp &op, bool hit, const ExecTiming &t,
                     BatchOut &out)
{
    out.done.push_back({&op, "remove", obs::Hist::kServerRemoveNs, t});
    reply(out, op.conn, hit ? Status::kOk : Status::kNotFound, op.op, 0,
          op.seq, {});
}

bool
Server::runOneMisc()
{
    MiscOp m;
    {
        std::lock_guard lk(execMu_);
        if (miscQ_.empty())
            return false;
        m = std::move(miscQ_.front());
        miscQ_.erase(miscQ_.begin());
    }
    if (m.op == Op::kScan)
        executeScan(m);
    else if (m.op == Op::kStats)
        executeStats(m);
    else
        executeCrash(m);
    return true;
}

void
Server::executeScan(const MiscOp &op)
{
    std::shared_lock storeLk(storeMu_);
    const auto execStart = Clock::now();
    const std::uint64_t gate0 = obs::threadGateWaitNs();
    const std::uint64_t store0 = obs::steadyNowNs();
    std::vector<char> payload;
    std::uint32_t count = 0;
    putRaw(payload, count); // patched below
    store_->scan(op.key, op.limit, [&](std::string_view k, void *v) {
        putRaw(payload, static_cast<std::uint16_t>(k.size()));
        putRaw(payload,
               static_cast<std::uint32_t>(options_.valueBytes));
        payload.insert(payload.end(), k.begin(), k.end());
        const char *val = static_cast<const char *>(v);
        payload.insert(payload.end(), val, val + options_.valueBytes);
        ++count;
    });
    const std::uint64_t storeNs = obs::steadyNowNs() - store0;
    const std::uint64_t gateNs = obs::threadGateWaitNs() - gate0;
    std::memcpy(payload.data(), &count, sizeof(count));
    respond(op.conn, Status::kOk, Op::kScan, 0, op.seq,
            {payload.data(), payload.size()});
    const auto now = Clock::now();
    const auto ns = [](Clock::duration d) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                .count());
    };
    const std::uint64_t totalNs = ns(now - op.admitted);
    obs::recordNs(obs::Hist::kServerScanNs, totalNs);
    if (options_.slowOpThreshold.count() > 0 &&
        totalNs >= static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           options_.slowOpThreshold)
                           .count())) {
        const std::uint64_t queueNs = ns(execStart - op.admitted);
        const std::uint64_t execNs = ns(now - execStart);
        obs::slowOps().record("scan", -1, op.seq, totalNs, queueNs,
                              gateNs, storeNs,
                              execNs > storeNs ? execNs - storeNs : 0);
    }
}

void
Server::executeStats(const MiscOp &op)
{
    globalStats().add(Stat::kServerStatsRequests);
    const obs::Exposition ex = obs::collectGlobal();
    const std::string body = (op.flags & kFlagStatsProm)
                                 ? obs::renderPrometheus(ex)
                                 : obs::renderJson(ex);
    respond(op.conn, Status::kOk, Op::kStats, 0, op.seq,
            {body.data(), body.size()});
}

void
Server::executeCrash(const MiscOp &op)
{
    {
        // Exclusive hold: every admission routing call and batch flush
        // is drained before the store object dies. beforeCrash runs
        // inside the hold so nothing (an EpochService, a rebalancer)
        // can touch the store while it is detached and crash-cycled.
        std::unique_lock storeLk(storeMu_);
        if (options_.beforeCrash)
            options_.beforeCrash();
        auto pools = store_->releasePools();
        store_.reset();
        for (auto &pool : pools)
            pool->crash(kCrashEvictionProbability);
        store_ = std::make_unique<store::ShardedStore>(
            std::move(pools), store::kRecover, recoverConfig_);
        if (options_.afterRecover)
            options_.afterRecover();
    }
    globalStats().add(Stat::kServerCrashes);
    respond(op.conn, Status::kOk, Op::kCrash, 0, op.seq, {});
}

} // namespace incll::server
