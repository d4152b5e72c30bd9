/**
 * @file
 * Networked front-end tests (tier1): the wire protocol end-to-end
 * against a real listening server.
 *
 * Covers the protocol round-trip for every opcode, byte-at-a-time
 * fragmented requests (framing must tolerate arbitrary TCP segmenting),
 * error statuses (kTooLarge, kRefused, kBadRequest-closes-connection),
 * client teardown mid-batch (dropped responses must not corrupt the
 * store) and client resets with responses outstanding (no SIGPIPE),
 * concurrent clients checked against std::map oracles over disjoint
 * key ranges, pipelined responses beyond the socket buffers (the
 * EPOLLOUT path under coalesced batch writes), the crash admin op
 * (crash-cycle + recovery over the wire), a shard's epoch boundary
 * stalling only that shard (other shards answered at once, per-shard
 * order kept across the deferred batch), the migration regression: a
 * batch executed while its placement snapshot is stale or a migration
 * is in flight must demote to per-op routing, never serve through the
 * stale table — the slow-op phases of batched ops, and the kStats
 * exposition scraped mid add/merge/retire (labeled shard series stay
 * unique, no dangling ids), and a seeded frame-mutation fuzz (hostile
 * bytes never kill the process or draw a malformed reply). Last, the
 * shipped `incll_server` binary (INCLL_SERVER_BIN), spawned as its
 * users start it: a PUT acked before a kCrash must read back after it,
 * because the server always runs the EpochService.
 */
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/sharded_store.h"
#include "ycsb/driver.h"

namespace incll::server {
namespace {

constexpr std::size_t kValueBytes = 32;

std::string
key(std::uint64_t rank)
{
    return mt::u64Key(rank);
}

/** A 32-byte value whose first 8 bytes encode @p payload (the rest is
 *  the zero padding the server promises). */
std::string
valueFor(std::uint64_t payload)
{
    std::string v(kValueBytes, '\0');
    std::memcpy(v.data(), &payload, sizeof(payload));
    return v;
}

store::ShardedStore::Options
serverStoreOptions(unsigned shards, bool tracked = false)
{
    store::ShardedStore::Options o;
    o.shards = shards;
    o.mode = tracked ? nvm::Mode::kTracked : nvm::Mode::kDirect;
    o.seed = 99;
    o.poolBytesPerShard = std::size_t{1} << 25;
    o.config.logBuffers = 4;
    o.config.logBufferBytes = 1u << 20;
    return o;
}

Server::Options
quickServerOptions()
{
    Server::Options o;
    o.ioThreads = 2;
    o.executorThreads = 2;
    o.valueBytes = kValueBytes;
    return o;
}

/** One complete response off the wire. */
struct Resp
{
    RespHeader h{};
    std::string payload;

    Status status() const { return static_cast<Status>(h.status); }
};

/** Minimal blocking client: one request out, one response back. */
class Client
{
  public:
    /** @p rcvBuf > 0 caps the receive buffer (set before connecting,
     *  so it also caps the advertised window). */
    explicit Client(std::uint16_t port, int rcvBuf = 0)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        if (rcvBuf > 0)
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvBuf,
                         sizeof(rcvBuf));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)),
            0);
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Abandon the connection without reading pending responses. */
    void
    abortNow()
    {
        ::close(fd_);
        fd_ = -1;
    }

    /** Abandon the connection with a TCP reset (SO_LINGER 0). */
    void
    resetNow()
    {
        const linger lg{1, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        abortNow();
    }

    void
    sendBytes(const char *data, std::size_t len)
    {
        std::size_t off = 0;
        while (off < len) {
            const ssize_t n = ::write(fd_, data + off, len - off);
            ASSERT_GT(n, 0);
            off += static_cast<std::size_t>(n);
        }
    }

    /** Frame and send one request. @p scanLimit only matters for kScan
     *  (which carries a limit in valLen but no payload bytes). */
    void
    sendReq(Op op, std::string_view k, std::string_view payload,
            std::uint64_t seq, std::uint32_t scanLimit = 0,
            std::uint8_t flags = 0)
    {
        std::vector<char> out;
        ReqHeader h{};
        h.op = static_cast<std::uint8_t>(op);
        h.flags = flags;
        h.keyLen = static_cast<std::uint16_t>(k.size());
        h.valLen = op == Op::kScan
                       ? scanLimit
                       : static_cast<std::uint32_t>(payload.size());
        h.seq = seq;
        putRaw(out, h);
        out.insert(out.end(), k.begin(), k.end());
        if (op != Op::kScan)
            out.insert(out.end(), payload.begin(), payload.end());
        sendBytes(out.data(), out.size());
    }

    /** Block until one full response is parsed. false = peer closed. */
    bool
    recvResp(Resp &r)
    {
        while (in_.size() - head_ < sizeof(RespHeader)) {
            if (!fill())
                return false;
        }
        std::memcpy(&r.h, in_.data() + head_, sizeof(RespHeader));
        while (in_.size() - head_ < sizeof(RespHeader) + r.h.valLen) {
            if (!fill())
                return false;
        }
        r.payload.assign(in_.data() + head_ + sizeof(RespHeader),
                         r.h.valLen);
        head_ += sizeof(RespHeader) + r.h.valLen;
        return true;
    }

    /** One blocking request/response round trip. */
    Resp
    roundTrip(Op op, std::string_view k, std::string_view payload,
              std::uint64_t seq = 0, std::uint32_t scanLimit = 0)
    {
        sendReq(op, k, payload, seq, scanLimit);
        Resp r;
        EXPECT_TRUE(recvResp(r));
        EXPECT_EQ(r.h.seq, seq);
        EXPECT_EQ(r.h.op, static_cast<std::uint8_t>(op));
        return r;
    }

  private:
    bool
    fill()
    {
        // Drop the consumed prefix once per read, not once per response.
        in_.erase(in_.begin(),
                  in_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
        char buf[16 * 1024];
        const ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n <= 0)
            return false;
        in_.insert(in_.end(), buf, buf + n);
        return true;
    }

    int fd_ = -1;
    std::vector<char> in_;
    std::size_t head_ = 0; ///< start of the unparsed bytes in in_
};

TEST(ServerProtocol, PointOpsRoundTrip)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());

    // Fresh insert reports the inserted flag; the update does not.
    Resp r = c.roundTrip(Op::kPut, key(1), valueFor(100), 7);
    EXPECT_EQ(r.status(), Status::kOk);
    EXPECT_EQ(r.h.flags, kFlagInserted);
    r = c.roundTrip(Op::kPut, key(1), valueFor(101), 8);
    EXPECT_EQ(r.status(), Status::kOk);
    EXPECT_EQ(r.h.flags, 0);

    // GET returns the full fixed-size value, zero padding included.
    r = c.roundTrip(Op::kGet, key(1), {}, 9);
    EXPECT_EQ(r.status(), Status::kOk);
    EXPECT_EQ(r.payload, valueFor(101));

    // A short PUT payload is zero-padded out to valueBytes.
    c.roundTrip(Op::kPut, key(2), valueFor(200).substr(0, 8), 10);
    r = c.roundTrip(Op::kGet, key(2), {}, 11);
    EXPECT_EQ(r.payload, valueFor(200));

    r = c.roundTrip(Op::kRemove, key(1), {}, 12);
    EXPECT_EQ(r.status(), Status::kOk);
    r = c.roundTrip(Op::kGet, key(1), {}, 13);
    EXPECT_EQ(r.status(), Status::kNotFound);
    r = c.roundTrip(Op::kRemove, key(1), {}, 14);
    EXPECT_EQ(r.status(), Status::kNotFound);

    r = c.roundTrip(Op::kPing, {}, {}, 15);
    EXPECT_EQ(r.status(), Status::kOk);

    ycsb::destroyWithValues(server.store());
}

TEST(ServerProtocol, ScanReturnsOrderedEntries)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());

    for (std::uint64_t r = 0; r < 20; ++r)
        c.roundTrip(Op::kPut, key(r), valueFor(r), r);

    const Resp r = c.roundTrip(Op::kScan, key(5), {}, 99, 8);
    ASSERT_EQ(r.status(), Status::kOk);
    std::size_t off = 0;
    const auto count = getRaw<std::uint32_t>(r.payload.data(), off);
    ASSERT_EQ(count, 8u);
    for (std::uint32_t i = 0; i < count; ++i) {
        const auto keyLen = getRaw<std::uint16_t>(r.payload.data(), off);
        const auto valLen = getRaw<std::uint32_t>(r.payload.data(), off);
        ASSERT_EQ(valLen, kValueBytes);
        const std::string k(r.payload.data() + off, keyLen);
        off += keyLen;
        const std::string v(r.payload.data() + off, valLen);
        off += valLen;
        EXPECT_EQ(k, key(5 + i));
        EXPECT_EQ(v, valueFor(5 + i));
    }
    EXPECT_EQ(off, r.payload.size());

    ycsb::destroyWithValues(server.store());
}

TEST(ServerProtocol, MultiGetMultiPutRoundTrip)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(4)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());

    // MULTI_PUT 10 fresh keys in one frame.
    std::vector<char> payload;
    putRaw(payload, std::uint32_t{10});
    for (std::uint64_t r = 0; r < 10; ++r) {
        const std::string k = key(r);
        const std::string v = valueFor(1000 + r);
        putRaw(payload, static_cast<std::uint16_t>(k.size()));
        putRaw(payload, static_cast<std::uint32_t>(v.size()));
        payload.insert(payload.end(), k.begin(), k.end());
        payload.insert(payload.end(), v.begin(), v.end());
    }
    Resp r = c.roundTrip(Op::kMultiPut, {},
                         {payload.data(), payload.size()}, 50);
    ASSERT_EQ(r.status(), Status::kOk);
    std::size_t off = 0;
    EXPECT_EQ(getRaw<std::uint32_t>(r.payload.data(), off), 10u);

    // Same frame again: all updates now, zero fresh inserts.
    r = c.roundTrip(Op::kMultiPut, {}, {payload.data(), payload.size()},
                    51);
    off = 0;
    EXPECT_EQ(getRaw<std::uint32_t>(r.payload.data(), off), 0u);

    // MULTI_GET of 12 keys: ranks 0..9 hit, 100/101 miss, and the
    // response preserves request order across the per-shard split.
    payload.clear();
    putRaw(payload, std::uint32_t{12});
    std::vector<std::uint64_t> ranks{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100,
                                     101};
    for (const std::uint64_t rank : ranks) {
        const std::string k = key(rank);
        putRaw(payload, static_cast<std::uint16_t>(k.size()));
        payload.insert(payload.end(), k.begin(), k.end());
    }
    r = c.roundTrip(Op::kMultiGet, {}, {payload.data(), payload.size()},
                    52);
    ASSERT_EQ(r.status(), Status::kOk);
    off = 0;
    ASSERT_EQ(getRaw<std::uint32_t>(r.payload.data(), off), 12u);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        const auto hit = getRaw<std::uint8_t>(r.payload.data(), off);
        const auto valLen = getRaw<std::uint32_t>(r.payload.data(), off);
        if (ranks[i] < 10) {
            EXPECT_EQ(hit, 1) << "rank " << ranks[i];
            ASSERT_EQ(valLen, kValueBytes);
            EXPECT_EQ(std::string(r.payload.data() + off, valLen),
                      valueFor(1000 + ranks[i]));
            off += valLen;
        } else {
            EXPECT_EQ(hit, 0) << "rank " << ranks[i];
            EXPECT_EQ(valLen, 0u);
        }
    }
    EXPECT_EQ(off, r.payload.size());

    ycsb::destroyWithValues(server.store());
}

TEST(ServerProtocol, MultiCountOverflowRejected)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());

    // A count no payload could hold must be rejected before anything is
    // reserved for it (a hostile 0xFFFFFFFF would otherwise request a
    // multi-GB allocation), and the malformed frame closes the
    // connection.
    std::vector<char> payload;
    putRaw(payload, std::uint32_t{0xFFFFFFFFu});
    c.sendReq(Op::kMultiGet, {}, {payload.data(), payload.size()}, 1);
    Resp r;
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_EQ(r.status(), Status::kBadRequest);
    EXPECT_FALSE(c.recvResp(r)); // peer closed

    ycsb::destroyWithValues(server.store());
}

TEST(ServerProtocol, MultiPutValLenWrapRejected)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());

    // An entry whose keyLen + valLen wraps a 32-bit sum to a tiny
    // number must still fail the bounds check (computed in 64-bit), not
    // slip past it.
    std::vector<char> payload;
    putRaw(payload, std::uint32_t{1});
    const std::string k = key(1);
    putRaw(payload, static_cast<std::uint16_t>(k.size()));
    putRaw(payload, std::uint32_t{0xFFFFFFF8u});
    payload.insert(payload.end(), k.begin(), k.end());
    c.sendReq(Op::kMultiPut, {}, {payload.data(), payload.size()}, 2);
    Resp r;
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_EQ(r.status(), Status::kBadRequest);
    EXPECT_FALSE(c.recvResp(r)); // peer closed

    ycsb::destroyWithValues(server.store());
}

TEST(ServerProtocol, FragmentedRequestBytes)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());

    // Frame a PUT and a GET back to back, then trickle the bytes one at
    // a time: the parser must frame across arbitrary TCP segmenting and
    // across two requests in one buffer.
    std::vector<char> wire;
    const std::string k = key(42);
    const std::string v = valueFor(4242);
    ReqHeader h{};
    h.op = static_cast<std::uint8_t>(Op::kPut);
    h.keyLen = static_cast<std::uint16_t>(k.size());
    h.valLen = static_cast<std::uint32_t>(v.size());
    h.seq = 1;
    putRaw(wire, h);
    wire.insert(wire.end(), k.begin(), k.end());
    wire.insert(wire.end(), v.begin(), v.end());
    h.op = static_cast<std::uint8_t>(Op::kGet);
    h.valLen = 0;
    h.seq = 2;
    putRaw(wire, h);
    wire.insert(wire.end(), k.begin(), k.end());

    for (const char byte : wire)
        c.sendBytes(&byte, 1);

    Resp r;
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_EQ(r.h.seq, 1u);
    EXPECT_EQ(r.status(), Status::kOk);
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_EQ(r.h.seq, 2u);
    EXPECT_EQ(r.payload, v);

    ycsb::destroyWithValues(server.store());
}

TEST(ServerProtocol, ErrorStatuses)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();

    {
        Client c(server.port());
        // Payload one byte over the server's fixed value size.
        const std::string big(kValueBytes + 1, 'x');
        Resp r = c.roundTrip(Op::kPut, key(1), big, 1);
        EXPECT_EQ(r.status(), Status::kTooLarge);

        // Crash admin op on a server without --allow-crash.
        r = c.roundTrip(Op::kCrash, {}, {}, 2);
        EXPECT_EQ(r.status(), Status::kRefused);
    }
    {
        // An unknown opcode answers kBadRequest and closes the
        // connection.
        Client c(server.port());
        c.sendReq(static_cast<Op>(99), {}, {}, 3);
        Resp r;
        ASSERT_TRUE(c.recvResp(r));
        EXPECT_EQ(r.status(), Status::kBadRequest);
        EXPECT_FALSE(c.recvResp(r)); // peer closed
    }

    ycsb::destroyWithValues(server.store());
}

TEST(ServerTeardown, MidBatchDisconnectLeavesStoreServing)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(4)),
        store::StoreConfig{}, quickServerOptions());
    server.start();

    // Blast 200 pipelined PUTs and hang up without reading a single
    // response: the in-flight batch executes against the store, the
    // responses hit the dead connection, and nothing may wedge.
    {
        Client rude(server.port());
        for (std::uint64_t r = 0; r < 200; ++r)
            rude.sendReq(Op::kPut, key(r), valueFor(r), r);
        rude.abortNow();
    }

    // The server keeps serving other clients, and any of the rude
    // client's puts that did execute are fully intact (never torn).
    Client c(server.port());
    for (std::uint64_t r = 0; r < 200; ++r) {
        const Resp g = c.roundTrip(Op::kGet, key(r), {}, 1000 + r);
        if (g.status() == Status::kOk) {
            EXPECT_EQ(g.payload, valueFor(r)) << "rank " << r;
        }
    }
    const Resp r = c.roundTrip(Op::kPut, key(999), valueFor(999), 2000);
    EXPECT_EQ(r.status(), Status::kOk);

    ycsb::destroyWithValues(server.store());
}

/**
 * Regression: a client that resets its connection while thousands of
 * its responses are still being written. After the reset the server's
 * next write to that socket fails with ECONNRESET and the one after
 * with EPIPE, which raises SIGPIPE — and ends the whole process —
 * unless the write suppresses it. Each rude client reads one response
 * first, so the reset lands while the executors are mid-stream.
 */
TEST(ServerTeardown, ResetWithResponsesOutstandingKeepsServing)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(4)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    {
        Client c(server.port());
        for (std::uint64_t r = 0; r < 100; ++r)
            c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    }

    for (int round = 0; round < 8; ++round) {
        Client rude(server.port());
        std::vector<char> wire;
        for (std::uint64_t i = 0; i < 3000; ++i) {
            const std::string k = key(i % 100);
            ReqHeader h{};
            h.op = static_cast<std::uint8_t>(Op::kGet);
            h.keyLen = static_cast<std::uint16_t>(k.size());
            h.seq = i;
            putRaw(wire, h);
            wire.insert(wire.end(), k.begin(), k.end());
        }
        rude.sendBytes(wire.data(), wire.size());
        Resp first;
        ASSERT_TRUE(rude.recvResp(first));
        rude.resetNow();
    }

    // Still alive, and still serving.
    Client c(server.port());
    for (std::uint64_t r = 0; r < 100; ++r) {
        const Resp g = c.roundTrip(Op::kGet, key(r), {}, 1000 + r);
        ASSERT_EQ(g.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(g.payload, valueFor(r)) << "rank " << r;
    }

    ycsb::destroyWithValues(server.store());
}

TEST(ServerConcurrency, ClientsMatchMapOracles)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(4)),
        store::StoreConfig{}, quickServerOptions());
    server.start();

    // Each client owns a disjoint rank range, so its local std::map is
    // an exact oracle regardless of interleaving with other clients.
    constexpr unsigned kClients = 4;
    constexpr std::uint64_t kRanksPerClient = 300;
    std::vector<std::map<std::string, std::string>> oracles(kClients);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t) {
        threads.emplace_back([&server, &oracles, t] {
            Client c(server.port());
            Rng rng(7000 + t);
            auto &oracle = oracles[t];
            const std::uint64_t base = t * kRanksPerClient;
            for (unsigned i = 0; i < 1500; ++i) {
                const std::string k =
                    key(base + rng.nextBounded(kRanksPerClient));
                const unsigned dice = rng.nextBounded(100);
                if (dice < 50) {
                    const std::string v = valueFor(rng.next());
                    const Resp r = c.roundTrip(Op::kPut, k, v, i);
                    ASSERT_EQ(r.status(), Status::kOk);
                    EXPECT_EQ(r.h.flags == kFlagInserted,
                              !oracle.contains(k));
                    oracle[k] = v;
                } else if (dice < 85) {
                    const Resp r = c.roundTrip(Op::kGet, k, {}, i);
                    if (oracle.contains(k)) {
                        ASSERT_EQ(r.status(), Status::kOk);
                        EXPECT_EQ(r.payload, oracle[k]);
                    } else {
                        EXPECT_EQ(r.status(), Status::kNotFound);
                    }
                } else {
                    const Resp r = c.roundTrip(Op::kRemove, k, {}, i);
                    EXPECT_EQ(r.status(), oracle.contains(k)
                                              ? Status::kOk
                                              : Status::kNotFound);
                    oracle.erase(k);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Final cross-check from a fresh connection.
    Client c(server.port());
    for (unsigned t = 0; t < kClients; ++t) {
        for (const auto &[k, v] : oracles[t]) {
            const Resp r = c.roundTrip(Op::kGet, k, {}, 1);
            ASSERT_EQ(r.status(), Status::kOk) << "client " << t;
            EXPECT_EQ(r.payload, v);
        }
    }

    ycsb::destroyWithValues(server.store());
}

/**
 * Regression: batches of one shard must execute in admission order even
 * with several executor threads (at most one batch per shard in
 * flight). A free executor takes whatever the shard has pending, so a
 * pipelined stream splits into small adjacent batches of one shard and
 * a PUT and its same-key GET often land in different ones — a second
 * executor running the GET's batch while the PUT's is still in flight
 * would answer from before the PUT.
 */
TEST(ServerConcurrency, PipelinedSameKeyOrderedAcrossBatches)
{
    Server::Options so = quickServerOptions();
    so.executorThreads = 4;
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, so);
    server.start();
    Client c(server.port());

    // Blast every pair without waiting for responses (a writer thread,
    // so a full socket cannot deadlock against the unread responses):
    // the shard queue stays hot and batches overlap executors, which is
    // exactly the window where an unserialized flush reorders. Each
    // GET_i is admitted after PUT_i and before PUT_i+1, so in-order
    // execution must answer it with exactly value i.
    constexpr std::uint64_t kPairs = 5000;
    const std::string k = key(7);
    std::thread writer([&c, &k] {
        for (std::uint64_t i = 0; i < kPairs; ++i) {
            c.sendReq(Op::kPut, k, valueFor(i), 2 * i);
            c.sendReq(Op::kGet, k, {}, 2 * i + 1);
        }
    });
    for (std::uint64_t n = 0; n < 2 * kPairs; ++n) {
        Resp r;
        ASSERT_TRUE(c.recvResp(r));
        if (r.h.seq % 2 == 0) {
            EXPECT_EQ(r.status(), Status::kOk);
            continue;
        }
        const std::uint64_t i = r.h.seq / 2;
        ASSERT_EQ(r.status(), Status::kOk) << "pair " << i;
        EXPECT_EQ(r.payload, valueFor(i)) << "pair " << i;
    }
    writer.join();

    ycsb::destroyWithValues(server.store());
}

/**
 * Coalesced output under back-pressure: a client pipelines far more get
 * responses than its capped receive window and the server's send
 * buffer hold, and reads none until the server has executed them all.
 * Batch writes then hit EAGAIN and hand their tail to the IO thread's
 * EPOLLOUT path while the executors keep appending whole batches'
 * responses behind it. Every seq must come back exactly once, with its
 * key's value. The responses total ~4.8 MB: the kernel grows a
 * loopback send buffer up to the tcp_wmem ceiling (4 MiB by default),
 * and only output beyond that is sure to block.
 */
TEST(ServerBackpressure, PipelinedGetsBeyondSocketBuffers)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(4)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    constexpr std::uint64_t kKeys = 500;
    {
        Client c(server.port());
        for (std::uint64_t r = 0; r < kKeys; ++r)
            c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    }

    constexpr std::uint64_t kGets = 100000;
    Client c(server.port(), 16 * 1024);
    std::vector<char> wire;
    for (std::uint64_t i = 0; i < kGets; ++i) {
        const std::string k = key(i % kKeys);
        ReqHeader h{};
        h.op = static_cast<std::uint8_t>(Op::kGet);
        h.keyLen = static_cast<std::uint16_t>(k.size());
        h.seq = i;
        putRaw(wire, h);
        wire.insert(wire.end(), k.begin(), k.end());
    }
    const auto getsRecorded = [] {
        return obs::hist(obs::Hist::kServerGetNs).snapshot().count;
    };
    const std::uint64_t gets0 = getsRecorded();
    c.sendBytes(wire.data(), wire.size());
    // A get is recorded after its batch's write, so once all are, every
    // response the sockets could not take is parked behind EPOLLOUT.
    while (getsRecorded() - gets0 < kGets)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    std::vector<std::uint8_t> seen(kGets, 0);
    for (std::uint64_t n = 0; n < kGets; ++n) {
        Resp r;
        ASSERT_TRUE(c.recvResp(r)) << "after " << n << " responses";
        ASSERT_LT(r.h.seq, kGets);
        EXPECT_EQ(seen[r.h.seq]++, 0) << "seq " << r.h.seq << " twice";
        ASSERT_EQ(r.status(), Status::kOk) << "seq " << r.h.seq;
        EXPECT_EQ(r.payload, valueFor(r.h.seq % kKeys)) << "seq " << r.h.seq;
    }

    ycsb::destroyWithValues(server.store());
}

/**
 * A one-executor server over 4 hash shards whose shard 0 is in a long
 * epoch boundary: one preloaded key per shard (key i holds valueFor(i)),
 * then shard 0's emulated wbinvd stretched to 300 ms and its advance
 * started on a thread. The constructor returns once shard 0's gate
 * reports the advance pending, i.e. while the boundary holds the gate.
 */
class BoundaryRig
{
  public:
    static constexpr std::uint64_t kWbinvdNs = 300'000'000;

    BoundaryRig()
        : server_(std::make_unique<store::ShardedStore>(
                      serverStoreOptions(4)),
                  store::StoreConfig{}, oneExecutor())
    {
        server_.start();
        client_ = std::make_unique<Client>(server_.port());
        for (std::uint64_t rank = 0; keys_.size() < 4; ++rank) {
            const std::string k = key(rank);
            if (server_.store().shardOf(k) != keys_.size())
                continue;
            const std::uint64_t shard = keys_.size();
            EXPECT_EQ(client_->roundTrip(Op::kPut, k, valueFor(shard), rank)
                          .status(),
                      Status::kOk);
            keys_.push_back(k);
        }
        server_.store().shard(0).pool().latency().wbinvdNs = kWbinvdNs;
        advancer_ = std::thread([this] {
            server_.store().advanceShardEpoch(0);
        });
        const auto giveUp =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!server_.store().shardAdvancePending(0) &&
               std::chrono::steady_clock::now() < giveUp)
            std::this_thread::yield();
        EXPECT_TRUE(server_.store().shardAdvancePending(0));
    }

    ~BoundaryRig()
    {
        advancer_.join();
        server_.store().shard(0).pool().latency().wbinvdNs = 0;
        client_.reset();
        ycsb::destroyWithValues(server_.store());
    }

    Client &client() { return *client_; }

    /** The preloaded key of shard @p shard. */
    const std::string &keyOf(unsigned shard) const { return keys_[shard]; }

  private:
    static Server::Options
    oneExecutor()
    {
        Server::Options o = quickServerOptions();
        o.executorThreads = 1;
        return o;
    }

    Server server_;
    std::unique_ptr<Client> client_;
    std::vector<std::string> keys_;
    std::thread advancer_;
};

/**
 * A shard's boundary stalls only that shard: while shard 0's 300-ms
 * boundary holds its gate, GETs for shards 1–3 pipelined behind a
 * shard-0 GET are answered at once, and the shard-0 GET is answered,
 * with its value, once the boundary ends. An executor that runs the
 * queues in order and blocks in shard 0's gate answers nothing for
 * ~300 ms.
 */
TEST(ServerBoundary, OtherShardsServedDuringAShardBoundary)
{
    BoundaryRig rig;
    Client &c = rig.client();
    const auto sent = std::chrono::steady_clock::now();
    for (unsigned shard = 0; shard < 4; ++shard)
        c.sendReq(Op::kGet, rig.keyOf(shard), {}, shard);
    for (unsigned n = 0; n < 4; ++n) {
        Resp r;
        ASSERT_TRUE(c.recvResp(r));
        const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - sent)
                            .count();
        ASSERT_EQ(r.status(), Status::kOk) << "seq " << r.h.seq;
        EXPECT_EQ(r.payload, valueFor(r.h.seq)) << "seq " << r.h.seq;
        if (n < 3) {
            EXPECT_NE(r.h.seq, 0u)
                << "shard 0's GET answered before other shards'";
            EXPECT_LT(ms, 100) << "shard " << r.h.seq
                               << " waited on shard 0's boundary";
        } else {
            EXPECT_EQ(r.h.seq, 0u);
            EXPECT_GE(ms, 100) << "shard 0's GET beat its own boundary";
        }
    }
}

/**
 * Per-shard order survives a skipped batch: a PUT then a GET of one
 * shard-0 key, interleaved with other shards' GETs, both admitted while
 * shard 0's boundary runs. Whether they land in one deferred batch or
 * two, the GET must read the PUT's value.
 */
TEST(ServerBoundary, SkippedShardKeepsItsAdmissionOrder)
{
    BoundaryRig rig;
    Client &c = rig.client();
    c.sendReq(Op::kGet, rig.keyOf(1), {}, 1);
    c.sendReq(Op::kPut, rig.keyOf(0), valueFor(77), 10);
    c.sendReq(Op::kGet, rig.keyOf(2), {}, 2);
    c.sendReq(Op::kGet, rig.keyOf(0), {}, 11);
    c.sendReq(Op::kGet, rig.keyOf(3), {}, 3);
    std::map<std::uint64_t, Resp> got;
    for (unsigned n = 0; n < 5; ++n) {
        Resp r;
        ASSERT_TRUE(c.recvResp(r));
        ASSERT_EQ(r.status(), Status::kOk) << "seq " << r.h.seq;
        EXPECT_FALSE(got.contains(r.h.seq)) << "seq " << r.h.seq;
        got[r.h.seq] = r;
    }
    for (std::uint64_t shard = 1; shard < 4; ++shard)
        EXPECT_EQ(got[shard].payload, valueFor(shard)) << "shard " << shard;
    EXPECT_EQ(got[10].h.flags, 0) << "PUT of a preloaded key inserted";
    EXPECT_EQ(got[11].payload, valueFor(77))
        << "GET after PUT read the value from before it";
}

TEST(ServerCrash, CrashCycleOverTheWireRecovers)
{
    Server::Options so = quickServerOptions();
    so.allowCrash = true;
    store::ShardedStore::Options sto = serverStoreOptions(2, true);
    Server server(std::make_unique<store::ShardedStore>(sto),
                  sto.config, so);
    server.start();
    Client c(server.port());

    for (std::uint64_t r = 0; r < 100; ++r)
        c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    // Reach a clean epoch boundary so every put above is durable.
    server.store().advanceEpoch();

    const Resp crash = c.roundTrip(Op::kCrash, {}, {}, 500);
    EXPECT_EQ(crash.status(), Status::kOk);

    // Same connection, recovered store: everything durable is back.
    for (std::uint64_t r = 0; r < 100; ++r) {
        const Resp g = c.roundTrip(Op::kGet, key(r), {}, 1000 + r);
        ASSERT_EQ(g.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(g.payload, valueFor(r));
    }
    // And the recovered store takes fresh writes.
    const Resp p = c.roundTrip(Op::kPut, key(200), valueFor(200), 2000);
    EXPECT_EQ(p.status(), Status::kOk);

    ycsb::destroyWithValues(server.store());
}

/**
 * The migration regression this PR exists for: a moveBoundary commit
 * between a batch's admission and its flush makes the batch's placement
 * snapshot stale. The flush must detect the version change (or the
 * still-published window) and demote to per-op routing — serving the
 * batch through the stale table would read/install against the old
 * owner after its keys moved.
 */
TEST(ServerMigration, MoveBoundaryUnderServerLoad)
{
    store::ShardedStore::Options sto = serverStoreOptions(4);
    sto.config.placement = store::PlacementKind::kRange;
    sto.config.rangeBoundaries = {key(500), key(1000), key(1500)};
    Server server(std::make_unique<store::ShardedStore>(sto),
                  sto.config, quickServerOptions());
    server.start();

    {
        Client c(server.port());
        for (std::uint64_t r = 0; r < 2000; ++r)
            c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    }

    // Two clients hammer the moving interval [500, 750) and its
    // neighbourhood while boundaries move under them. Disjoint ranks,
    // exact per-client oracles.
    std::atomic<bool> stop{false};
    std::vector<std::map<std::string, std::string>> oracles(2);
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < 2; ++t) {
        clients.emplace_back([&server, &oracles, &stop, t] {
            Client c(server.port());
            Rng rng(4000 + t);
            auto &oracle = oracles[t];
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const std::uint64_t rank =
                    400 + t * 250 + rng.nextBounded(250);
                const std::string k = key(rank);
                if (rng.nextBool(0.5)) {
                    const std::string v = valueFor(rng.next());
                    const Resp r = c.roundTrip(Op::kPut, k, v, i++);
                    ASSERT_EQ(r.status(), Status::kOk);
                    oracle[k] = v;
                } else {
                    const Resp r = c.roundTrip(Op::kGet, k, {}, i++);
                    ASSERT_EQ(r.status(), Status::kOk) << "rank " << rank;
                    EXPECT_EQ(r.payload, oracle.contains(k)
                                             ? oracle[k]
                                             : valueFor(rank));
                }
            }
        });
    }

    // Walk the shard 0/1 boundary right and back left, twice, while
    // the wire load runs: [500,750) to shard 0, then back.
    store::MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    for (int round = 0; round < 2; ++round) {
        store::MoveResult res =
            server.store().moveBoundary(1, 0, key(750), mo);
        ASSERT_TRUE(res.completed);
        res = server.store().moveBoundary(0, 1, key(500), mo);
        ASSERT_TRUE(res.completed);
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(server.store().placementVersion(), 4u);
    EXPECT_FALSE(server.store().migrationInProgress());

    // Every acked write served back correctly post-migration, and the
    // untouched preload intact.
    Client c(server.port());
    for (std::uint64_t r = 400; r < 900; ++r) {
        const std::string k = key(r);
        const unsigned t = r < 650 ? 0 : 1;
        const std::string want =
            oracles[t].contains(k) ? oracles[t][k] : valueFor(r);
        const Resp g = c.roundTrip(Op::kGet, k, {}, r);
        ASSERT_EQ(g.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(g.payload, want) << "rank " << r;
    }

    ycsb::destroyWithValues(server.store());
}

/**
 * Batches inside a migration window, deterministically: a moveBoundary
 * parked at its first kCopy chunk has published its window, and every
 * batch executed meanwhile runs through the store's batched calls,
 * which fall back to per-key calls for the shards the window involves.
 * Gets and puts into the moving interval [500, 750) and beside it must
 * all answer correctly — during the move and after it commits.
 */
TEST(ServerMigration, BatchesAnswerWhileMoveParkedInCopy)
{
    store::ShardedStore::Options sto = serverStoreOptions(4);
    sto.config.placement = store::PlacementKind::kRange;
    sto.config.rangeBoundaries = {key(500), key(1000), key(1500)};
    Server server(std::make_unique<store::ShardedStore>(sto), sto.config,
                  quickServerOptions());
    server.start();
    Client c(server.port());
    for (std::uint64_t r = 0; r < 2000; ++r)
        c.roundTrip(Op::kPut, key(r), valueFor(r), r);

    std::promise<void> parked;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    bool first = true;
    store::MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    mo.phaseGate = [&](store::MovePhase p) {
        if (p == store::MovePhase::kCopy && first) {
            first = false;
            parked.set_value();
            released.wait();
        }
        return true;
    };
    store::MoveResult res;
    std::thread mover([&] {
        res = server.store().moveBoundary(1, 0, key(750), mo);
    });
    parked.get_future().wait();
    ASSERT_TRUE(server.store().migrationInProgress());

    // Ranks 400..899 step 5: below, inside and above the moving
    // interval. Each is updated then read back while the move is
    // parked, one request at a time.
    std::uint64_t seq = 10000;
    for (std::uint64_t r = 400; r < 900; r += 5) {
        const Resp g = c.roundTrip(Op::kGet, key(r), {}, seq++);
        ASSERT_EQ(g.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(g.payload, valueFor(r)) << "rank " << r;
        const Resp p = c.roundTrip(Op::kPut, key(r), valueFor(r + 7), seq++);
        ASSERT_EQ(p.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(p.h.flags, 0) << "rank " << r; // an update, not an insert
        const Resp g2 = c.roundTrip(Op::kGet, key(r), {}, seq++);
        ASSERT_EQ(g2.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(g2.payload, valueFor(r + 7)) << "rank " << r;
    }

    release.set_value();
    mover.join();
    ASSERT_TRUE(res.completed);
    EXPECT_FALSE(server.store().migrationInProgress());

    // After the commit: every write made during the move is served by
    // the interval's new owner, and the untouched keys are intact.
    for (std::uint64_t r = 400; r < 900; ++r) {
        const Resp g = c.roundTrip(Op::kGet, key(r), {}, seq++);
        ASSERT_EQ(g.status(), Status::kOk) << "rank " << r;
        EXPECT_EQ(g.payload, valueFor(r % 5 == 0 ? r + 7 : r))
            << "rank " << r;
    }

    ycsb::destroyWithValues(server.store());
}

/** Value of a plain `name N` Prometheus sample line, or -1. */
long long
promCounter(const std::string &body, const std::string &name)
{
    const std::string needle = "\n" + name + " ";
    const std::size_t at = body.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(body.c_str() + at + needle.size(), nullptr, 10);
}

TEST(ServerProtocol, StatsExposition)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    Client c(server.port());
    for (std::uint64_t r = 0; r < 8; ++r)
        c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    c.roundTrip(Op::kGet, key(3), {}, 20);

    // Prometheus text (flags bit 0). The request rides the executor
    // path, so by the time the response is framed the request's own
    // server_stats_requests bump is visible in the body.
    c.sendReq(Op::kStats, {}, {}, 21, 0, kFlagStatsProm);
    Resp r;
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_EQ(r.status(), Status::kOk);
    EXPECT_EQ(r.h.op, static_cast<std::uint8_t>(Op::kStats));
    EXPECT_EQ(r.h.seq, 21u);
    EXPECT_NE(r.payload.find("# TYPE server_requests counter\n"),
              std::string::npos);
    EXPECT_NE(r.payload.find("# TYPE server_get_ns summary\n"),
              std::string::npos);
    EXPECT_NE(r.payload.find("server_put_ns{quantile=\"0.99\"} "),
              std::string::npos);
    const long long requests1 = promCounter(r.payload, "server_requests");
    const long long statsReqs1 =
        promCounter(r.payload, "server_stats_requests");
    EXPECT_GE(requests1, 9); // the 9 ops above, at least
    EXPECT_GE(statsReqs1, 1);

    // Second probe: counters are monotone across calls.
    c.sendReq(Op::kStats, {}, {}, 22, 0, kFlagStatsProm);
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_GE(promCounter(r.payload, "server_requests"), requests1);
    EXPECT_GE(promCounter(r.payload, "server_stats_requests"),
              statsReqs1 + 1);

    // JSON (flags clear): an object carrying the histogram section.
    c.sendReq(Op::kStats, {}, {}, 23);
    ASSERT_TRUE(c.recvResp(r));
    EXPECT_EQ(r.status(), Status::kOk);
    ASSERT_FALSE(r.payload.empty());
    EXPECT_EQ(r.payload.front(), '{');
    EXPECT_NE(r.payload.find("\"histograms\""), std::string::npos);
    EXPECT_NE(r.payload.find("\"server_put_ns\""), std::string::npos);

    ycsb::destroyWithValues(server.store());
}

/** Value of `"name": N` inside one JSON object @p entry, or -1. */
long long
jsonField(const std::string &entry, const std::string &name)
{
    const std::string needle = "\"" + name + "\": ";
    const std::size_t at = entry.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(entry.c_str() + at + needle.size(), nullptr, 10);
}

/**
 * Slow-op tracing on the batch path: with a 1 us threshold every wire
 * op leaves an entry in the JSON exposition. Its phases share the one
 * clock read that closes the batch after its write, so queue + store +
 * flush equals the total exactly, and flush — which spans the batch's
 * socket write — is never empty.
 */
TEST(ServerProtocol, SlowOpPhasesEndAtTheBatchWrite)
{
    Server::Options so = quickServerOptions();
    so.slowOpThreshold = std::chrono::microseconds(1);
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, so);
    server.start();
    Client c(server.port());
    c.roundTrip(Op::kPut, key(1), valueFor(1), 7001);
    c.roundTrip(Op::kGet, key(1), {}, 7002);
    c.roundTrip(Op::kRemove, key(1), {}, 7003);

    // A batch records its slow-op entries just after its socket write
    // (so the flush phase covers the write), and the other executor can
    // serve a kStats in between: probe until all three have landed.
    const std::pair<std::uint64_t, const char *> traced[] = {
        {7001, "put"}, {7002, "get"}, {7003, "remove"}};
    auto allTraced = [&](const std::string &body) {
        for (const auto &entry : traced)
            if (body.find("\"seq\": " + std::to_string(entry.first) +
                          ",") == std::string::npos)
                return false;
        return true;
    };
    Resp r;
    std::uint64_t statsSeq = 7004;
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    do {
        c.sendReq(Op::kStats, {}, {}, statsSeq++);
        ASSERT_TRUE(c.recvResp(r));
        ASSERT_EQ(r.status(), Status::kOk);
    } while (!allTraced(r.payload) &&
             std::chrono::steady_clock::now() < giveUp);

    for (const auto &[seq, op] : traced) {
        const std::size_t at =
            r.payload.find("\"seq\": " + std::to_string(seq) + ",");
        ASSERT_NE(at, std::string::npos) << "no slow-op entry for " << op;
        const std::size_t begin = r.payload.rfind('{', at);
        const std::string entry =
            r.payload.substr(begin, r.payload.find('}', at) - begin);
        EXPECT_NE(entry.find(std::string("\"op\": \"") + op + "\""),
                  std::string::npos)
            << entry;
        const long long total = jsonField(entry, "total_ns");
        EXPECT_GT(total, 0) << entry;
        EXPECT_GT(jsonField(entry, "flush_ns"), 0) << entry;
        EXPECT_EQ(jsonField(entry, "queue_ns") + jsonField(entry, "store_ns") +
                      jsonField(entry, "flush_ns"),
                  total)
            << entry;
    }

    ycsb::destroyWithValues(server.store());
}

/**
 * The `family{shard="N"}` samples of one Prometheus body, keyed by N.
 * Fails the calling test on a duplicated label or an id outside
 * [0, idBound) — the "exactly once, no dangling series" contract a
 * scrape must keep while members are added and retired under it.
 */
std::map<int, long long>
shardSeries(const std::string &body, const std::string &family,
            int idBound)
{
    std::map<int, long long> out;
    const std::string needle = family + "{shard=\"";
    std::size_t at = 0;
    while ((at = body.find(needle, at)) != std::string::npos) {
        if (at != 0 && body[at - 1] != '\n') {
            at += needle.size();
            continue;
        }
        at += needle.size();
        char *end = nullptr;
        const long shard = std::strtol(body.c_str() + at, &end, 10);
        EXPECT_GE(shard, 0) << family;
        EXPECT_LT(shard, idBound) << family;
        EXPECT_FALSE(out.contains(static_cast<int>(shard)))
            << family << "{shard=\"" << shard << "\"} emitted twice";
        out[static_cast<int>(shard)] = std::strtoll(end + 3, nullptr, 10);
    }
    return out;
}

/**
 * Elasticity satellite: the kStats exposition under a changing member
 * set. A scraper hammers Prometheus renders and a writer keeps the
 * batch path hot while the store grows a fourth shard, merges one out
 * and retires its pool. Every mid-churn scrape must carry each
 * `shard="N"` labeled child at most once with ids only from the
 * issued universe, and the post-churn scrape attributes the add and
 * the retire to the right pool ids — no dangling series, no
 * duplicates. The counters are process-wide, so the add and the
 * retire are read as growth over a scrape taken before the churn (a
 * repetition of this test reuses the same pool ids).
 */
TEST(ServerProtocol, StatsExpositionDuringTopologyChange)
{
    store::ShardedStore::Options sto = serverStoreOptions(3);
    sto.config.placement = store::PlacementKind::kRange;
    sto.config.rangeBoundaries = {key(500), key(1000)};
    Server server(std::make_unique<store::ShardedStore>(sto), sto.config,
                  quickServerOptions());
    server.start();

    const auto scrape = [&server](std::uint64_t seq) {
        Client c(server.port());
        c.sendReq(Op::kStats, {}, {}, seq, 0, kFlagStatsProm);
        Resp r;
        EXPECT_TRUE(c.recvResp(r));
        EXPECT_EQ(r.status(), Status::kOk);
        return r.payload;
    };
    const auto grew = [](const std::string &before, const std::string &after,
                         const std::string &family, int pool) {
        const auto was = shardSeries(before, family, 8);
        const auto now = shardSeries(after, family, 8);
        EXPECT_TRUE(now.contains(pool)) << family << " pool " << pool;
        return (now.contains(pool) ? now.at(pool) : 0) -
               (was.contains(pool) ? was.at(pool) : 0);
    };
    {
        Client c(server.port());
        for (std::uint64_t r = 0; r < 1500; ++r)
            c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    }
    const std::string before = scrape(8999);

    std::atomic<bool> stop{false};
    // Writer: keeps shard batches flushing across the whole key range
    // while the member set changes under the batching buckets.
    std::thread writer([&server, &stop] {
        Client c(server.port());
        Rng rng(77);
        std::uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const std::uint64_t rank = rng.nextBounded(1500);
            const Resp r =
                c.roundTrip(Op::kPut, key(rank), valueFor(rank), i++);
            ASSERT_EQ(r.status(), Status::kOk);
        }
    });
    // Scraper: every body must be well-formed mid-change. Pool ids
    // stay under 8 here: 0..2 initial, 3 the added member.
    std::thread scraper([&server, &stop] {
        Client c(server.port());
        std::uint64_t seq = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            c.sendReq(Op::kStats, {}, {}, seq++, 0, kFlagStatsProm);
            Resp r;
            ASSERT_TRUE(c.recvResp(r));
            ASSERT_EQ(r.status(), Status::kOk);
            for (const char *family :
                 {"epoch_advances", "topology_adds", "topology_retires",
                  "rebalance_keys_moved"})
                shardSeries(r.payload, family, 8);
        }
    });

    store::MoveOptions mo;
    mo.valueBytes = kValueBytes;
    mo.chunkKeys = 64;
    // Grow: a fresh pool (id 3) takes [1250, inf)...
    store::MoveResult res = server.store().addShard(2, key(1250), mo);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(server.store().shardCount(), 4u);
    // ...then shrink: [500, 1000) merges left and its pool retires.
    res = server.store().mergeBoundary(1, 0, mo);
    ASSERT_TRUE(res.completed);
    const auto unrouted = server.store().unroutedPoolIds();
    ASSERT_EQ(unrouted.size(), 1u);
    EXPECT_EQ(unrouted[0], 1u);
    EXPECT_TRUE(server.store().retireShard(unrouted[0]).retired);

    stop.store(true, std::memory_order_relaxed);
    writer.join();
    scraper.join();

    // Post-churn scrape: the add attributed to the new pool's id, the
    // retire to the merged-out pool's id, each exactly once. The batch
    // counters are plain totals: a queue index is not a pool id.
    const std::string after = scrape(9000);
    EXPECT_EQ(grew(before, after, "topology_adds", 3), 1);
    EXPECT_EQ(grew(before, after, "topology_retires", 1), 1);
    EXPECT_TRUE(shardSeries(after, "server_batches", 8).empty());
    EXPECT_TRUE(shardSeries(after, "server_batched_ops", 8).empty());

    Client c(server.port());

    // The data survived the churn: both sides of every boundary the
    // member set crossed.
    for (const std::uint64_t rank : {0ull, 499ull, 500ull, 999ull,
                                     1000ull, 1249ull, 1250ull, 1499ull}) {
        const Resp g = c.roundTrip(Op::kGet, key(rank), {}, 9100 + rank);
        ASSERT_EQ(g.status(), Status::kOk) << "rank " << rank;
        EXPECT_EQ(g.payload, valueFor(rank)) << "rank " << rank;
    }

    ycsb::destroyWithValues(server.store());
}

// ---------------------------------------------------------------------
// Frame-mutation fuzz
// ---------------------------------------------------------------------

/** A valid request frame, with the offsets the length mutators aim at. */
struct FuzzFrame
{
    std::vector<char> bytes;
    /** Offsets of each MULTI entry's u16 keyLen (a u32 valLen follows
     *  it in a MULTI_PUT entry). Empty for point ops. */
    std::vector<std::size_t> entries;
    bool multiPut = false;
};

FuzzFrame
pointFrame(Op op, std::string_view k, std::string_view payload,
           std::uint32_t scanLimit = 0)
{
    FuzzFrame f;
    ReqHeader h{};
    h.op = static_cast<std::uint8_t>(op);
    h.keyLen = static_cast<std::uint16_t>(k.size());
    h.valLen = op == Op::kScan
                   ? scanLimit
                   : static_cast<std::uint32_t>(payload.size());
    h.seq = 0x5eed;
    putRaw(f.bytes, h);
    f.bytes.insert(f.bytes.end(), k.begin(), k.end());
    f.bytes.insert(f.bytes.end(), payload.begin(), payload.end());
    return f;
}

FuzzFrame
multiFrame(bool put, std::uint32_t entries)
{
    std::vector<std::size_t> offsets;
    std::vector<char> payload;
    putRaw(payload, entries);
    for (std::uint32_t i = 0; i < entries; ++i) {
        const std::string k = key(i);
        offsets.push_back(sizeof(ReqHeader) + payload.size());
        putRaw(payload, static_cast<std::uint16_t>(k.size()));
        if (put)
            putRaw(payload, static_cast<std::uint32_t>(kValueBytes));
        payload.insert(payload.end(), k.begin(), k.end());
        if (put) {
            const std::string v = valueFor(i);
            payload.insert(payload.end(), v.begin(), v.end());
        }
    }
    FuzzFrame f = pointFrame(put ? Op::kMultiPut : Op::kMultiGet, {},
                             {payload.data(), payload.size()});
    f.entries = std::move(offsets);
    f.multiPut = put;
    return f;
}

template <typename T>
void
pokeRaw(std::vector<char> &buf, std::size_t off, T v)
{
    if (off + sizeof(T) <= buf.size())
        std::memcpy(buf.data() + off, &v, sizeof(T));
}

template <typename T>
T
peekRaw(const std::vector<char> &buf, std::size_t off)
{
    T v{};
    if (off + sizeof(T) <= buf.size())
        std::memcpy(&v, buf.data() + off, sizeof(T));
    return v;
}

/** A length or count field's hostile values around its true value. */
template <typename T>
T
hostile(std::mt19937_64 &rng, T truth, T cap)
{
    const T picks[] = {T{0},
                       cap,
                       static_cast<T>(cap + 1),
                       std::numeric_limits<T>::max(),
                       static_cast<T>(truth - 1),
                       static_cast<T>(truth + 1)};
    return picks[rng() % std::size(picks)];
}

/** Apply one seeded mutation to a copy of @p base. */
std::vector<char>
mutateFrame(const FuzzFrame &base, std::mt19937_64 &rng)
{
    std::vector<char> f = base.bytes;
    constexpr std::size_t kKeyLenOff = offsetof(ReqHeader, keyLen);
    constexpr std::size_t kValLenOff = offsetof(ReqHeader, valLen);
    const bool multi = !base.entries.empty();
    switch (rng() % (multi ? 7 : 4)) {
      case 0: { // bit flips
        const std::size_t flips = 1 + rng() % 4;
        for (std::size_t i = 0; i < flips; ++i)
            f[rng() % f.size()] ^= static_cast<char>(1u << (rng() % 8));
        break;
      }
      case 1: // truncation
        f.resize(rng() % f.size());
        break;
      case 2:
        pokeRaw(f, kKeyLenOff,
                hostile<std::uint16_t>(
                    rng, peekRaw<std::uint16_t>(f, kKeyLenOff),
                    static_cast<std::uint16_t>(kMaxKeyLen)));
        break;
      case 3:
        pokeRaw(f, kValLenOff,
                hostile<std::uint32_t>(
                    rng, peekRaw<std::uint32_t>(f, kValLenOff),
                    static_cast<std::uint32_t>(kMaxValLen)));
        break;
      case 4: { // MULTI count
        const std::size_t off = sizeof(ReqHeader);
        pokeRaw(f, off,
                hostile<std::uint32_t>(rng, peekRaw<std::uint32_t>(f, off),
                                       std::uint32_t{0xFFFFFFFFu}));
        break;
      }
      case 5: { // one MULTI entry's keyLen or valLen
        const std::size_t e =
            base.entries[rng() % base.entries.size()];
        if (base.multiPut && rng() % 2 == 0)
            pokeRaw(f, e + 2,
                    hostile<std::uint32_t>(
                        rng, peekRaw<std::uint32_t>(f, e + 2),
                        static_cast<std::uint32_t>(kValueBytes)));
        else
            pokeRaw(f, e,
                    hostile<std::uint16_t>(
                        rng, peekRaw<std::uint16_t>(f, e),
                        static_cast<std::uint16_t>(kMaxKeyLen)));
        break;
      }
      default: { // a MULTI entry that runs past the payload's end
        const std::size_t e =
            base.entries[rng() % base.entries.size()];
        const std::size_t past = f.size() - e + 1 + rng() % 64;
        pokeRaw(f, e, static_cast<std::uint16_t>(std::min<std::size_t>(
                          past, kMaxKeyLen)));
        break;
      }
    }
    return f;
}

/** Why @p h (and its complete payload) is not a well-formed response,
 *  or empty if it is. */
std::string
malformedReason(const RespHeader &h, const char *payload)
{
    if (h.status > static_cast<std::uint8_t>(Status::kRefused))
        return "unknown status " + std::to_string(h.status);
    if (h.reserved != 0 || h.flags > kFlagInserted)
        return "stray header bits";
    if (static_cast<Status>(h.status) != Status::kOk)
        return h.valLen == 0 ? "" : "error status with a payload";
    std::size_t off = 0;
    const auto need = [&](std::size_t n) { return h.valLen - off >= n; };
    switch (static_cast<Op>(h.op)) {
      case Op::kGet:
        return h.valLen == kValueBytes ? "" : "GET value of wrong size";
      case Op::kPut:
      case Op::kRemove:
      case Op::kPing:
        return h.valLen == 0 ? "" : "payload on a bare ack";
      case Op::kMultiPut:
        return h.valLen == sizeof(std::uint32_t) ? "" : "MULTI_PUT ack size";
      case Op::kStats:
        return "";
      case Op::kScan:
      case Op::kMultiGet: {
        const bool scan = static_cast<Op>(h.op) == Op::kScan;
        if (!need(sizeof(std::uint32_t)))
            return "missing count";
        const auto count = getRaw<std::uint32_t>(payload, off);
        for (std::uint32_t i = 0; i < count; ++i) {
            std::size_t body = 0;
            if (scan) {
                if (!need(sizeof(std::uint16_t) + sizeof(std::uint32_t)))
                    return "scan entry header past the payload";
                body = getRaw<std::uint16_t>(payload, off);
                body += getRaw<std::uint32_t>(payload, off);
            } else {
                if (!need(sizeof(std::uint8_t) + sizeof(std::uint32_t)))
                    return "MULTI_GET entry header past the payload";
                const auto hit = getRaw<std::uint8_t>(payload, off);
                body = getRaw<std::uint32_t>(payload, off);
                if (hit > 1 || (hit == 0 && body != 0))
                    return "MULTI_GET miss with a value";
            }
            if (!need(body))
                return "entry past the payload";
            off += body;
        }
        return off == h.valLen ? "" : "trailing payload bytes";
      }
      default:
        return "kOk for op " + std::to_string(h.op);
    }
}

/**
 * Send @p frame on a fresh connection, half-close it, and read until
 * the server closes. Returns false (with a reason) if a reply is not a
 * well-formed response or the server never closes. A reply cut short
 * by the close is allowed: the server may tear a connection down with
 * output still queued.
 */
bool
fuzzOneFrame(std::uint16_t port, const std::vector<char> &frame,
             std::string &why)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        why = "socket failed";
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        why = "connect failed";
        return false;
    }
    // The server may close before it has read the whole frame:
    // MSG_NOSIGNAL turns the resulting EPIPE into an error return.
    std::size_t sent = 0;
    while (sent < frame.size()) {
        const ssize_t n = ::send(fd, frame.data() + sent,
                                 frame.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);

    std::vector<char> in;
    char buf[16 * 1024];
    bool closed = false;
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n > 0) {
            in.insert(in.end(), buf, buf + n);
            continue;
        }
        closed = n == 0 || errno == ECONNRESET;
        break;
    }
    ::close(fd);
    if (!closed) {
        why = "server neither answered nor closed the connection";
        return false;
    }
    std::size_t off = 0;
    while (in.size() - off >= sizeof(RespHeader)) {
        RespHeader h;
        std::memcpy(&h, in.data() + off, sizeof(h));
        if (in.size() - off - sizeof(h) < h.valLen)
            break; // cut short by the close
        why = malformedReason(h, in.data() + off + sizeof(h));
        if (!why.empty())
            return false;
        off += sizeof(h) + h.valLen;
    }
    return true;
}

TEST(ServerProtocol, FrameMutationFuzz)
{
    Server server(
        std::make_unique<store::ShardedStore>(serverStoreOptions(2)),
        store::StoreConfig{}, quickServerOptions());
    server.start();
    {
        Client c(server.port());
        for (std::uint64_t r = 0; r < 16; ++r)
            c.roundTrip(Op::kPut, key(r), valueFor(r), r);
    }

    const std::vector<FuzzFrame> bases = {
        pointFrame(Op::kGet, key(3), {}),
        pointFrame(Op::kPut, key(4), valueFor(44)),
        pointFrame(Op::kRemove, key(5), {}),
        pointFrame(Op::kScan, key(1), {}, 8),
        pointFrame(Op::kPing, {}, {}),
        multiFrame(/*put=*/false, 3),
        multiFrame(/*put=*/true, 3),
    };
    std::mt19937_64 rng(0xf1a3e);
    constexpr int kFrames = 2000;
    for (int i = 0; i < kFrames; ++i) {
        const FuzzFrame &base = bases[rng() % bases.size()];
        const std::vector<char> frame = mutateFrame(base, rng);
        std::string why;
        ASSERT_TRUE(fuzzOneFrame(server.port(), frame, why))
            << "frame " << i << ": " << why;
    }

    // The process survived every frame; a clean client is still served.
    Client c(server.port());
    Resp r = c.roundTrip(Op::kPut, key(1000), valueFor(7), 1);
    EXPECT_EQ(r.status(), Status::kOk);
    r = c.roundTrip(Op::kGet, key(1000), {}, 2);
    EXPECT_EQ(r.status(), Status::kOk);
    EXPECT_EQ(r.payload, valueFor(7));

    ycsb::destroyWithValues(server.store());
}

/** A spawned incll_server that never outlives the test: stopped by the
 *  destructor on every exit path, and by the kernel if the test dies. */
class ServerProcess
{
  public:
    explicit ServerProcess(std::vector<std::string> args)
    {
        // argv is built before fork: the child of a threaded process
        // may only make async-signal-safe calls, and malloc is not one.
        std::vector<char *> argv{const_cast<char *>(INCLL_SERVER_BIN)};
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        int out[2];
        if (::pipe(out) != 0)
            return;
        pid_ = ::fork();
        if (pid_ == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            ::dup2(out[1], STDOUT_FILENO);
            ::close(out[0]);
            ::close(out[1]);
            ::execv(INCLL_SERVER_BIN, argv.data());
            ::_exit(127);
        }
        ::close(out[1]);
        out_ = out[0];
    }

    ~ServerProcess()
    {
        stop();
        if (out_ >= 0)
            ::close(out_);
    }

    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    /** The port of the READY line, or 0 if none came in @p timeout. */
    std::uint16_t
    waitReady(std::chrono::seconds timeout)
    {
        std::string text;
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        while (pid_ > 0 && std::chrono::steady_clock::now() < deadline) {
            pollfd p{out_, POLLIN, 0};
            if (::poll(&p, 1, 100) <= 0)
                continue;
            char buf[256];
            const ssize_t n = ::read(out_, buf, sizeof(buf));
            if (n <= 0)
                return 0; // the server exited
            text.append(buf, static_cast<std::size_t>(n));
            const std::size_t at = text.find("READY port=");
            if (at != std::string::npos &&
                text.find('\n', at) != std::string::npos)
                return static_cast<std::uint16_t>(
                    std::strtoul(text.c_str() + at + 11, nullptr, 10));
        }
        return 0;
    }

    /** SIGTERM, then SIGKILL after 10 s. Returns the exit code, or -1
     *  when the server had to be killed or never started. */
    int
    stop()
    {
        if (pid_ <= 0)
            return -1;
        ::kill(pid_, SIGTERM);
        int status = 0;
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        pid_t r;
        while ((r = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (r == 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, &status, 0);
        }
        pid_ = -1;
        return r > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
};

/** Every `epoch_advances{shard="N"}` sample of a Prometheus scrape. */
std::map<int, long long>
advancesByShard(const std::string &prom)
{
    std::map<int, long long> out;
    const std::string needle = "\nepoch_advances{shard=\"";
    for (std::size_t at = prom.find(needle); at != std::string::npos;
         at = prom.find(needle, at + 1)) {
        char *end = nullptr;
        const long shard =
            std::strtol(prom.c_str() + at + needle.size(), &end, 10);
        if (std::strncmp(end, "\"} ", 3) == 0)
            out[static_cast<int>(shard)] = std::strtoll(end + 3, nullptr, 10);
    }
    return out;
}

/** One Prometheus kStats scrape. */
std::string
scrape(Client &c, std::uint64_t seq)
{
    c.sendReq(Op::kStats, {}, {}, seq, 0, kFlagStatsProm);
    Resp r;
    EXPECT_TRUE(c.recvResp(r));
    return r.payload;
}

TEST(ServerMain, AckedPutSurvivesCrash)
{
    constexpr std::size_t kShards = 2;
    ServerProcess proc({"--port", "0", "--shards", std::to_string(kShards),
                        "--keys", "1000", "--allow-crash"});
    const std::uint16_t port = proc.waitReady(std::chrono::seconds(60));
    ASSERT_NE(port, 0) << "no READY line from " << INCLL_SERVER_BIN;
    Client c(port);
    std::uint64_t seq = 0;

    // The server's default value size is the 32 bytes valueFor builds.
    const std::string k = "acked-before-crash";
    Resp r = c.roundTrip(Op::kPut, k, valueFor(42), ++seq);
    ASSERT_EQ(r.status(), Status::kOk);
    ASSERT_EQ(r.h.flags & kFlagInserted, kFlagInserted) << "key not fresh";
    const std::map<int, long long> acked = advancesByShard(scrape(c, ++seq));

    // Wait until every shard completed two more boundaries. A shard's
    // boundaries run one at a time and count on completion, so the
    // second began after the scrape above, itself after the ack: it
    // checkpointed the PUT whichever shard holds the key. A shard whose
    // epoch took no write skips its boundary, so fresh keys keep every
    // shard's epochs written meanwhile.
    bool twoMore = false;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (int tick = 0;
         !twoMore && std::chrono::steady_clock::now() < deadline; ++tick) {
        r = c.roundTrip(Op::kPut, "tick-" + std::to_string(tick),
                        valueFor(tick), ++seq);
        ASSERT_EQ(r.status(), Status::kOk);
        const std::map<int, long long> now = advancesByShard(scrape(c, ++seq));
        twoMore = now.size() == kShards;
        for (const auto &[shard, n] : now) {
            const auto was = acked.find(shard);
            twoMore &= n >= (was == acked.end() ? 0 : was->second) + 2;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(twoMore)
        << "epoch_advances did not grow by two on every shard in 10 s";

    r = c.roundTrip(Op::kCrash, {}, {}, ++seq);
    ASSERT_EQ(r.status(), Status::kOk);
    r = c.roundTrip(Op::kGet, k, {}, ++seq);
    EXPECT_EQ(r.status(), Status::kOk);
    EXPECT_EQ(r.payload, valueFor(42));

    EXPECT_EQ(proc.stop(), 0);
}

} // namespace
} // namespace incll::server
