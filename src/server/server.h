/**
 * @file
 * Networked front-end for the sharded INCLL store.
 *
 * An epoll-based event loop serves the binary protocol of
 * server/protocol.h over TCP, with the request path split in two:
 *
 *  - *Admission* (IO threads): each connection belongs to one IO
 *    thread, which parses complete requests out of the byte stream and
 *    routes each point op to its owning shard's pending batch. MULTI
 *    requests are split into per-shard sub-ops at admission, with a
 *    remaining-counter context reassembling the single response when
 *    the last sub-op completes. Admission never touches a tree.
 *
 *  - *Execution* (executor threads): an executor works in *passes*
 *    over the shard queues. A pass takes each shard's whole pending
 *    batch that no other executor has in flight and runs it against
 *    the store — multiGet for the reads, installValueBatch for the
 *    writes. A batch is therefore whatever was admitted while the
 *    executor was busy: there is no size or age threshold, so an idle
 *    server adds no batching delay and a loaded one batches as widely
 *    as its load. The batch pays the store's one-gate-entry-per-shard
 *    cost for the whole group, which is where the server's throughput
 *    comes from. A shard whose epoch boundary holds or is draining its
 *    gate (EpochGate::advancePending) is stepped around: its batch stays
 *    queued and the pass serves the other shards, so a boundary stalls
 *    only its own shard's requests. When every runnable batch waits on
 *    a boundary the executor yields and passes again; it never blocks
 *    in a gate it only looked at. The store calls still enter the gate
 *    themselves (the write-backpressure hook is skipped for a thread
 *    that already holds it).
 *
 * A batch is grouped under the placement current at admission, and a
 * migration may commit before it runs. It still runs as one batch: the
 * store re-routes every key of a multiGet, installValueBatch or remove,
 * and falls back to per-key calls for the shards a migration window
 * involves, so a stale grouping costs batching width, never
 * correctness. Scans execute per-op on executors (they take gates for
 * their whole duration and do not batch).
 *
 * Responses are appended to a per-connection output buffer. A pass
 * writes each connection it touched once, after its last store call —
 * one send per connection per pass, however many batches and MULTI
 * responses fed it; IO-thread and misc-op responses are written as
 * they are made. Short writes arm EPOLLOUT on
 * the connection's IO thread via an eventfd. Writes never raise
 * SIGPIPE: a client that resets with responses outstanding costs its
 * own connection, not the process. Ops hold the connection alive by
 * shared_ptr, so a client teardown mid-pass drops the responses but
 * never the executed ops — the store stays consistent.
 *
 * The server owns its store: the kCrash admin op (Options::allowCrash)
 * quiesces execution, crash-cycles the emulated NVM pools in place and
 * reconstructs the store through the recovery constructor, then
 * resumes serving — the in-process power-failure drill, driven over
 * the wire.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/protocol.h"
#include "store/sharded_store.h"

namespace incll::server {

class Server
{
  public:
    struct Options
    {
        /** Bind address; loopback by default (benchmark front-end). */
        std::string bindAddr = "127.0.0.1";
        /** TCP port; 0 picks an ephemeral port (see port()). */
        std::uint16_t port = 0;
        /** Event-loop threads; each connection belongs to one. */
        unsigned ioThreads = 2;
        /** Store-execution threads draining the shard batches. */
        unsigned executorThreads = 2;
        /** Uniform durable value-buffer size (the store's contract). */
        std::size_t valueBytes = 32;
        /** Serve the kCrash admin op (crash-cycle + recover in place). */
        bool allowCrash = false;
        /**
         * Slow-op tracing threshold: an op whose admission-to-response
         * latency exceeds this records a phase breakdown (queue, gate,
         * store, respond) into the obs slow-op ring, dumpable via the
         * kStats JSON exposition. Zero disables tracing.
         */
        std::chrono::microseconds slowOpThreshold{0};
        /**
         * Run before/after a kCrash cycle, with every executor and
         * admission path quiesced: detach anything holding the store
         * (an EpochService) in beforeCrash, re-attach to store() in
         * afterRecover.
         */
        std::function<void()> beforeCrash;
        std::function<void()> afterRecover;
    };

    /**
     * Take ownership of @p st and serve it. @p recoverConfig is the
     * StoreConfig the kCrash op reconstructs the store with (ignored
     * when allowCrash is off).
     */
    Server(std::unique_ptr<store::ShardedStore> st,
           store::StoreConfig recoverConfig, Options options);

    /** Stops and closes everything still open. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and spin up the IO + executor pools. Throws
     *  std::runtime_error on socket failures. */
    void start();

    /** Stop serving: close the listener and every connection, flush
     *  nothing further (unacked pending ops are dropped). Idempotent. */
    void stop();

    /** The bound TCP port (after start(); ephemeral binds resolve). */
    std::uint16_t port() const { return boundPort_; }

    /**
     * The store being served. Valid until the server is destroyed; a
     * kCrash op replaces the object, so do not cache the reference
     * across admin crashes. Tests drive moveBoundary through this.
     */
    store::ShardedStore &store() { return *store_; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Conn;
    struct MultiCtx;
    struct PendOp;
    struct ShardQueue;
    struct MiscOp;
    struct IoThread;
    struct ExecTiming;
    struct BatchOut;

    void ioLoop(unsigned self);
    void execLoop();
    void acceptReady();
    void adoptPending(IoThread &io);
    void armWrites(IoThread &io);
    void readReady(IoThread &io, const std::shared_ptr<Conn> &conn);
    void writeReady(IoThread &io, const std::shared_ptr<Conn> &conn);
    void teardown(IoThread &io, const std::shared_ptr<Conn> &conn);

    /** Parse complete requests out of conn->in; false = close conn. */
    bool parseConn(const std::shared_ptr<Conn> &conn);
    bool handleRequest(const std::shared_ptr<Conn> &conn,
                       const ReqHeader &h, const char *key,
                       const char *payload);
    bool handleMulti(const std::shared_ptr<Conn> &conn, const ReqHeader &h,
                     const char *payload);
    void admit(PendOp &&op);

    void respond(const std::shared_ptr<Conn> &conn, Status status, Op op,
                 std::uint8_t flags, std::uint64_t seq,
                 std::string_view payload);
    void reply(BatchOut &out, const std::shared_ptr<Conn> &conn,
               Status status, Op op, std::uint8_t flags, std::uint64_t seq,
               std::string_view payload);
    void flushOut(Conn &conn);
    void completeMulti(const std::shared_ptr<MultiCtx> &ctx, BatchOut &out);

    bool runPendingBatches(BatchOut &out, bool &deferred);
    void executeBatch(unsigned shardIdx, std::vector<PendOp> &ops,
                      BatchOut &out);
    void writeBatch(BatchOut &out);
    void finishGet(PendOp &op, const void *val, const ExecTiming &t,
                   BatchOut &out);
    void finishPut(PendOp &op, bool inserted, const ExecTiming &t,
                   BatchOut &out);
    void finishRemove(PendOp &op, bool hit, const ExecTiming &t,
                      BatchOut &out);
    bool runOneMisc();
    void executeScan(const MiscOp &op);
    void executeStats(const MiscOp &op);
    void executeCrash(const MiscOp &op);

    const Options options_;
    const store::StoreConfig recoverConfig_;

    /**
     * Readers (admission routing, batch execution) hold it shared; the
     * kCrash cycle holds it exclusive while it swaps the store object.
     */
    std::shared_mutex storeMu_;
    std::unique_ptr<store::ShardedStore> store_;

    int listenFd_ = -1;
    std::uint16_t boundPort_ = 0;
    std::atomic<bool> stop_{true};
    std::atomic<unsigned> nextIo_{0}; ///< round-robin accept assignment

    std::vector<std::unique_ptr<IoThread>> ioThreads_;
    std::vector<std::unique_ptr<ShardQueue>> queues_; ///< one per shard

    std::mutex execMu_;
    std::condition_variable execCv_;
    std::vector<MiscOp> miscQ_; ///< scans + admin ops (guarded by execMu_)
    std::vector<std::thread> executors_;
};

} // namespace incll::server
