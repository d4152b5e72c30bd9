/**
 * @file
 * The incll_server wire protocol: a compact binary framing for the
 * store API over a byte stream (TCP).
 *
 * Every request is a fixed 16-byte ReqHeader followed by `keyLen` key
 * bytes and `valLen` payload bytes; every response is a fixed 16-byte
 * RespHeader followed by `valLen` payload bytes. Multi-byte fields are
 * host-endian (the server and the load generator run on one machine —
 * this is a benchmark front-end, not an interchange format). `seq` is
 * an opaque client token echoed verbatim in the response, so clients
 * may pipeline arbitrarily many requests per connection and match
 * completions out of order (the server may reorder across shards; it
 * never reorders two ops of the same shard batch).
 *
 * Point ops:
 *   kGet     key, no payload            -> kOk + value payload | kNotFound
 *   kPut     key + value payload        -> kOk (flags bit 0 set on fresh
 *                                          insert)
 *   kRemove  key, no payload            -> kOk | kNotFound
 *
 * Range op:
 *   kScan    key = start, valLen = max entries (no payload bytes)
 *            -> kOk + payload: u32 count, then count entries of
 *               { u16 keyLen, u32 valLen, key bytes, value bytes }
 *
 * Batched ops (one round-trip, split per shard at admission):
 *   kMultiGet  payload: u32 count, then count of { u16 keyLen, key }
 *              -> kOk + payload: u32 count, then count of
 *                 { u8 hit, u32 valLen, value bytes (hit only) }
 *                 in request order
 *   kMultiPut  payload: u32 count, then count of
 *              { u16 keyLen, u32 valLen, key bytes, value bytes }
 *              -> kOk + payload: u32 newly-inserted count
 *
 * Admin ops:
 *   kPing    no key, no payload -> kOk (liveness / pipeline flush)
 *   kCrash   no key, no payload -> kOk after the server crash-cycles
 *            its emulated NVM pools and recovers (refused with
 *            kRefused unless the server was started with --allow-crash)
 *   kStats   no key, no payload -> kOk + payload: the live metric
 *            exposition (counters, latency histograms with quantiles,
 *            slow-op traces). Request `flags` bit 0 selects the
 *            format: 0 = JSON, 1 = Prometheus text.
 *
 * Values are fixed-size: the server installs every value into a
 * `valueBytes`-sized durable buffer (the store's uniform value-buffer
 * contract; ycsb::kValueBytes by default) and serves exactly that many
 * bytes back. A kPut payload shorter than valueBytes is zero-padded; a
 * longer one is refused with kTooLarge.
 */
#pragma once

#include <cstdint>
#include <cstring>

namespace incll::server {

/** Request opcodes. */
enum class Op : std::uint8_t {
    kGet = 1,
    kPut = 2,
    kRemove = 3,
    kScan = 4,
    kMultiGet = 5,
    kMultiPut = 6,
    kPing = 7,
    kCrash = 8,
    kStats = 9,
};

/** ReqHeader::flags bit for kStats: Prometheus text (unset: JSON). */
inline constexpr std::uint8_t kFlagStatsProm = 1;

/** Response status codes. */
enum class Status : std::uint8_t {
    kOk = 0,
    kNotFound = 1,
    kBadRequest = 2, ///< unparsable op/lengths; the connection is closed
    kTooLarge = 3,   ///< value payload exceeds the server's valueBytes
    kRefused = 4,    ///< admin op not enabled on this server
};

/** Fixed request framing header. */
struct ReqHeader
{
    std::uint8_t op;
    std::uint8_t flags;    ///< kStats: format selection; otherwise send 0
    std::uint16_t keyLen;  ///< key bytes following this header
    std::uint32_t valLen;  ///< payload bytes after the key (kScan: limit)
    std::uint64_t seq;     ///< opaque client token, echoed in the response
};
static_assert(sizeof(ReqHeader) == 16);

/** RespHeader::flags bit: kPut inserted a fresh key (vs updated). */
inline constexpr std::uint8_t kFlagInserted = 1;

/** Fixed response framing header. */
struct RespHeader
{
    std::uint8_t status;
    std::uint8_t op;      ///< echo of the request op
    std::uint8_t flags;   ///< kFlagInserted for kPut, else 0
    std::uint8_t reserved;
    std::uint32_t valLen; ///< payload bytes following this header
    std::uint64_t seq;    ///< echo of the request seq
};
static_assert(sizeof(RespHeader) == 16);

/** Hard cap on one request's key length (Masstree keys are short). */
inline constexpr std::size_t kMaxKeyLen = 4096;

/** Hard cap on one request's payload (bounds a MULTI batch's frame). */
inline constexpr std::size_t kMaxValLen = 16u << 20;

/** Append a POD to a byte buffer (framing helper shared with clients). */
template <typename Buf, typename T>
inline void
putRaw(Buf &out, const T &v)
{
    const auto *p = reinterpret_cast<const char *>(&v);
    out.insert(out.end(), p, p + sizeof(T));
}

/** Read a POD at @p off (caller has bounds-checked); advances @p off. */
template <typename T>
inline T
getRaw(const char *data, std::size_t &off)
{
    T v;
    std::memcpy(&v, data + off, sizeof(T));
    off += sizeof(T);
    return v;
}

} // namespace incll::server
