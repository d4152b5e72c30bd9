/**
 * @file
 * Placement: the pluggable policy that maps keys to shards, and the
 * store manifest — the one durable record that lets recovery re-derive
 * it.
 *
 * ShardedStore routes every operation through one of these policies:
 *
 *  - HashPlacement — FNV-1a over the key bytes, then mixed, modulo the
 *    shard count. This is the store's historical routing, extracted
 *    verbatim: images produced before the policy seam existed route
 *    identically. Point operations balance perfectly, but any key range
 *    scatters over every shard, so a scan pays an N-way gather-merge.
 *
 *  - RangePlacement — an ordered table of N-1 key boundaries; shard i
 *    owns the half-open range [boundary[i-1], boundary[i]) with an
 *    implicit "" at the left edge and +inf at the right. Routing is a
 *    binary search, and because shard indices ascend with key ranges, a
 *    scan visits only the shards whose ranges intersect it — in index
 *    order, streaming results with no merge at all.
 *
 * Durability: a range store writes one Manifest into every pool it owns
 * at creation, before the first user operation, and again at each step
 * of a transition (see ShardedStore::applyTransition). A manifest is the
 * whole routing state: the placement version, the member pool ids in
 * key order, the full boundary table, the next unused pool id, the
 * pool's own id and any pending transition intent. Recovery takes the
 * highest-sequence valid manifest across the supplied pools, so it is
 * self-contained: no record is ever combined with another. HashPlacement
 * writes nothing, preserving the guarantee that a default single-shard
 * store's crash image is byte-identical to a standalone DurableMasstree.
 *
 * Root-area tail layout (offsets from the start of the root area; the
 * masstree DurableRoot fills the head, and shard.cc static_asserts that
 * the manifest area is exactly what it leaves):
 *
 *   kRootAreaSize - 4480 .. -2240   manifest slot 0
 *   kRootAreaSize - 2240 ..     0   manifest slot 1
 *
 * Each slot (see ManifestSlot in placement.cc, byte offsets):
 *
 *     0  magic        written last; 0 while the slot is being rewritten
 *     8  checksum     over bytes [16, used) of the slot
 *    16  seq          write sequence number (highest valid wins)
 *    24  version      placement version
 *    32  poolId, nextPoolId, memberCount, hasIntent   (u32 each)
 *    48  intent       {version, src, dst, valueBytes, lo, hi}, 112 bytes
 *   160  memberIds    Manifest::kMaxMembers u32 pool ids, key order
 *   336  boundaries   {u32 len, 40 bytes}, memberCount-1 of them used
 *
 * "used" ends after the last used boundary, so a 4-member manifest
 * writes and flushes 468 bytes, not the whole 2240-byte slot.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "nvm/pool.h"

namespace incll::store {

/** Bytes at the tail of every pool's root area that the two manifest
 *  slots occupy: what mt::DurableRoot leaves free of the 8 KiB area. */
inline constexpr std::size_t kManifestAreaBytes = 4480;

/** Bytes of one manifest slot (the two split the area evenly). */
inline constexpr std::size_t kManifestSlotBytes = kManifestAreaBytes / 2;

/** Byte offset of manifest slot @p slot (0 or 1) in the pool root area. */
constexpr std::size_t
manifestSlotOffset(unsigned slot)
{
    return nvm::Pool::kRootAreaSize - kManifestAreaBytes +
           kManifestSlotBytes * slot;
}

/** Which placement policy a store uses. */
enum class PlacementKind : std::uint32_t {
    kHash = 0,
    kRange = 1,
};

/** "hash" / "range". */
const char *placementName(PlacementKind kind);

/** Parse "hash" / "range" (case-sensitive); throws std::invalid_argument. */
PlacementKind placementKindFromString(std::string_view name);

/**
 * A transition in flight, as a manifest's intent records it: shard
 * @p src (a pool id) hands the interval [lo, hi) to @p dst (a pool id),
 * and committing raises the placement version to @p version.
 * @p valueBytes is the store's uniform value-buffer size (0 = values
 * are opaque pointers, not pool memory), which recovery needs to free
 * the buffers of swept orphan keys.
 */
struct MigrationIntent
{
    std::uint64_t version = 0;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint32_t valueBytes = 0;
    std::string lo; ///< first moving key (may be empty: shard 0's head)
    /** One past the last moving key; empty means +infinity (the
     *  interval runs to the end of the last member's range). */
    std::string hi;
};

/**
 * The store manifest: everything recovery needs to rebuild a range
 * store's routing, written whole to every pool the store owns. Two
 * slots per pool alternate (a write never touches the slot holding the
 * pool's newest valid manifest), and a write clears the slot's magic,
 * flushes the payload and writes the magic last — so a torn write
 * leaves a slot without a magic word, which simply loses to the other.
 * A checksum over the payload turns any other damage into a loud
 * recovery failure instead of a silent re-route.
 */
struct Manifest
{
    /** Longest persistable range boundary. */
    static constexpr std::size_t kMaxBoundaryBytes = 40;
    /** Members a slot can name: the most that two slots fit in
     *  kManifestAreaBytes (placement.cc static_asserts that this many
     *  fit and one more would not). */
    static constexpr std::uint32_t kMaxMembers = 44;

    std::uint64_t seq = 0;     ///< write sequence number, store-wide
    std::uint64_t version = 0; ///< placement version
    std::uint32_t poolId = 0;  ///< the id of the pool holding this copy
    std::uint32_t nextPoolId = 0; ///< the id the next added pool takes
    std::vector<std::uint32_t> members;  ///< pool ids in key order
    std::vector<std::string> boundaries; ///< members.size()-1, ascending
    std::optional<MigrationIntent> intent; ///< the transition in flight
};

/**
 * Persist @p manifest into @p pool's slot not holding its newest valid
 * manifest: magic cleared, payload written and flushed, magic last.
 * Throws std::invalid_argument when the manifest cannot be persisted
 * (no members, more than kMaxMembers, a boundary count other than
 * members-1, or a boundary or interval key over kMaxBoundaryBytes).
 */
void writeManifest(nvm::Pool &pool, const Manifest &manifest);

/**
 * The newest valid manifest of @p pool, if it holds one. A slot whose
 * magic matches but whose checksum or fields do not throws
 * std::runtime_error.
 */
std::optional<Manifest> readManifest(const nvm::Pool &pool);

/**
 * Key-to-shard routing policy. Stateless after construction and shared
 * by every thread of a store, so implementations must be safe for
 * concurrent shardOf() calls (const, no mutation).
 */
class Placement
{
  public:
    virtual ~Placement() = default;

    PlacementKind kind() const { return kind_; }
    unsigned shardCount() const { return shards_; }
    const char *name() const { return placementName(kind_); }

    /**
     * True iff shard indices ascend with key ranges: every key owned by
     * shard i compares less than every key owned by shard i+1. A scan
     * over an ordered placement walks shards in index order starting at
     * shardOf(start) and streams callbacks with no gather-merge.
     */
    bool ordered() const { return ordered_; }

    /** Owning shard of @p key; every key maps to exactly one shard. */
    virtual unsigned shardOf(std::string_view key) const = 0;

  protected:
    Placement(PlacementKind kind, unsigned shards, bool ordered)
        : kind_(kind), shards_(shards), ordered_(ordered)
    {
    }

  private:
    const PlacementKind kind_;
    const unsigned shards_;
    const bool ordered_;
};

/**
 * The store's historical routing, extracted: FNV-1a over the key bytes,
 * finalised with mix64, modulo the shard count. route() is the whole
 * policy as a static inline so ShardedStore's point-op hot path can call
 * it without a virtual dispatch.
 */
class HashPlacement final : public Placement
{
  public:
    explicit HashPlacement(unsigned shards)
        : Placement(PlacementKind::kHash, shards, /*ordered=*/false)
    {
    }

    static unsigned
    route(std::string_view key, std::size_t shards)
    {
        std::uint64_t h = 1469598103934665603ULL;
        for (const char c : key) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
        return static_cast<unsigned>(mix64(h) % shards);
    }

    unsigned
    shardOf(std::string_view key) const override
    {
        return route(key, shardCount());
    }
};

/**
 * Ordered key-boundary routing. Constructed from exactly shardCount-1
 * strictly increasing boundaries, each at most
 * Manifest::kMaxBoundaryBytes long (throws std::invalid_argument
 * otherwise). Shard i owns [boundaries[i-1], boundaries[i]), with ""
 * and +inf at the edges.
 */
class RangePlacement final : public Placement
{
  public:
    RangePlacement(unsigned shards, std::vector<std::string> boundaries);

    /** shards-1 boundaries at multiples of 2^64/shards, encoded as
     *  big-endian 8-byte keys — balanced for uniformly drawn u64 keys
     *  (e.g. the YCSB scrambled-key universe). */
    static std::vector<std::string> evenU64Boundaries(unsigned shards);

    /**
     * Derive shards-1 boundaries as evenly spaced order statistics of
     * @p samples (a representative draw of the keys about to be loaded;
     * consumed). Needs enough distinct samples to cut shards-1 strictly
     * increasing boundaries — throws std::invalid_argument otherwise.
     */
    static std::vector<std::string>
    boundariesFromSamples(std::vector<std::string> samples, unsigned shards);

    /** Upper-bound binary search over the boundary table. */
    unsigned
    shardOf(std::string_view key) const override
    {
        unsigned lo = 0, hi = static_cast<unsigned>(boundaries_.size());
        while (lo < hi) {
            const unsigned mid = (lo + hi) / 2;
            if (key < boundaries_[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        return lo; // boundaries_[i-1] <= key < boundaries_[i]  =>  shard i
    }

    /** The boundary table (size shardCount()-1), ascending. */
    const std::vector<std::string> &boundaries() const { return boundaries_; }

    /** Inclusive lower bound of shard @p s's range ("" for shard 0). */
    std::string_view
    lowerBoundOf(unsigned s) const
    {
        return s == 0 ? std::string_view{} : boundaries_[s - 1];
    }

    /**
     * Exclusive upper bound of shard @p s's range. Returns false (and
     * leaves @p out untouched) for the last shard, whose range is
     * unbounded above.
     */
    bool
    upperBoundOf(unsigned s, std::string_view &out) const
    {
        if (s >= boundaries_.size())
            return false;
        out = boundaries_[s];
        return true;
    }

  private:
    std::vector<std::string> boundaries_;
};

/**
 * What recovery found in a set of crashed pools: the routing policy,
 * the committed member set and, when the winning manifest carried one,
 * the transition the crash interrupted. `memberPools[pos]` is the index
 * (into the input vector) of the pool routed at position `pos`;
 * `orphanPools` are input pools outside the committed membership — a
 * crash before an add's commit or after a merge's leaves exactly such
 * pools, and the caller discards them wholesale, buffers and all. The
 * pending intent is only cleanup bookkeeping: the placement is already
 * exactly the old table (commit not durable) or exactly the new one.
 */
struct StoreRecovery
{
    std::unique_ptr<Placement> placement;
    std::uint64_t version = 0;
    std::uint64_t seq = 0; ///< the winning manifest's write sequence
    std::vector<std::size_t> memberPools;
    std::vector<std::uint32_t> memberIds;
    std::vector<std::size_t> orphanPools;
    std::uint32_t nextPoolId = 0;
    std::optional<MigrationIntent> pending;
    bool pendingCommitted = false;
};

/**
 * Re-derive a store's routing from its crashed pools (any order). With
 * no manifest in any pool the store was hash-placed, and the pools are
 * its shards in order. Otherwise the highest-sequence valid manifest
 * across every pool's slots decides: it names the members by pool id
 * (each pool's id comes from its own newest manifest), carries the full
 * boundary table, and its intent counts as committed once its version
 * has been reached. Throws std::runtime_error when a named member is
 * missing, two pools claim one id, or a slot is corrupt.
 */
StoreRecovery
recoverManifest(const std::vector<std::unique_ptr<nvm::Pool>> &pools);

} // namespace incll::store
