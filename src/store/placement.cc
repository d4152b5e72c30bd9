/**
 * @file
 * Placement policies (validation, boundary derivation) and the store
 * manifest: its durable slot layout, writer, reader and recovery.
 */
#include "store/placement.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>

namespace incll::store {

const char *
placementName(PlacementKind kind)
{
    switch (kind) {
    case PlacementKind::kHash:
        return "hash";
    case PlacementKind::kRange:
        return "range";
    }
    return "?";
}

PlacementKind
placementKindFromString(std::string_view name)
{
    if (name == "hash")
        return PlacementKind::kHash;
    if (name == "range")
        return PlacementKind::kRange;
    throw std::invalid_argument("unknown placement policy: " +
                                std::string(name));
}

RangePlacement::RangePlacement(unsigned shards,
                               std::vector<std::string> boundaries)
    : Placement(PlacementKind::kRange, shards, /*ordered=*/true),
      boundaries_(std::move(boundaries))
{
    if (shards == 0)
        throw std::invalid_argument("RangePlacement needs >= 1 shard");
    if (boundaries_.size() != static_cast<std::size_t>(shards) - 1)
        throw std::invalid_argument(
            "RangePlacement needs exactly shards-1 boundaries");
    for (std::size_t i = 0; i < boundaries_.size(); ++i) {
        if (boundaries_[i].size() > Manifest::kMaxBoundaryBytes)
            throw std::invalid_argument(
                "range boundary exceeds Manifest::kMaxBoundaryBytes");
        if (i > 0 && boundaries_[i] <= boundaries_[i - 1])
            throw std::invalid_argument(
                "range boundaries must be strictly increasing");
        if (boundaries_[i].empty())
            throw std::invalid_argument(
                "range boundaries must be non-empty (shard 0 already "
                "starts at the empty key)");
    }
}

std::vector<std::string>
RangePlacement::evenU64Boundaries(unsigned shards)
{
    if (shards == 0)
        throw std::invalid_argument("evenU64Boundaries needs >= 1 shard");
    std::vector<std::string> boundaries;
    boundaries.reserve(shards - 1);
    // 2^64 / shards, rounded up so i * step never wraps for i < shards.
    const std::uint64_t step = ~std::uint64_t{0} / shards + 1;
    for (unsigned i = 1; i < shards; ++i) {
        const std::uint64_t b = step * i;
        char buf[8];
        // Big-endian, so byte comparison matches integer order (the
        // u64Key encoding, re-derived here to keep the store layer off
        // the masstree key header).
        for (int j = 0; j < 8; ++j)
            buf[j] = static_cast<char>(b >> (56 - 8 * j));
        boundaries.emplace_back(buf, 8);
    }
    return boundaries;
}

std::vector<std::string>
RangePlacement::boundariesFromSamples(std::vector<std::string> samples,
                                      unsigned shards)
{
    if (shards == 0)
        throw std::invalid_argument("boundariesFromSamples needs >= 1 shard");
    std::sort(samples.begin(), samples.end());
    std::vector<std::string> boundaries;
    boundaries.reserve(shards - 1);
    for (unsigned i = 1; i < shards; ++i) {
        // The i/shards quantile, nudged right past duplicates and past
        // the previous boundary so the table stays strictly increasing.
        std::size_t at = samples.size() * i / shards;
        while (at < samples.size() &&
               (samples[at].empty() ||
                (!boundaries.empty() && samples[at] <= boundaries.back())))
            ++at;
        if (at >= samples.size())
            throw std::invalid_argument(
                "not enough distinct samples to derive range boundaries");
        boundaries.push_back(samples[at]);
    }
    return boundaries;
}

// ---- the store manifest ------------------------------------------------

namespace {

constexpr std::uint64_t kManifestMagic = 0x1ac1b0c7ab1e0006ULL;

/** A persisted key (a boundary or an interval end). */
struct DurableKey
{
    std::uint32_t len;
    unsigned char bytes[Manifest::kMaxBoundaryBytes];
};

/** One manifest slot as it sits in the root area, for @p N members
 *  (see the byte map in placement.h). */
template <std::uint32_t N>
struct ManifestSlotFor
{
    std::uint64_t magic;
    std::uint64_t checksum;
    std::uint64_t seq;
    std::uint64_t version;
    std::uint32_t poolId;
    std::uint32_t nextPoolId;
    std::uint32_t memberCount;
    std::uint32_t hasIntent;
    std::uint64_t intentVersion;
    std::uint32_t intentSrc;
    std::uint32_t intentDst;
    std::uint32_t intentValueBytes;
    std::uint32_t reserved;
    DurableKey intentLo;
    DurableKey intentHi;
    std::uint32_t memberIds[N];
    DurableKey boundaries[N - 1];
};

using ManifestSlot = ManifestSlotFor<Manifest::kMaxMembers>;

static_assert(2 * sizeof(ManifestSlot) <= kManifestAreaBytes,
              "two manifest slots must fit the manifest area");
static_assert(2 * sizeof(ManifestSlotFor<Manifest::kMaxMembers + 1>) >
                  kManifestAreaBytes,
              "kMaxMembers must be the most two slots can hold");
static_assert(Manifest::kMaxMembers >= 32,
              "the manifest must name at least 32 members");
static_assert(manifestSlotOffset(0) % 64 == 0 &&
                  manifestSlotOffset(1) % 64 == 0,
              "manifest slots start on cache lines");

/** Bytes of a slot naming @p members that are written and checksummed:
 *  everything up to the last used boundary. */
std::size_t
usedBytes(std::uint32_t members)
{
    return offsetof(ManifestSlot, boundaries) +
           sizeof(DurableKey) * (members - 1);
}

/** FNV-1a over bytes [16, used) of @p slot — everything after the
 *  magic and checksum words — finalised with mix64. */
std::uint64_t
checksumOf(const ManifestSlot &slot, std::size_t used)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&slot);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = offsetof(ManifestSlot, seq); i < used; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return mix64(h);
}

void
putKey(DurableKey &out, std::string_view key)
{
    if (key.size() > Manifest::kMaxBoundaryBytes)
        throw std::invalid_argument(
            "manifest key exceeds Manifest::kMaxBoundaryBytes");
    out.len = static_cast<std::uint32_t>(key.size());
    if (!key.empty()) // an empty view's data() may be null
        std::memcpy(out.bytes, key.data(), key.size());
}

std::string
getKey(const DurableKey &in)
{
    return std::string(reinterpret_cast<const char *>(in.bytes), in.len);
}

enum class SlotState { kAbsent, kValid, kCorrupt };

/** Decode slot @p slot of @p pool into @p out (when valid). */
SlotState
readSlot(const nvm::Pool &pool, unsigned slot, Manifest &out)
{
    ManifestSlot rec;
    std::memcpy(&rec,
                static_cast<const char *>(pool.rootArea()) +
                    manifestSlotOffset(slot),
                sizeof(rec));
    if (rec.magic != kManifestMagic)
        return SlotState::kAbsent;
    if (rec.memberCount == 0 || rec.memberCount > Manifest::kMaxMembers ||
        rec.checksum != checksumOf(rec, usedBytes(rec.memberCount)))
        return SlotState::kCorrupt;
    out.seq = rec.seq;
    out.version = rec.version;
    out.poolId = rec.poolId;
    out.nextPoolId = rec.nextPoolId;
    out.members.assign(rec.memberIds, rec.memberIds + rec.memberCount);
    out.boundaries.clear();
    for (std::uint32_t i = 0; i + 1 < rec.memberCount; ++i) {
        if (rec.boundaries[i].len > Manifest::kMaxBoundaryBytes)
            return SlotState::kCorrupt;
        out.boundaries.push_back(getKey(rec.boundaries[i]));
    }
    out.intent.reset();
    if (rec.hasIntent != 0) {
        if (rec.intentLo.len > Manifest::kMaxBoundaryBytes ||
            rec.intentHi.len > Manifest::kMaxBoundaryBytes)
            return SlotState::kCorrupt;
        MigrationIntent &in = out.intent.emplace();
        in.version = rec.intentVersion;
        in.src = rec.intentSrc;
        in.dst = rec.intentDst;
        in.valueBytes = rec.intentValueBytes;
        in.lo = getKey(rec.intentLo);
        in.hi = getKey(rec.intentHi);
    }
    return SlotState::kValid;
}

} // namespace

void
writeManifest(nvm::Pool &pool, const Manifest &m)
{
    const auto count = static_cast<std::uint32_t>(m.members.size());
    if (count == 0 || count > Manifest::kMaxMembers)
        throw std::invalid_argument(
            "manifest member count must be 1..Manifest::kMaxMembers");
    if (m.boundaries.size() != count - 1)
        throw std::invalid_argument(
            "manifest needs exactly members-1 boundaries");
    ManifestSlot rec{};
    rec.seq = m.seq;
    rec.version = m.version;
    rec.poolId = m.poolId;
    rec.nextPoolId = m.nextPoolId;
    rec.memberCount = count;
    std::copy(m.members.begin(), m.members.end(), rec.memberIds);
    for (std::uint32_t i = 0; i + 1 < count; ++i)
        putKey(rec.boundaries[i], m.boundaries[i]);
    if (m.intent) {
        rec.hasIntent = 1;
        rec.intentVersion = m.intent->version;
        rec.intentSrc = m.intent->src;
        rec.intentDst = m.intent->dst;
        rec.intentValueBytes = m.intent->valueBytes;
        putKey(rec.intentLo, m.intent->lo);
        putKey(rec.intentHi, m.intent->hi);
    }
    const std::size_t used = usedBytes(count);
    rec.checksum = checksumOf(rec, used);

    // Never the slot holding this pool's newest valid manifest: it stays
    // intact however this write tears.
    Manifest cur[2];
    const bool valid0 = readSlot(pool, 0, cur[0]) == SlotState::kValid;
    const bool valid1 = readSlot(pool, 1, cur[1]) == SlotState::kValid;
    const unsigned target =
        valid0 && (!valid1 || cur[0].seq > cur[1].seq) ? 1 : 0;

    // Magic cleared first, then the payload, then the magic: flushRange
    // is synchronous, so a durable magic implies a durable payload and a
    // crash anywhere in between leaves a slot without a magic word.
    char *dst = static_cast<char *>(pool.rootArea()) + manifestSlotOffset(target);
    auto &magic = *reinterpret_cast<std::uint64_t *>(dst);
    nvm::pstore(magic, std::uint64_t{0});
    pool.flushRange(dst, sizeof(magic));
    nvm::pmemcpy(dst + sizeof(magic),
                 reinterpret_cast<const char *>(&rec) + sizeof(magic),
                 used - sizeof(magic));
    pool.flushRange(dst, used);
    nvm::pstore(magic, kManifestMagic);
    pool.flushRange(dst, sizeof(magic));
}

std::optional<Manifest>
readManifest(const nvm::Pool &pool)
{
    Manifest slot[2];
    bool valid[2];
    for (unsigned s = 0; s < 2; ++s) {
        const SlotState st = readSlot(pool, s, slot[s]);
        if (st == SlotState::kCorrupt)
            throw std::runtime_error(
                "corrupt store manifest (magic matches, checksum or "
                "fields do not)");
        valid[s] = st == SlotState::kValid;
    }
    if (!valid[0] && !valid[1])
        return std::nullopt;
    if (valid[0] && valid[1])
        return std::move(slot[slot[0].seq >= slot[1].seq ? 0 : 1]);
    return std::move(slot[valid[0] ? 0 : 1]);
}

StoreRecovery
recoverManifest(const std::vector<std::unique_ptr<nvm::Pool>> &pools)
{
    StoreRecovery result;
    std::vector<std::optional<Manifest>> own(pools.size());
    const Manifest *winning = nullptr;
    for (std::size_t i = 0; i < pools.size(); ++i) {
        own[i] = readManifest(*pools[i]);
        if (own[i] && (winning == nullptr || own[i]->seq > winning->seq))
            winning = &*own[i];
    }

    if (winning == nullptr) {
        // No pool holds a manifest: a hash-placed store, whose pools are
        // its shards in order.
        result.placement = std::make_unique<HashPlacement>(
            static_cast<unsigned>(pools.size()));
        for (std::size_t i = 0; i < pools.size(); ++i) {
            result.memberPools.push_back(i);
            result.memberIds.push_back(static_cast<std::uint32_t>(i));
        }
        result.nextPoolId = static_cast<std::uint32_t>(pools.size());
        return result;
    }

    // A pool's identity is its own newest manifest's poolId. A pool with
    // no manifest at all can only be a mid-add casualty (crashed before
    // its first manifest write): an orphan, never a member.
    result.version = winning->version;
    result.seq = winning->seq;
    result.nextPoolId = winning->nextPoolId;
    for (std::size_t i = 0; i < pools.size(); ++i) {
        if (!own[i])
            continue;
        result.nextPoolId = std::max(result.nextPoolId, own[i]->poolId + 1);
        for (std::size_t j = 0; j < i; ++j)
            if (own[j] && own[j]->poolId == own[i]->poolId)
                throw std::runtime_error(
                    "duplicate pool id across pools; these are not one "
                    "store's shards");
    }
    for (const std::uint32_t id : winning->members) {
        std::size_t i = 0;
        while (i < pools.size() && !(own[i] && own[i]->poolId == id))
            ++i;
        if (i == pools.size())
            throw std::runtime_error("store manifest names pool id " +
                                     std::to_string(id) +
                                     " but no such pool was supplied");
        result.memberPools.push_back(i);
        result.memberIds.push_back(id);
    }
    for (std::size_t i = 0; i < pools.size(); ++i)
        if (std::find(result.memberPools.begin(), result.memberPools.end(),
                      i) == result.memberPools.end())
            result.orphanPools.push_back(i);

    result.placement = std::make_unique<RangePlacement>(
        static_cast<unsigned>(winning->members.size()),
        winning->boundaries);
    if (winning->intent) {
        result.pending = winning->intent;
        result.pendingCommitted =
            winning->version >= winning->intent->version;
    }
    return result;
}

} // namespace incll::store
