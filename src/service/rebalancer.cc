/**
 * @file
 * Rebalancer implementation: skew detection, median sampling, and the
 * background scheduling loop.
 */
#include "service/rebalancer.h"

#include <algorithm>
#include <limits>

namespace incll::service {

Rebalancer::Rebalancer(store::ShardedStore &store, Options options,
                       EpochService *epochs)
    : store_(store), options_(options), epochs_(epochs)
{
    if (!store_.hotnessTracking())
        throw std::invalid_argument(
            "Rebalancer needs a store with config.trackHotness enabled");
}

Rebalancer::~Rebalancer()
{
    stop();
}

void
Rebalancer::start()
{
    std::lock_guard lk(mu_);
    if (running_.load(std::memory_order_relaxed))
        return;
    stopFlag_ = false;
    running_.store(true, std::memory_order_release);
    thread_ = std::thread([this] {
        std::unique_lock lk(mu_);
        while (!stopFlag_) {
            if (stopCv_.wait_for(lk, options_.interval,
                                 [this] { return stopFlag_; }))
                break;
            lk.unlock();
            rebalanceOnce();
            // Decay after every pass: the counters measure recent load,
            // so a hotspot that moved on stops looking hot within a
            // few periods.
            for (unsigned s = 0; s < store_.shardCount(); ++s)
                store_.hotness(s).decayHalf();
            lk.lock();
        }
    });
}

void
Rebalancer::stop()
{
    {
        std::lock_guard lk(mu_);
        if (!running_.load(std::memory_order_relaxed) && !thread_.joinable())
            return;
        stopFlag_ = true;
        stopCv_.notify_all();
    }
    if (thread_.joinable())
        thread_.join();
    running_.store(false, std::memory_order_release);
}

int
Rebalancer::detectHotShard(std::vector<std::uint64_t> &opsOut) const
{
    const unsigned n = store_.shardCount();
    opsOut.resize(n);
    std::uint64_t total = 0;
    for (unsigned s = 0; s < n; ++s) {
        opsOut[s] = store_.hotness(s).ops.load(std::memory_order_relaxed);
        total += opsOut[s];
    }
    const unsigned hot = static_cast<unsigned>(
        std::max_element(opsOut.begin(), opsOut.end()) - opsOut.begin());
    if (opsOut[hot] < options_.minShardOps)
        return -1;
    const double mean = static_cast<double>(total) / n;
    if (static_cast<double>(opsOut[hot]) < options_.skewFactor * mean)
        return -1;
    return static_cast<int>(hot);
}

std::string
Rebalancer::sampleSplitKey(unsigned shard) const
{
    // The shard's owned range under the current table; the clip matters
    // because the tree can transiently hold keys outside it (a prior
    // migration's window) and sampling those would skew the median.
    const auto &pl = store_.placement();
    if (pl.kind() != store::PlacementKind::kRange)
        return {};
    const auto &rp = static_cast<const store::RangePlacement &>(pl);
    const std::string lower{rp.lowerBoundOf(shard)};
    std::string_view upper;
    const bool hasUpper = rp.upperBoundOf(shard, upper);

    // One pass, bounded memory: keep every stride-th key, and when the
    // sample buffer fills, drop every other sample and double the
    // stride — evenly spaced order statistics without knowing the
    // shard's size up front. One scan instead of a count pass plus a
    // sample pass matters here: this scan holds the *hot* shard's gate
    // in shared mode, delaying exactly the boundaries already under
    // pressure.
    auto &tree = store_.shard(shard).tree();
    const std::size_t cap =
        2 * std::max<std::size_t>(options_.sampleKeys, 2);
    std::vector<std::string> samples;
    samples.reserve(cap);
    std::size_t stride = 1, i = 0;
    tree.scan(lower, SIZE_MAX, [&](std::string_view k, void *) {
        if (hasUpper && k >= upper)
            return false;
        if (i++ % stride == 0) {
            samples.emplace_back(k);
            if (samples.size() == cap) {
                std::size_t w = 0;
                for (std::size_t r = 0; r < samples.size(); r += 2)
                    samples[w++] = std::move(samples[r]);
                samples.resize(w);
                stride *= 2;
            }
        }
        return true;
    });
    if (samples.size() < 2)
        return {};
    std::string split = samples[samples.size() / 2];
    // The split must be strictly inside (lower, upper) and persistable.
    if (split <= lower || (hasUpper && std::string_view(split) >= upper) ||
        split.size() > store::Manifest::kMaxBoundaryBytes)
        return {};
    return split;
}

store::MoveOptions
Rebalancer::moveOptions() const
{
    store::MoveOptions mo;
    mo.valueBytes = options_.valueBytes;
    mo.chunkKeys = options_.chunkKeys;
    if (epochs_ != nullptr)
        mo.advanceShard = [this](unsigned s) {
            epochs_->advanceShardAndWait(s);
        };
    return mo;
}

std::uint64_t
Rebalancer::retireUnrouted()
{
    std::uint64_t retired = 0;
    for (const std::uint32_t id : store_.unroutedPoolIds()) {
        try {
            if (store_.retireShard(id).retired)
                ++retired;
        } catch (const std::exception &) {
            break; // a migration raced in; retry next pass
        }
    }
    if (retired != 0) {
        std::lock_guard lk(mu_);
        counters_.retires += retired;
    }
    return retired;
}

std::uint64_t
Rebalancer::projectedMergeBytes(unsigned shard, std::uint64_t cap) const
{
    constexpr auto kTooBig = std::numeric_limits<std::uint64_t>::max();
    const auto &pl = store_.placement();
    if (pl.kind() != store::PlacementKind::kRange)
        return kTooBig;
    const auto &rp = static_cast<const store::RangePlacement &>(pl);
    const std::string lower{rp.lowerBoundOf(shard)};
    std::string_view upper;
    const bool hasUpper = rp.upperBoundOf(shard, upper);
    std::uint64_t bytes = 0;
    store_.shard(shard).tree().scan(
        lower, SIZE_MAX, [&](std::string_view k, void *) {
            if (hasUpper && k >= upper)
                return false;
            bytes += k.size() + options_.valueBytes;
            return bytes <= cap; // abort the moment the cap is crossed
        });
    return bytes > cap ? kTooBig : bytes;
}

bool
Rebalancer::elasticOnce(const std::vector<std::uint64_t> &ops, int hot)
{
    const unsigned n = store_.shardCount();
    if (n != ops.size() || n < 2)
        return false; // topology changed under the detection pass
    if (hot >= 0) {
        // A hot shard whose neighbours are too loaded to absorb a
        // move: sloshing keys between two loaded shards wins nothing,
        // but splitting the hot range into a brand-new member halves
        // its load at the same copy cost the move would have paid.
        if (n >= std::min<unsigned>(options_.maxShards,
                                    store::Manifest::kMaxMembers))
            return false;
        const std::string split = sampleSplitKey(static_cast<unsigned>(hot));
        if (split.empty())
            return false;
        try {
            const store::MoveResult res = store_.addShard(
                static_cast<unsigned>(hot), split, moveOptions());
            if (!res.completed)
                return false;
            store_.hotness(static_cast<unsigned>(hot)).reset();
            store_.hotness(static_cast<unsigned>(hot) + 1).reset();
            std::lock_guard lk(mu_);
            ++counters_.adds;
            counters_.keysMoved += res.keysMoved;
            counters_.lastVersion = res.version;
            return true;
        } catch (const std::exception &) {
            return false; // raced a manual migration / not governable
        }
    }
    // Balanced load: look for a shard cold enough that keeping its
    // whole pool + epoch machinery alive is the waste. The cost model
    // weighs projected migration bytes (what the merge must stream)
    // against the decayed-hotness win (a near-idle member the store
    // stops paying boundaries and memory for); an idle *store* is left
    // alone — with no load there is no imbalance to fix.
    std::uint64_t total = 0;
    for (const std::uint64_t o : ops)
        total += o;
    if (total == 0)
        return false;
    const double mean = static_cast<double>(total) / n;
    int cold = -1;
    for (unsigned s = 0; s < n; ++s)
        if (ops[s] < options_.coldShardOps &&
            (cold < 0 || ops[s] < ops[static_cast<unsigned>(cold)]))
            cold = static_cast<int>(s);
    if (cold < 0)
        return false;
    const auto c = static_cast<unsigned>(cold);
    unsigned dst;
    if (c == 0)
        dst = 1;
    else if (c == n - 1)
        dst = c - 1;
    else
        dst = ops[c - 1] <= ops[c + 1] ? c - 1 : c + 1;
    // The absorbing neighbour must not become the next hot shard: its
    // load plus everything the cold member still carries has to stay
    // under the detection threshold, or the merge just manufactures the
    // skew the next pass would try to undo.
    if (static_cast<double>(ops[dst] + ops[c]) >=
        options_.skewFactor * mean)
        return false;
    if (projectedMergeBytes(c, options_.mergeMaxBytes) >
        options_.mergeMaxBytes)
        return false; // copy cost outweighs retiring a cold shard
    try {
        const store::MoveResult res =
            store_.mergeBoundary(c, dst, moveOptions());
        if (!res.completed)
            return false;
        store_.hotness(dst > c ? dst - 1 : dst).reset();
        {
            std::lock_guard lk(mu_);
            ++counters_.merges;
            counters_.keysMoved += res.keysMoved;
            counters_.lastVersion = res.version;
        }
        retireUnrouted(); // the emptied shard is drained: free it now
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

bool
Rebalancer::rebalanceOnce()
{
    {
        std::lock_guard lk(mu_);
        ++counters_.ticks;
    }
    if (store_.placement().kind() != store::PlacementKind::kRange ||
        store_.migrationInProgress())
        return false;
    // Leftovers first: a merge in a previous pass (or a crash-recovered
    // orphan an operator merged manually) leaves an unrouted shard
    // behind, and retiring it is pure win — no copy, just teardown.
    if (options_.elastic)
        retireUnrouted();
    if (store_.shardCount() < 2)
        return false;

    std::vector<std::uint64_t> ops;
    const int hotSigned = detectHotShard(ops);
    if (hotSigned < 0)
        return options_.elastic && elasticOnce(ops, -1);
    const auto hot = static_cast<unsigned>(hotSigned);

    // Cooler adjacent neighbour: ordering constrains a move to the
    // shards bordering the hot one, so pick whichever carries less.
    unsigned dst;
    if (hot == 0)
        dst = 1;
    else if (hot == store_.shardCount() - 1)
        dst = hot - 1;
    else
        dst = ops[hot - 1] <= ops[hot + 1] ? hot - 1 : hot + 1;
    if (ops[dst] > ops[hot] / 2)
        // Neighbour nearly as hot: a move only sloshes load. The
        // elastic answer is to grow the member set instead.
        return options_.elastic && elasticOnce(ops, hotSigned);

    const std::string split = sampleSplitKey(hot);
    if (split.empty())
        return false;

    const store::MoveResult res =
        store_.moveBoundary(hot, dst, split, moveOptions());
    if (!res.completed)
        return false;

    // The load just moved: let detection re-learn from scratch.
    store_.hotness(hot).reset();
    store_.hotness(dst).reset();
    {
        std::lock_guard lk(mu_);
        ++counters_.migrations;
        counters_.keysMoved += res.keysMoved;
        counters_.lastVersion = res.version;
    }
    return true;
}

Rebalancer::Counters
Rebalancer::counters() const
{
    std::lock_guard lk(mu_);
    return counters_;
}

} // namespace incll::service
