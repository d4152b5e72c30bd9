/**
 * @file
 * The Masstree ordered index: a trie of B+-trees over 8-byte key slices
 * (Mao et al., EuroSys'12), parameterised by a persistence configuration
 * (config.h). Durable configurations get crash consistency from the
 * combination of fine-grain checkpointing epochs, In-Cache-Line Logs in
 * the leaves, and the external undo log for complex operations, exactly
 * as described in the paper.
 *
 * Concurrency: writers use per-node locking with hand-over-hand right
 * moves; readers are optimistic (version snapshot + validation) and
 * never block except while a node is actively being restructured.
 * Structure changes use the B-link discipline — every node carries its
 * lower bound and a right-sibling pointer, so a descent through a stale
 * interior can always recover by moving right. This is a simplification
 * of upstream Masstree's full OCC protocol that preserves the node
 * layout and all logging behaviour the paper depends on (DESIGN.md).
 */
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "masstree/config.h"
#include "masstree/context.h"
#include "masstree/leaf.h"
#include "masstree/node.h"

namespace incll::mt {

template <typename Config>
class Tree
{
  public:
    using Ctx = ContextOf<Config>;
    using LeafT = Leaf<Config::kDurable, Config::kWidth>;
    static constexpr int kWidth = Config::kWidth;
    static constexpr int kMaxDepth = 24;

    Tree() = default;
    Tree(const Tree &) = delete;
    Tree &operator=(const Tree &) = delete;

    /**
     * Initialise a brand-new tree: @p layer0 becomes the root record of
     * the first trie layer, seeded with one empty border node.
     */
    void
    init(Ctx *ctx, LayerRoot *layer0)
    {
        ctx_ = ctx;
        layer0_ = layer0;
        LeafT *root = newLeaf(0);
        updateLayerRoot(layer0_, root);
    }

    /** Re-attach to an existing tree after a restart (durable only). */
    void
    attach(Ctx *ctx, LayerRoot *layer0)
    {
        ctx_ = ctx;
        layer0_ = layer0;
    }

    /**
     * Return every node, sub-layer root record, and key suffix to the
     * allocator. Teardown path for the transient configurations (the
     * durable tree's memory belongs to the pool and is reclaimed
     * wholesale); requires quiescence — no concurrent operations. The
     * tree is unusable afterwards until init() runs again. The layer-0
     * record itself is owned by the caller and is left in place.
     */
    void
    destroy()
    {
        destroy([](void *) {});
    }

    /**
     * destroy(), additionally invoking @p disposeValue on every live
     * value pointer so callers that stored allocator-owned buffers
     * (e.g. the YCSB driver's value blocks) can reclaim them in the
     * same walk.
     */
    template <typename F>
    void
    destroy(F &&disposeValue)
    {
        if (ctx_ == nullptr || layer0_ == nullptr)
            return;
        destroySubtree(layer0_->root.load(std::memory_order_relaxed),
                       disposeValue);
        layer0_->root.store(nullptr, std::memory_order_relaxed);
        layer0_ = nullptr;
    }

    Ctx &context() { return *ctx_; }
    LayerRoot *layer0() { return layer0_; }

    /**
     * Look up @p key. Returns true and stores the value pointer in
     * @p out on a hit. Lock-free (optimistic) on the read path.
     */
    bool
    get(std::string_view key, void *&out)
    {
        [[maybe_unused]] auto gate = opGuard();
        Key k(key);
        LayerRoot *lr = layer0_;
        while (true) {
            recoverLayerRoot(lr);
            const std::uint64_t slice = k.slice();
            LeafT *leaf = findLeaf(lr, slice, nullptr);
            if (leaf == nullptr)
                return false;
            const std::uint8_t want = k.lengthIndicator();
            while (true) {
                maybeRecoverLeaf(leaf);
                const std::uint32_t v = leaf->version().stable();
                LeafT *nx = leaf->next();
                if (nx != nullptr && slice >= nx->lowkey()) {
                    leaf = nx;
                    continue;
                }
                // Search the sorted ranks for (slice, length class).
                const Permuter p = leaf->permutation();
                void *val = nullptr;
                char *suffix = nullptr;
                int outcome = 0; // 0 miss, 1 hit, 2 layer, 3 hit-suffix
                for (int r = 0; r < p.size(); ++r) {
                    const int s = p.slotOfRank(r);
                    const std::uint64_t ks = leaf->keyAt(s);
                    if (ks < slice)
                        continue;
                    if (ks > slice)
                        break;
                    const std::uint8_t kl = leaf->keylenAt(s);
                    if (want <= 8) {
                        if (kl == want) {
                            val = leaf->valAt(s);
                            outcome = 1;
                            break;
                        }
                    } else if (kl == kLenHasSuffix) {
                        suffix = leaf->ksufAt(s);
                        val = leaf->valAt(s);
                        outcome = 3;
                        break;
                    } else if (kl == kLenLayer) {
                        val = leaf->valAt(s);
                        outcome = 2;
                        break;
                    }
                }
                if (leaf->version().hasChanged(v))
                    continue; // re-snapshot this leaf
                switch (outcome) {
                  case 0:
                    return false;
                  case 1:
                    out = val;
                    return true;
                  case 3:
                    if (suffixMatches(suffix, k.suffix())) {
                        out = val;
                        return true;
                    }
                    return false;
                  case 2:
                    lr = static_cast<LayerRoot *>(val);
                    k.shift();
                    goto nextLayer;
                }
              nextLayer:
                break;
            }
        }
    }

    /**
     * Insert or update @p key -> @p val.
     *
     * @param oldOut receives the previous value pointer on an update.
     * @return true if a new key was inserted, false if an existing key
     *         was updated.
     */
    bool
    put(std::string_view key, void *val, void **oldOut = nullptr)
    {
        [[maybe_unused]] auto gate = opGuard();
        Key k(key);
        LayerRoot *lr = layer0_;
        while (true) {
            recoverLayerRoot(lr);
            LayerRoot *descend = nullptr;
            PutResult r = putAtLayer(lr, k, val, oldOut, &descend);
            if (r == PutResult::kInserted)
                return true;
            if (r == PutResult::kUpdated)
                return false;
            if (r == PutResult::kDescend) {
                lr = descend;
                k.shift();
                continue;
            }
            // kRetry: a split interfered; run the layer again.
        }
    }

    /**
     * Remove @p key. @p oldOut receives the removed value pointer.
     * @return true if the key existed.
     */
    bool
    remove(std::string_view key, void **oldOut = nullptr)
    {
        [[maybe_unused]] auto gate = opGuard();
        Key k(key);
        LayerRoot *lr = layer0_;
        while (true) {
            recoverLayerRoot(lr);
            const std::uint64_t slice = k.slice();
            LeafT *leaf = lockedLeafFor(lr, slice, nullptr);
            if (leaf == nullptr)
                return false;
            const std::uint8_t want = k.lengthIndicator();
            Permuter p = leaf->permutation();
            for (int r = 0; r < p.size(); ++r) {
                const int s = p.slotOfRank(r);
                const std::uint64_t ks = leaf->keyAt(s);
                if (ks < slice)
                    continue;
                if (ks > slice)
                    break;
                const std::uint8_t kl = leaf->keylenAt(s);
                const bool inlineHit = want <= 8 && kl == want;
                const bool suffixHit =
                    want > 8 && kl == kLenHasSuffix &&
                    suffixMatches(leaf->ksufAt(s), k.suffix());
                if (inlineHit || suffixHit) {
                    if (oldOut != nullptr)
                        *oldOut = leaf->valAt(s);
                    leaf->inCllForRemove(*ctx_);
                    leaf->version().markInserting();
                    p.removeAt(r);
                    leaf->publishPermutation(p);
                    if (suffixHit)
                        freeSuffix(leaf->ksufAt(s));
                    leaf->version().unlock();
                    return true;
                }
                if (want > 8 && kl == kLenLayer) {
                    auto *sub = static_cast<LayerRoot *>(leaf->valAt(s));
                    leaf->version().unlock();
                    lr = sub;
                    k.shift();
                    goto nextLayer;
                }
            }
            leaf->version().unlock();
            return false;
          nextLayer:
            continue;
        }
    }

    /**
     * In-order scan: visit up to @p limit keys >= @p start, invoking
     * @p cb(fullKey, value). Returns the number of keys visited. The
     * snapshot is per-leaf (read committed), as in Masstree. @p fullKey
     * views a buffer the scan reuses, so it is valid only during its
     * call.
     *
     * @p cb may return void (visit until the limit) or bool: returning
     * false stops the scan immediately, and the key it was invoked with
     * is *not* counted as visited. The bool form is what lets a caller
     * cut a scan off at an upper key bound — the store layer clips each
     * shard's contribution to the key range the shard owns, which is
     * how range-partitioned scans stay duplicate-free while a key-move
     * migration leaves copies of moved keys in two shards' trees.
     */
    template <typename F>
    std::size_t
    scan(std::string_view start, std::size_t limit, F &&cb)
    {
        [[maybe_unused]] auto gate = opGuard();
        std::string prefix;
        std::size_t emitted = 0;
        bool stop = false;
        scanLayer(layer0_, prefix, start, limit, emitted, stop, cb);
        return emitted;
    }

    /** Count all keys (test helper; full traversal). */
    std::size_t
    size()
    {
        std::size_t n = 0;
        scan({}, SIZE_MAX, [&n](std::string_view, void *) { ++n; });
        return n;
    }

  private:
    enum class PutResult { kInserted, kUpdated, kDescend, kRetry };

    // ---- gate ----------------------------------------------------------

    struct NoGuard
    {
    };

    auto
    opGuard()
    {
        if constexpr (Config::kDurable)
            return EpochGate::Guard(ctx_->epochs->gate());
        else
            return NoGuard{};
    }

    // ---- teardown ------------------------------------------------------

    template <typename F>
    void
    destroySubtree(NodeBase *node, F &&disposeValue)
    {
        if (node == nullptr)
            return;
        if (!node->isBorder()) {
            auto *in = static_cast<Interior *>(node);
            const int n = static_cast<int>(in->nkeys());
            for (int i = 0; i <= n; ++i)
                destroySubtree(in->childAt(i), disposeValue);
            in->~Interior();
            ctx_->freeBytes(in, sizeof(Interior));
            return;
        }
        auto *leaf = static_cast<LeafT *>(node);
        const Permuter p = leaf->permutation();
        for (int r = 0; r < p.size(); ++r) {
            const int s = p.slotOfRank(r);
            const std::uint8_t kl = leaf->keylenAt(s);
            if (kl == kLenLayer) {
                auto *lr = static_cast<LayerRoot *>(leaf->valAt(s));
                destroySubtree(lr->root.load(std::memory_order_relaxed),
                               disposeValue);
                lr->~LayerRoot();
                ctx_->freeNodeBytes(lr, sizeof(LayerRoot));
            } else {
                if (kl == kLenHasSuffix)
                    freeSuffix(leaf->ksufAt(s));
                disposeValue(leaf->valAt(s));
            }
        }
        if (leaf->hasKsufBlock())
            ctx_->freeBytes(leaf->ksufBlock(), sizeof(char *) * kWidth);
        leaf->~LeafT();
        ctx_->freeNodeBytes(leaf, sizeof(LeafT));
    }

    // ---- allocation ----------------------------------------------------

    LeafT *
    newLeaf(std::uint64_t lowkey)
    {
        void *mem = ctx_->allocNodeBytes(sizeof(LeafT));
        if constexpr (Config::kDurable) {
            assert(reinterpret_cast<std::uintptr_t>(mem) %
                       kCacheLineSize ==
                   0);
        }
        auto *leaf = new (mem) LeafT();
        leaf->publishPermutation(Permuter::makeEmpty(kWidth));
        leaf->setLowkey(lowkey);
        if constexpr (Config::kDurable) {
            // Fresh nodes need no undo this epoch: a rollback simply
            // returns them to the allocator (EBR argument, §5).
            leaf->setNodeEpochWord(ctx_->writeEpoch(), true, true);
        }
        nvm::trackStore(leaf, sizeof(LeafT));
        return leaf;
    }

    Interior *
    newInterior()
    {
        void *mem = ctx_->allocBytes(sizeof(Interior));
        auto *node = new (mem) Interior();
        if constexpr (Config::kDurable) {
            node->setRecEpoch(ctx_->firstExecEpoch());
            // Fresh interior: exempt from external logging this epoch.
            node->markFreshLogged(ctx_->writeEpoch());
        }
        nvm::trackStore(node, sizeof(Interior));
        return node;
    }

    LayerRoot *
    newLayerRoot(NodeBase *root)
    {
        void *mem = ctx_->allocNodeBytes(sizeof(LayerRoot));
        auto *lr = new (mem) LayerRoot();
        lr->root.store(root, std::memory_order_relaxed);
        lr->rootInCLL = nullptr;
        if constexpr (Config::kDurable) {
            // Rollback of the creating epoch restores a null root; the
            // record itself is reclaimed by the allocator rollback.
            lr->epoch = ctx_->writeEpoch();
        }
        nvm::trackStore(lr, sizeof(LayerRoot));
        return lr;
    }

    char *
    newSuffix(std::string_view s)
    {
        char *buf = static_cast<char *>(ctx_->allocBytes(s.size() + 4));
        const auto len = static_cast<std::uint32_t>(s.size());
        nvm::pmemcpy(buf, &len, 4);
        nvm::pmemcpy(buf + 4, s.data(), s.size());
        return buf;
    }

    void
    freeSuffix(char *buf)
    {
        if (buf == nullptr)
            return;
        std::uint32_t len;
        std::memcpy(&len, buf, 4);
        ctx_->freeBytes(buf, len + 4);
    }

    static bool
    suffixMatches(const char *buf, std::string_view want)
    {
        if (buf == nullptr)
            return false;
        std::uint32_t len;
        std::memcpy(&len, buf, 4);
        return std::string_view(buf + 4, len) == want;
    }

    // ---- recovery shims -------------------------------------------------

    void
    recoverLayerRoot(LayerRoot *lr)
    {
        if constexpr (Config::kDurable)
            lr->maybeRecover(*ctx_);
    }

    void
    maybeRecoverLeaf(LeafT *leaf)
    {
        if constexpr (Config::kDurable)
            leaf->maybeRecover(*ctx_);
    }

    void
    maybeRecoverInterior(Interior *node)
    {
        if constexpr (Config::kDurable)
            node->maybeRecover(*ctx_);
    }

    void
    updateLayerRoot(LayerRoot *lr, NodeBase *newRoot)
    {
        if constexpr (Config::kDurable)
            lr->updateDurable(*ctx_, newRoot);
        else
            lr->updateTransient(newRoot);
    }

    // ---- prefetch ----------------------------------------------------------

    /**
     * Prefetch every cache line of the @p bytes at @p p and no line past
     * them (upstream Masstree's memory-level parallelism). A hint on a
     * pointer read under a version snapshot: it never dereferences and
     * never faults, so a stale or torn pointer costs at most a wasted
     * line fetch.
     */
    static INCLL_INLINE void
    prefetchLines(const void *p, std::size_t bytes)
    {
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        for (std::uintptr_t line = cacheLineBase(at); line < at + bytes;
             line += kCacheLineSize)
            __builtin_prefetch(reinterpret_cast<const void *>(line));
    }

    // A node reached through a child or root pointer is an Interior or
    // a LeafT, and its type sits behind the very miss the prefetch
    // hides. Prefetching sizeof(Interior) bytes covers exactly the lines
    // of either: a transient leaf is the same size, and a durable leaf
    // is line-aligned, so its 320 bytes span the same lines as any 296
    // bytes from its start.
    static_assert(Config::kDurable
                      ? alignof(LeafT) == kCacheLineSize &&
                            sizeof(LeafT) - kCacheLineSize <
                                sizeof(Interior) &&
                            sizeof(Interior) <= sizeof(LeafT)
                      : sizeof(LeafT) == sizeof(Interior),
                  "prefetchNode must cover exactly one node's lines");

    static INCLL_INLINE void
    prefetchNode(const NodeBase *n)
    {
        prefetchLines(n, sizeof(Interior));
    }

    // ---- descent ---------------------------------------------------------

    /**
     * Find the border node for @p slice, optionally recording the
     * interior chain in @p stack (returns depth via @p depthOut). Every
     * node it is about to visit — the layer root, each child as soon as
     * its pointer is read, each right-move target — is prefetched whole,
     * so a level's lines arrive together rather than one miss at a time.
     */
    LeafT *
    findLeaf(LayerRoot *lr, std::uint64_t slice, Interior **stack,
             int *depthOut = nullptr)
    {
        NodeBase *n = lr->root.load(std::memory_order_acquire);
        prefetchNode(n);
        int depth = 0;
        while (n != nullptr && !n->isBorder()) {
            auto *in = static_cast<Interior *>(n);
            maybeRecoverInterior(in);
            const std::uint32_t v = in->version().stable();
            Interior *nx = in->next();
            if (nx != nullptr && slice >= nx->lowkey()) {
                prefetchNode(nx);
                n = nx;
                continue;
            }
            NodeBase *child = in->childFor(slice);
            prefetchNode(child);
            if (in->version().hasChanged(v))
                continue; // inconsistent snapshot; re-read this node
            if (stack != nullptr && depth < kMaxDepth)
                stack[depth] = in;
            ++depth;
            n = child;
        }
        if (depthOut != nullptr)
            *depthOut = depth;
        return static_cast<LeafT *>(n);
    }

    /**
     * Descend and return the leaf owning @p slice, locked, after
     * hand-over-hand right moves and lazy recovery.
     */
    LeafT *
    lockedLeafFor(LayerRoot *lr, std::uint64_t slice, Interior **stack,
                  int *depthOut = nullptr)
    {
        LeafT *leaf = findLeaf(lr, slice, stack, depthOut);
        if (leaf == nullptr)
            return nullptr;
        maybeRecoverLeaf(leaf);
        leaf->version().lock();
        while (true) {
            LeafT *nx = leaf->next();
            if (nx == nullptr || slice < nx->lowkey())
                return leaf;
            maybeRecoverLeaf(nx);
            nx->version().lock();
            leaf->version().unlock();
            leaf = nx;
        }
    }

    // ---- put -------------------------------------------------------------

    PutResult
    putAtLayer(LayerRoot *lr, const Key &k, void *val, void **oldOut,
               LayerRoot **descendOut)
    {
        const std::uint64_t slice = k.slice();
        const std::uint8_t want = k.lengthIndicator();
        Interior *stack[kMaxDepth];
        int depth = 0;
        LeafT *leaf = lockedLeafFor(lr, slice, stack, &depth);
        if (leaf == nullptr) {
            // Only reachable for a rolled-back root (layer 0, first
            // epoch); rebuild an empty root and retry.
            installEmptyRoot(lr);
            return PutResult::kRetry;
        }

        // Search the slice run.
        Permuter p = leaf->permutation();
        int insertRank = p.size();
        for (int r = 0; r < p.size(); ++r) {
            const int s = p.slotOfRank(r);
            const std::uint64_t ks = leaf->keyAt(s);
            if (ks < slice)
                continue;
            if (ks > slice) {
                insertRank = r;
                break;
            }
            const std::uint8_t kl = leaf->keylenAt(s);
            if (want <= 8) {
                if (kl == want) {
                    // Exact hit: in-place value update (Listing 3).
                    if (oldOut != nullptr)
                        *oldOut = leaf->valAt(s);
                    leaf->inCllForUpdate(*ctx_, s);
                    leaf->setVal(s, val);
                    leaf->version().unlock();
                    return PutResult::kUpdated;
                }
                if (rankLen(kl) > want) {
                    insertRank = r;
                    break;
                }
                insertRank = r + 1;
                continue;
            }
            // want == kLenHasSuffix
            if (kl == kLenLayer) {
                *descendOut = static_cast<LayerRoot *>(leaf->valAt(s));
                leaf->version().unlock();
                return PutResult::kDescend;
            }
            if (kl == kLenHasSuffix) {
                if (suffixMatches(leaf->ksufAt(s), k.suffix())) {
                    if (oldOut != nullptr)
                        *oldOut = leaf->valAt(s);
                    leaf->inCllForUpdate(*ctx_, s);
                    leaf->setVal(s, val);
                    leaf->version().unlock();
                    return PutResult::kUpdated;
                }
                // Same slice, different suffix: grow a new trie layer
                // (complex operation -> external log; paper §4.2).
                convertToLayer(leaf, s, k, val);
                leaf->version().unlock();
                return PutResult::kInserted;
            }
            insertRank = r + 1; // inline entries sort before extended
        }

        if (p.size() == kWidth) {
            splitLeaf(lr, leaf, stack, depth);
            return PutResult::kRetry;
        }

        insertEntry(leaf, p, insertRank, slice, want, k.suffix(), val);
        leaf->version().unlock();
        return PutResult::kInserted;
    }

    /** Normalised per-slice ordering: extended slots sort as 9. */
    static int
    rankLen(std::uint8_t kl)
    {
        return kl <= 8 ? kl : 9;
    }

    void
    insertEntry(LeafT *leaf, Permuter p, int rank, std::uint64_t slice,
                std::uint8_t want, std::string_view suffix, void *val)
    {
        // insAllowed is consulted only when the node was already touched
        // this epoch (Listing 3): a remove earlier in the epoch poisons
        // slot reuse and forces the external log.
        leaf->inCllTouch(*ctx_, leaf->insAllowed());
        if (want > 8 && !leaf->hasKsufBlock()) {
            // First suffix in this node: attaching the block is a
            // complex operation (the pointer write is not InCLL
            // protected), so log the node first.
            leaf->ensureLogged(*ctx_);
            auto **block = static_cast<char **>(
                ctx_->allocBytes(sizeof(char *) * kWidth));
            for (int i = 0; i < kWidth; ++i)
                block[i] = nullptr;
            nvm::trackStore(block, sizeof(char *) * kWidth);
            leaf->setKsufBlock(block);
        }
        leaf->version().markInserting();
        const int slot = p.insertAt(rank);
        if (want > 8) {
            leaf->setEntry(slot, slice, kLenHasSuffix, val);
            leaf->setKsuf(slot, newSuffix(suffix));
        } else {
            leaf->setEntry(slot, slice, want, val);
        }
        std::atomic_thread_fence(std::memory_order_release);
        leaf->publishPermutation(p);
    }

    void
    installEmptyRoot(LayerRoot *lr)
    {
        std::lock_guard<SpinLock> guard(rootLock_);
        if (lr->root.load(std::memory_order_acquire) == nullptr)
            updateLayerRoot(lr, newLeaf(0));
    }

    // ---- splits ------------------------------------------------------------

    void
    splitLeaf(LayerRoot *lr, LeafT *leaf, Interior **stack, int depth)
    {
        leaf->ensureLogged(*ctx_);
        leaf->version().markSplitting();

        Permuter p = leaf->permutation();
        const int n = p.size();
        // Split at the middle, adjusted so one slice's run is never torn
        // across two nodes (required for B-link lower bounds; a run is
        // at most 10 < kWidth entries, so a boundary always exists).
        int cut = n / 2;
        while (cut < n &&
               leaf->keyAt(p.slotOfRank(cut)) ==
                   leaf->keyAt(p.slotOfRank(cut - 1)))
            ++cut;
        if (cut == n) {
            cut = n / 2;
            while (cut > 1 &&
                   leaf->keyAt(p.slotOfRank(cut)) ==
                       leaf->keyAt(p.slotOfRank(cut - 1)))
                --cut;
        }

        LeafT *right = newLeaf(leaf->keyAt(p.slotOfRank(cut)));
        right->version().lock();
        Permuter rp = Permuter::makeEmpty(kWidth);
        bool anySuffix = false;
        for (int r = cut; r < n; ++r) {
            if (leaf->keylenAt(p.slotOfRank(r)) == kLenHasSuffix)
                anySuffix = true;
        }
        if (anySuffix) {
            auto **block = static_cast<char **>(
                ctx_->allocBytes(sizeof(char *) * kWidth));
            for (int i = 0; i < kWidth; ++i)
                block[i] = nullptr;
            nvm::trackStore(block, sizeof(char *) * kWidth);
            right->setKsufBlock(block);
        }
        for (int r = cut; r < n; ++r) {
            const int from = p.slotOfRank(r);
            const int to = rp.insertAt(r - cut);
            right->setEntry(to, leaf->keyAt(from), leaf->keylenAt(from),
                            leaf->valAt(from));
            if (leaf->keylenAt(from) == kLenHasSuffix)
                right->setKsuf(to, leaf->ksufAt(from));
        }
        right->publishPermutation(rp);
        right->setNext(leaf->next());
        std::atomic_thread_fence(std::memory_order_release);

        // Publish the sibling, then shrink this node (B-link order).
        leaf->setNext(right);
        p.truncate(cut);
        leaf->publishPermutation(p);

        const std::uint64_t separator = right->lowkey();
        right->version().unlock();
        leaf->version().unlock();
        insertUpward(lr, leaf, separator, right, stack, depth);
    }

    /**
     * Insert (@p sep, @p rightNode) into the parent level of
     * @p leftNode, splitting interiors upward as needed (B-link).
     */
    void
    insertUpward(LayerRoot *lr, NodeBase *leftNode, std::uint64_t sep,
                 NodeBase *rightNode, Interior **stack, int depth)
    {
        while (true) {
            Interior *parent = nullptr;
            if (depth > 0) {
                parent = stack[--depth];
            } else {
                // leftNode was (believed to be) the layer root.
                std::unique_lock<SpinLock> guard(rootLock_);
                if (lr->root.load(std::memory_order_acquire) ==
                    leftNode) {
                    Interior *newRoot = newInterior();
                    newRoot->initRoot(sep, leftNode, rightNode,
                                      nodeLowkey(leftNode));
                    updateLayerRoot(lr, newRoot);
                    return;
                }
                guard.unlock();
                // The root moved on: locate leftNode's current parent
                // chain and keep going.
                depth = findChainTo(lr, leftNode, stack);
                if (depth == 0)
                    continue; // raced with another root change; re-check
                continue;
            }

            maybeRecoverInterior(parent);
            parent->version().lock();
            // Hand-over-hand right moves at the interior level.
            while (true) {
                Interior *nx = parent->next();
                if (nx == nullptr || sep < nx->lowkey())
                    break;
                maybeRecoverInterior(nx);
                nx->version().lock();
                parent->version().unlock();
                parent = nx;
            }

            if (parent->nkeys() <
                static_cast<std::uint32_t>(Interior::kWidth)) {
                parent->ensureLogged(*ctx_);
                parent->version().markInserting();
                parent->insertSeparator(sep, rightNode);
                parent->version().unlock();
                return;
            }

            // Split the interior and keep propagating.
            parent->ensureLogged(*ctx_);
            parent->version().markSplitting();
            Interior *right = newInterior();
            right->version().lock();
            const std::uint64_t upSep = parent->splitInto(right);
            Interior *target = sep >= right->lowkey() ? right : parent;
            target->insertSeparator(sep, rightNode);
            right->version().unlock();
            parent->version().unlock();
            leftNode = parent;
            sep = upSep;
            rightNode = right;
            // depth already points at the grandparent entry.
        }
    }

    static std::uint64_t
    nodeLowkey(NodeBase *n)
    {
        if (n->isBorder())
            return static_cast<LeafT *>(n)->lowkey();
        return static_cast<Interior *>(n)->lowkey();
    }

    /** Rebuild the interior chain from the root down to @p target. */
    int
    findChainTo(LayerRoot *lr, NodeBase *target, Interior **stack)
    {
        const std::uint64_t slice = nodeLowkey(target);
        while (true) {
            NodeBase *n = lr->root.load(std::memory_order_acquire);
            int depth = 0;
            bool restart = false;
            while (n != nullptr && n != target && !n->isBorder()) {
                auto *in = static_cast<Interior *>(n);
                maybeRecoverInterior(in);
                const std::uint32_t v = in->version().stable();
                Interior *nx = in->next();
                if (nx != nullptr && slice >= nx->lowkey()) {
                    n = nx;
                    continue;
                }
                NodeBase *child = in->childFor(slice);
                if (in->version().hasChanged(v))
                    continue;
                if (depth < kMaxDepth)
                    stack[depth] = in;
                ++depth;
                n = child;
            }
            if (n == target)
                return depth;
            if (restart)
                continue;
            // target not reachable yet (publication race); try again.
        }
    }

    // ---- layers -------------------------------------------------------------

    /**
     * Replace suffix slot @p s of @p leaf (locked) by a link to a new
     * trie layer holding both the old entry and (@p k, @p val).
     */
    void
    convertToLayer(LeafT *leaf, int s, const Key &k, void *val)
    {
        leaf->ensureLogged(*ctx_);

        char *oldBuf = leaf->ksufAt(s);
        std::uint32_t oldLen;
        std::memcpy(&oldLen, oldBuf, 4);
        const std::string_view oldSuffix(oldBuf + 4, oldLen);
        void *oldVal = leaf->valAt(s);

        LayerRoot *sub =
            buildLayer(oldSuffix, oldVal, k.suffix(), val);

        leaf->version().markInserting();
        leaf->setKeylen(s, kLenLayer);
        std::atomic_thread_fence(std::memory_order_release);
        leaf->setVal(s, sub);
        freeSuffix(oldBuf);
        // The stale ksuf pointer is unreachable once keylen says kLayer.
    }

    /** Build a layer (chain) containing two distinct keys. */
    LayerRoot *
    buildLayer(std::string_view a, void *aval, std::string_view b,
               void *bval)
    {
        const std::uint64_t sa = sliceAt(a, 0);
        const std::uint64_t sb = sliceAt(b, 0);
        LeafT *leaf = newLeaf(0);
        Permuter p = Permuter::makeEmpty(kWidth);

        if (sa == sb && a.size() > 8 && b.size() > 8) {
            // Shared slice: recurse into a deeper layer.
            LayerRoot *sub =
                buildLayer(a.substr(8), aval, b.substr(8), bval);
            const int slot = p.insertAt(0);
            leaf->setEntry(slot, sa, kLenLayer, sub);
            leaf->publishPermutation(p);
            return newLayerRoot(leaf);
        }

        struct Ent
        {
            std::uint64_t slice;
            std::string_view key;
            void *val;
        } ents[2] = {{sa, a, aval}, {sb, b, bval}};
        if (sb < sa || (sb == sa && b.size() < a.size()))
            std::swap(ents[0], ents[1]);

        const bool anySuffix = a.size() > 8 || b.size() > 8;
        if (anySuffix) {
            auto **block = static_cast<char **>(
                ctx_->allocBytes(sizeof(char *) * kWidth));
            for (int i = 0; i < kWidth; ++i)
                block[i] = nullptr;
            nvm::trackStore(block, sizeof(char *) * kWidth);
            leaf->setKsufBlock(block);
        }
        for (int i = 0; i < 2; ++i) {
            const int slot = p.insertAt(i);
            if (ents[i].key.size() > 8) {
                leaf->setEntry(slot, ents[i].slice, kLenHasSuffix,
                               ents[i].val);
                leaf->setKsuf(slot, newSuffix(ents[i].key.substr(8)));
            } else {
                leaf->setEntry(slot, ents[i].slice,
                               static_cast<std::uint8_t>(
                                   ents[i].key.size()),
                               ents[i].val);
            }
        }
        leaf->publishPermutation(p);
        return newLayerRoot(leaf);
    }

    // ---- scan ----------------------------------------------------------------

    /** Invoke a scan callback; void-returning callbacks never stop. */
    template <typename F>
    static bool
    scanInvoke(F &cb, std::string_view key, void *val)
    {
        if constexpr (std::is_void_v<decltype(cb(key, val))>) {
            cb(key, val);
            return true;
        } else {
            return cb(key, val);
        }
    }

    template <typename F>
    void
    scanLayer(LayerRoot *lr, std::string &prefix, std::string_view rest,
              std::size_t limit, std::size_t &emitted, bool &stop, F &cb)
    {
        if constexpr (Config::kDurable)
            lr->maybeRecover(*ctx_);
        const std::uint64_t startSlice = sliceAt(rest, 0);
        LeafT *leaf = findLeaf(lr, startSlice, nullptr);
        if (leaf == nullptr)
            return;

        struct Snap
        {
            std::uint64_t slice;
            std::uint8_t kl;
            void *val;
            char *ksuf;
        };
        Snap snap[kWidth] = {};
        while (leaf != nullptr && emitted < limit && !stop) {
            maybeRecoverLeaf(leaf);
            LeafT *nextLeaf = nullptr;
            int n = 0;
            while (true) {
                const std::uint32_t v = leaf->version().stable();
                const Permuter p = leaf->permutation();
                n = p.size();
                assert(n <= kWidth);
                for (int r = 0; r < n; ++r) {
                    const int s = p.slotOfRank(r);
                    snap[r] = Snap{leaf->keyAt(s), leaf->keylenAt(s),
                                   leaf->valAt(s), leaf->ksufAt(s)};
                }
                nextLeaf = leaf->next();
                if (!leaf->version().hasChanged(v))
                    break;
            }
            // Entries strictly below the start bound sort first.
            int first = 0;
            while (first < n && snap[first].slice < startSlice)
                ++first;
            // Prefetch what this leaf will deliver: the value buffers (a
            // sub-layer's root record for a layer entry) of at most
            // limit - emitted entries, and the next leaf only when this
            // one cannot fill the limit.
            const std::size_t want = limit - emitted;
            const auto avail = static_cast<std::size_t>(n - first);
            for (std::size_t i = 0; i < std::min(want, avail); ++i)
                __builtin_prefetch(snap[first + i].val);
            if (avail < want && nextLeaf != nullptr)
                prefetchLines(nextLeaf, sizeof(LeafT));

            for (int i = first; i < n; ++i) {
                const Snap &e = snap[i];
                if (emitted >= limit || stop)
                    return;
                char sliceBytes[8];
                sliceToBytes(e.slice, sliceBytes);
                const std::size_t plen = prefix.size();
                if (e.kl == kLenLayer) {
                    prefix.append(sliceBytes, 8);
                    std::string_view subRest;
                    if (e.slice == startSlice && rest.size() > 8)
                        subRest = rest.substr(8);
                    scanLayer(static_cast<LayerRoot *>(e.val), prefix,
                              subRest, limit, emitted, stop, cb);
                    prefix.resize(plen);
                    continue;
                }
                // Build the full key in place; the callback's view of it
                // lasts until the resize below.
                if (e.kl == kLenHasSuffix) {
                    prefix.append(sliceBytes, 8);
                    std::uint32_t len;
                    std::memcpy(&len, e.ksuf, 4);
                    prefix.append(e.ksuf + 4, len);
                } else {
                    prefix.append(sliceBytes, e.kl);
                }
                const std::string_view key(prefix);
                // Lower-bound filter against the start key.
                if (key.substr(plen) < rest) {
                    prefix.resize(plen);
                    continue;
                }
                const bool more = scanInvoke(cb, key, e.val);
                prefix.resize(plen);
                if (!more) {
                    stop = true; // stopping key is not counted
                    return;
                }
                ++emitted;
            }
            leaf = nextLeaf;
        }
    }

    Ctx *ctx_ = nullptr;
    LayerRoot *layer0_ = nullptr;
    SpinLock rootLock_;
};

} // namespace incll::mt
