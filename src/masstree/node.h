/**
 * @file
 * Masstree node layouts: border (leaf) and interior nodes, in transient
 * and durable flavours, plus the In-Cache-Line Log algorithm (paper §4).
 *
 * The durable leaf reproduces Figure 1's cache-line layout exactly
 * (14-wide, 320 bytes, five cache lines):
 *
 *   line 0   version, next, ksufBlock, nodeEpochWord (nodeEpoch +
 *            insAllowed + logged), permutationInCLL, permutation, lowkey
 *            — the InCLLp group shares this line, so the release-fence
 *            ordering permutationInCLL -> nodeEpoch -> permutation
 *            persists in program order under PCSO.
 *   line 1-2 keylen[14], keys[14]
 *   line 3   ValInCLL1, vals[0..6]
 *   line 4   vals[7..13], ValInCLL2
 *
 * The transient leaf is the paper's unmodified 15-wide node.
 *
 * Documented divergences from upstream Masstree (see DESIGN.md): no
 * `prev` sibling pointer (forward-only links; reverse scans are not in
 * the paper's evaluation), suffixes live in a lazily-attached pointer
 * block instead of an inline ksuf region, and empty borders are kept in
 * the tree instead of removed (merges are rare and handled identically
 * through the external log path in the paper).
 */
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/compiler.h"
#include "common/stats.h"
#include "masstree/context.h"
#include "masstree/key.h"
#include "masstree/nodeversion.h"
#include "masstree/permuter.h"
#include "masstree/val_incll.h"
#include "nvm/pool.h"

namespace incll::mt {

/** Minimal common header so descent code can type-test nodes. */
class NodeBase
{
  public:
    explicit NodeBase(bool isBorder) : version_(isBorder) {}

    NodeVersion &version() { return version_; }
    const NodeVersion &version() const { return version_; }
    bool isBorder() const { return NodeVersion::isBorder(version_.raw()); }

  protected:
    NodeVersion version_; // offset 0 in every node
};

/**
 * Per-layer root record. The slot that owns a lower trie layer points at
 * one of these permanently, so layer-root splits never modify the owning
 * leaf (they update this record in place with the same in-cache-line
 * triple protocol as the allocator's list heads). The layer-0 record
 * lives in the durable root area.
 */
struct alignas(kCacheLineSize) LayerRoot
{
    std::atomic<NodeBase *> root{nullptr};
    NodeBase *rootInCLL = nullptr;
    std::uint64_t epoch = 0; ///< epoch of the last root change

    /** In-line log + update, durable configuration. */
    template <typename Ctx>
    void
    updateDurable(Ctx &ctx, NodeBase *newRoot)
    {
        const std::uint64_t g = ctx.writeEpoch();
        if (epoch != g) {
            nvm::pstore(rootInCLL, root.load(std::memory_order_relaxed));
            std::atomic_thread_fence(std::memory_order_release);
            nvm::pstore(epoch, g);
            std::atomic_thread_fence(std::memory_order_release);
        }
        nvm::pstoreRelease(root, newRoot);
    }

    void
    updateTransient(NodeBase *newRoot)
    {
        root.store(newRoot, std::memory_order_release);
    }

    /** Lazy crash recovery of the record (durable configuration). */
    template <typename Ctx>
    void
    maybeRecover(Ctx &ctx)
    {
        if (INCLL_LIKELY(epoch >= ctx.firstExecEpoch()) || epoch == 0)
            return;
        std::lock_guard<SpinLock> guard(ctx.recoveryLockFor(this));
        if (epoch >= ctx.firstExecEpoch() || epoch == 0)
            return;
        ctx.noteWrite();
        if (ctx.isFailed(epoch))
            nvm::pstoreRelease(root, rootInCLL);
        nvm::pstore(rootInCLL, root.load(std::memory_order_relaxed));
        std::atomic_thread_fence(std::memory_order_release);
        nvm::pstore(epoch, ctx.firstExecEpoch());
    }
};

/** Interior node (identical in all configurations; durability via the
 *  external log only, as in the paper §4.2). */
class Interior : public NodeBase
{
  public:
    static constexpr int kWidth = 15;

    Interior() : NodeBase(false) {}

    /** Number of separator keys (children = nkeys + 1). */
    std::uint32_t
    nkeys() const
    {
        return nkeys_.load(std::memory_order_acquire);
    }

    /** Child covering @p slice under a consistent snapshot. */
    NodeBase *
    childFor(std::uint64_t slice) const
    {
        const std::uint32_t n = nkeys();
        int lo = 0, hi = static_cast<int>(n);
        while (lo < hi) {
            const int mid = (lo + hi) / 2;
            if (slice < keys_[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        return children_[lo];
    }

    std::uint64_t keyAt(int i) const { return keys_[i]; }
    NodeBase *childAt(int i) const { return children_[i]; }

    Interior *next() const { return next_.load(std::memory_order_acquire); }
    std::uint64_t lowkey() const { return lowkey_; }

    /**
     * Insert separator @p sep with right child @p child (holds lock).
     * Pre: nkeys() < kWidth.
     */
    void
    insertSeparator(std::uint64_t sep, NodeBase *child)
    {
        const std::uint32_t n = nkeys_.load(std::memory_order_relaxed);
        assert(n < kWidth);
        int pos = 0;
        while (pos < static_cast<int>(n) && keys_[pos] < sep)
            ++pos;
        for (int i = static_cast<int>(n); i > pos; --i) {
            nvm::pstore(keys_[i], keys_[i - 1]);
            nvm::pstore(children_[i + 1], children_[i]);
        }
        nvm::pstore(keys_[pos], sep);
        nvm::pstore(children_[pos + 1], child);
        std::atomic_thread_fence(std::memory_order_release);
        nkeys_.store(n + 1, std::memory_order_release);
        nvm::trackStore(&nkeys_, sizeof(nkeys_));
    }

    /** Initialise a fresh node as root over two children. */
    void
    initRoot(std::uint64_t sep, NodeBase *left, NodeBase *right,
             std::uint64_t lowkey)
    {
        nvm::pstore(keys_[0], sep);
        nvm::pstore(children_[0], left);
        nvm::pstore(children_[1], right);
        nvm::pstore(lowkey_, lowkey);
        nkeys_.store(1, std::memory_order_release);
        nvm::trackStore(&nkeys_, sizeof(nkeys_));
    }

    /**
     * Split: move the upper half into @p right, return the separator
     * that must be inserted into the parent. Both nodes locked.
     */
    std::uint64_t splitInto(Interior *right);

    // -- durability hooks ---------------------------------------------

    /** External-log this node once per epoch before modifying it. */
    template <typename Ctx>
    void
    ensureLogged(Ctx &ctx)
    {
        if constexpr (!std::is_same_v<Ctx, DurableContext>) {
            (void)ctx;
        } else {
            const std::uint64_t g = ctx.writeEpoch();
            if (logEpoch_ != g) {
                ctx.logObjectOrDie(this, sizeof(Interior));
                nvm::pstore(logEpoch_, g);
            }
        }
    }

    /** Lazy post-crash re-initialisation of the (transient) lock word. */
    template <typename Ctx>
    void
    maybeRecover(Ctx &ctx)
    {
        if constexpr (!std::is_same_v<Ctx, DurableContext>) {
            (void)ctx;
        } else {
            if (INCLL_LIKELY(recEpoch_ >= ctx.firstExecEpoch()))
                return;
            std::lock_guard<SpinLock> guard(ctx.recoveryLockFor(this));
            if (recEpoch_ >= ctx.firstExecEpoch())
                return;
            ctx.noteWrite();
            version_.initLock(false);
            std::atomic_thread_fence(std::memory_order_release);
            nvm::pstore(recEpoch_, ctx.firstExecEpoch());
            globalStats().add(Stat::kNodeRecoveries);
        }
    }

    void
    setNext(Interior *n)
    {
        next_.store(n, std::memory_order_release);
        nvm::trackStore(&next_, sizeof(next_));
    }

    void setLowkey(std::uint64_t k) { nvm::pstore(lowkey_, k); }
    void
    setRecEpoch(std::uint64_t e)
    {
        nvm::pstore(recEpoch_, e);
        nvm::pstore(logEpoch_, std::uint64_t{0});
    }

    /**
     * Exempt a freshly allocated node from external logging for the
     * rest of @p epoch: rolling back its creating epoch reclaims the
     * node through the allocator, so no undo image is needed.
     */
    void
    markFreshLogged(std::uint64_t epoch)
    {
        nvm::pstore(logEpoch_, epoch);
    }

  private:
    std::atomic<std::uint32_t> nkeys_{0};
    std::uint32_t pad_ = 0;
    std::uint64_t keys_[kWidth] = {};
    NodeBase *children_[kWidth + 1] = {};
    std::atomic<Interior *> next_{nullptr};
    std::uint64_t lowkey_ = 0;
    std::uint64_t logEpoch_ = 0; ///< epoch of last external logging
    std::uint64_t recEpoch_ = 0; ///< lazy-recovery marker
};

inline std::uint64_t
Interior::splitInto(Interior *right)
{
    const int n = static_cast<int>(nkeys_.load(std::memory_order_relaxed));
    assert(n == kWidth);
    const int keep = n / 2; // keys [0, keep) stay; keys_[keep] ascends
    const std::uint64_t separator = keys_[keep];

    int outPos = 0;
    for (int i = keep + 1; i < n; ++i, ++outPos) {
        nvm::pstore(right->keys_[outPos], keys_[i]);
        nvm::pstore(right->children_[outPos], children_[i]);
    }
    nvm::pstore(right->children_[outPos], children_[n]);
    right->nkeys_.store(static_cast<std::uint32_t>(outPos),
                        std::memory_order_release);
    nvm::trackStore(&right->nkeys_, sizeof(right->nkeys_));
    nvm::pstore(right->lowkey_, separator);
    right->next_.store(next_.load(std::memory_order_relaxed),
                       std::memory_order_release);
    nvm::trackStore(&right->next_, sizeof(right->next_));

    // Publish the sibling before shrinking this node so concurrent
    // descents can always move right to reach migrated keys.
    next_.store(right, std::memory_order_release);
    nvm::trackStore(&next_, sizeof(next_));
    nkeys_.store(static_cast<std::uint32_t>(keep),
                 std::memory_order_release);
    nvm::trackStore(&nkeys_, sizeof(nkeys_));
    return separator;
}

} // namespace incll::mt
