/**
 * @file
 * Border (leaf) nodes and the In-Cache-Line Log algorithm (paper §4.1).
 *
 * Two layouts share all behaviour through LeafLayout:
 *  - LeafLayout<false>: the transient 15-wide node (MT / MT+);
 *  - LeafLayout<true>:  the durable 14-wide node of Figure 1, with the
 *    InCLLp group (nodeEpoch, insAllowed, logged, permutationInCLL)
 *    sharing cache line 0 with the permutation, and one ValInCLL in each
 *    value cache line.
 *
 * All durability decisions — when a modification can be absorbed by an
 * InCLL and when the node must fall back on the external log — are
 * implemented here, in inCllTouch() / inCllForUpdate() (Listing 3) and
 * maybeRecover() (Listing 4).
 */
#pragma once

#include <cstddef> // offsetof

#include "masstree/node.h"

namespace incll::mt {

/** Data members of a border node; specialised per persistence flavour. */
template <bool Durable, int Width>
struct LeafLayout;

/** Transient layout: the paper's unmodified 15-wide Masstree node. */
template <int Width>
struct LeafLayout<false, Width> : public NodeBase
{
    LeafLayout() : NodeBase(true) {}

    std::atomic<LeafLayout *> next_{nullptr};
    char **ksufBlock_ = nullptr;        ///< lazily attached suffix slots
    std::atomic<std::uint64_t> permutation_{0};
    std::uint64_t lowkey_ = 0;
    std::uint8_t keylen_[Width] = {};
    std::uint64_t keys_[Width] = {};
    void *vals_[Width] = {};
};

/** Durable layout: Figure 1, 320 bytes, five cache lines. */
template <int Width>
struct alignas(kCacheLineSize) LeafLayout<true, Width> : public NodeBase
{
    static_assert(Width == 14, "durable leaves are 14 wide (paper §4.1)");

    LeafLayout() : NodeBase(true) {}

    // ---- cache line 0: header + InCLLp --------------------------------
    std::atomic<LeafLayout *> next_{nullptr};
    char **ksufBlock_ = nullptr;
    std::uint64_t nodeEpochWord_ = 0; ///< epoch(62) | insAllowed | logged
    std::uint64_t permutationInCLL_ = 0;
    std::atomic<std::uint64_t> permutation_{0};
    std::uint64_t lowkey_ = 0;
    std::uint64_t pad0_ = 0;

    // ---- cache lines 1-2: keys ----------------------------------------
    std::uint8_t keylen_[Width] = {};
    std::uint16_t pad1_ = 0;
    std::uint64_t keys_[Width] = {};

    // ---- cache line 3: InCLL1 + vals[0..6] -----------------------------
    std::uint64_t inCll1_ = ValInCLL().raw();
    void *vals_[Width] = {};
    // ---- cache line 4 ends with InCLL2 ---------------------------------
    std::uint64_t inCll2_ = ValInCLL().raw();
};

/**
 * Border node: layout + algorithm. @p Durable selects the flavour,
 * @p Width the fanout (15 transient, 14 durable).
 */
template <bool Durable, int Width>
class Leaf : public LeafLayout<Durable, Width>
{
    using Layout = LeafLayout<Durable, Width>;

  public:
    static constexpr int kWidth = Width;
    static constexpr bool kDurable = Durable;
    static constexpr std::uint64_t kEpochMask = (std::uint64_t{1} << 62) - 1;
    static constexpr std::uint64_t kInsAllowedBit = std::uint64_t{1} << 62;
    static constexpr std::uint64_t kLoggedBit = std::uint64_t{1} << 63;

    Leaf() = default;

    // ---- plain accessors ---------------------------------------------

    Permuter
    permutation() const
    {
        return Permuter(this->permutation_.load(std::memory_order_acquire));
    }

    void
    publishPermutation(Permuter p)
    {
        nvm::pstoreRelease(this->permutation_, p.value());
    }

    Leaf *next() const { return static_cast<Leaf *>(
        this->next_.load(std::memory_order_acquire)); }

    void
    setNext(Leaf *n)
    {
        this->next_.store(n, std::memory_order_release);
        nvm::trackStore(&this->next_, sizeof(this->next_));
    }

    std::uint64_t lowkey() const { return this->lowkey_; }
    void setLowkey(std::uint64_t k) { nvm::pstore(this->lowkey_, k); }

    std::uint64_t keyAt(int slot) const { return this->keys_[slot]; }
    std::uint8_t keylenAt(int slot) const { return this->keylen_[slot]; }
    void *valAt(int slot) const { return this->vals_[slot]; }

    void
    setEntry(int slot, std::uint64_t slice, std::uint8_t len, void *val)
    {
        nvm::pstore(this->keys_[slot], slice);
        nvm::pstore(this->keylen_[slot], len);
        nvm::pstore(this->vals_[slot], val);
    }

    void setVal(int slot, void *val) { nvm::pstore(this->vals_[slot], val); }
    void
    setKeylen(int slot, std::uint8_t len)
    {
        nvm::pstore(this->keylen_[slot], len);
    }

    /** Suffix pointer of @p slot (null when no block / no suffix). */
    char *
    ksufAt(int slot) const
    {
        return this->ksufBlock_ ? this->ksufBlock_[slot] : nullptr;
    }

    bool hasKsufBlock() const { return this->ksufBlock_ != nullptr; }

    char **ksufBlock() const { return this->ksufBlock_; }

    void
    setKsufBlock(char **block)
    {
        nvm::pstore(this->ksufBlock_, block);
    }

    void
    setKsuf(int slot, char *suffix)
    {
        assert(this->ksufBlock_ != nullptr);
        nvm::pstore(this->ksufBlock_[slot], suffix);
    }

    // ---- InCLLp field access (durable flavour) -------------------------

    std::uint64_t
    nodeEpoch() const
    {
        if constexpr (Durable)
            return this->nodeEpochWord_ & kEpochMask;
        else
            return 0;
    }

    bool
    insAllowed() const
    {
        if constexpr (Durable)
            return this->nodeEpochWord_ & kInsAllowedBit;
        else
            return true;
    }

    bool
    isLogged() const
    {
        if constexpr (Durable)
            return this->nodeEpochWord_ & kLoggedBit;
        else
            return false;
    }

    void
    setNodeEpochWord(std::uint64_t epoch, bool allowed, bool logged)
    {
        if constexpr (Durable) {
            nvm::pstore(this->nodeEpochWord_,
                        (epoch & kEpochMask) |
                            (allowed ? kInsAllowedBit : 0) |
                            (logged ? kLoggedBit : 0));
        }
    }

    void
    clearInsAllowed()
    {
        if constexpr (Durable)
            nvm::pstore(this->nodeEpochWord_,
                        this->nodeEpochWord_ & ~kInsAllowedBit);
    }

    ValInCLL
    valInCll(int line) const
    {
        if constexpr (Durable)
            return ValInCLL::fromRaw(line == 0 ? this->inCll1_
                                               : this->inCll2_);
        else
            return ValInCLL();
    }

    void
    setValInCll(int line, ValInCLL v)
    {
        if constexpr (Durable) {
            if (line == 0)
                nvm::pstore(this->inCll1_, v.raw());
            else
                nvm::pstore(this->inCll2_, v.raw());
        }
    }

    // ---- the In-Cache-Line Log algorithm (paper §4.1, Listing 3) ------

    /**
     * First-touch / bookkeeping step executed before a structural
     * modification (insert or remove). @p allowed is the insAllowed
     * predicate of Listing 3: false when this insert would overwrite a
     * slot freed earlier in the same epoch, forcing the external log.
     */
    template <typename Ctx>
    void
    inCllTouch(Ctx &ctx, bool allowed)
    {
        if constexpr (Durable)
            touchImpl(ctx, allowed, ValInCLL(), ValInCLL(), -1);
        else
            (void)ctx, (void)allowed;
    }

    /**
     * Bookkeeping before overwriting vals[@p idx] (Listing 3's update):
     * absorbs the old pointer into the line's ValInCLL when possible,
     * otherwise logs the node externally.
     */
    template <typename Ctx>
    void
    inCllForUpdate(Ctx &ctx, int idx)
    {
        if constexpr (!Durable) {
            (void)ctx, (void)idx;
        } else {
            const std::uint64_t g = ctx.writeEpoch();
            const int line = idx <= 6 ? 0 : 1;
            if (nodeEpoch() != g) {
                // First touch this epoch: the old value rides along in
                // the reset of the ValInCLLs.
                ValInCLL vc(this->vals_[idx], static_cast<unsigned>(idx),
                            static_cast<std::uint16_t>(epochLow16(g)));
                touchImpl(ctx, true, line == 0 ? vc : ValInCLL(),
                          line == 1 ? vc : ValInCLL(), line);
                return;
            }
            if (isLogged())
                return;
            const ValInCLL cur = valInCll(line);
            if (cur.idx() == static_cast<unsigned>(idx))
                return; // this pointer is already logged this epoch
            if (!cur.valid()) {
                // The line's InCLL is unused this epoch: claim it.
                setValInCll(line,
                            ValInCLL(this->vals_[idx],
                                     static_cast<unsigned>(idx),
                                     static_cast<std::uint16_t>(
                                         epochLow16(g))));
                std::atomic_thread_fence(std::memory_order_release);
                globalStats().add(Stat::kInCllVal);
                return;
            }
            // A different value in the same cache line was already
            // modified this epoch: fall back on the external log.
            logSelfExternal(ctx, g);
        }
    }

    /** Mark a remove (disables same-epoch insert reuse; Listing 3). */
    template <typename Ctx>
    void
    inCllForRemove(Ctx &ctx)
    {
        if constexpr (Durable) {
            inCllTouch(ctx, true);
            clearInsAllowed();
        } else {
            (void)ctx;
        }
    }

    /**
     * Force this node into the external log for a complex operation
     * (split, layer creation, ksuf-block attachment) regardless of the
     * InCLL state.
     */
    template <typename Ctx>
    void
    ensureLogged(Ctx &ctx)
    {
        if constexpr (!Durable) {
            (void)ctx;
        } else {
            const std::uint64_t g = ctx.writeEpoch();
            if (nodeEpoch() == g && isLogged())
                return;
            logSelfExternal(ctx, g);
        }
    }

    // ---- lazy crash recovery (paper §4.3, Listing 4) -------------------

    template <typename Ctx>
    INCLL_INLINE void
    maybeRecover(Ctx &ctx)
    {
        if constexpr (Durable) {
            if (INCLL_UNLIKELY(nodeEpoch() < ctx.firstExecEpoch()))
                recoverSlow(ctx);
        } else {
            (void)ctx;
        }
    }

  private:
    /**
     * The InCLL() helper of Listing 3. @p vc1 / @p vc2 are the ValInCLL
     * images to install on a first touch (invalid for insert/remove,
     * carrying the old value for updates); @p updateLine is the value
     * line being updated (-1 for structural ops) used for statistics.
     */
    template <typename Ctx>
    void
    touchImpl(Ctx &ctx, bool allowed, ValInCLL vc1, ValInCLL vc2,
              int updateLine)
    {
        const std::uint64_t g = ctx.writeEpoch();
        const std::uint64_t ne = nodeEpoch();
        if (g != ne) {
            bool logged = false;
            // LOGGING ablation mode logs every first touch; the 16-bit
            // epoch-distance overflow also forces the external log
            // (§4.1.3 — the ValInCLL cannot represent the epoch).
            if (!ctx.inCllEnabled || epochHigh48(g) != epochHigh48(ne)) {
                logImages(ctx);
                logged = true;
            }
            if (!logged) {
                nvm::pstore(this->permutationInCLL_,
                            this->permutation_.load(
                                std::memory_order_relaxed));
                const auto low =
                    static_cast<std::uint16_t>(epochLow16(g));
                setValInCll(0, vc1.withEpochLow16(low));
                setValInCll(1, vc2.withEpochLow16(low));
                // Order the same-line InCLLp stores before the epoch
                // stamp (PCSO granularity; no flush needed).
                std::atomic_thread_fence(std::memory_order_release);
                globalStats().add(Stat::kInCllPerm);
                if (updateLine >= 0)
                    globalStats().add(Stat::kInCllVal);
            }
            setNodeEpochWord(g, true, logged);
            std::atomic_thread_fence(std::memory_order_release);
            return;
        }
        if (!isLogged() && !allowed)
            logSelfExternal(ctx, g);
        std::atomic_thread_fence(std::memory_order_release);
    }

    /**
     * Log the node's undo images: the node itself and, when attached,
     * its suffix-pointer block. Upstream Masstree keeps suffixes inside
     * the node so the node image covers them; our out-of-node block must
     * be logged with the leaf, or a rolled-back slot reuse would orphan
     * a committed suffix pointer.
     */
    template <typename Ctx>
    void
    logImages(Ctx &ctx)
    {
        ctx.logObjectOrDie(this, sizeof(Leaf));
        if (this->ksufBlock_ != nullptr)
            ctx.logObjectOrDie(this->ksufBlock_,
                               sizeof(char *) * Width);
    }

    template <typename Ctx>
    void
    logSelfExternal(Ctx &ctx, std::uint64_t epoch)
    {
        logImages(ctx);
        setNodeEpochWord(epoch, insAllowed(), true);
        std::atomic_thread_fence(std::memory_order_release);
    }

    template <typename Ctx>
    INCLL_NOINLINE void
    recoverSlow(Ctx &ctx)
    {
        std::lock_guard<SpinLock> guard(ctx.recoveryLockFor(this));
        const std::uint64_t execEpoch = ctx.firstExecEpoch();
        if (nodeEpoch() >= execEpoch)
            return;
        ctx.noteWrite();

        // InCLLp: roll the permutation back to the epoch's start.
        if (ctx.isFailed(nodeEpoch())) {
            nvm::pstoreRelease(this->permutation_,
                               this->permutationInCLL_);
        }
        // InCLL1/2: reconstruct each entry's epoch from its low 16 bits
        // plus the node epoch's high bits; apply entries of failed
        // epochs to the vals array.
        for (int line = 0; line < 2; ++line) {
            const ValInCLL v = valInCll(line);
            if (!v.valid())
                continue;
            const std::uint64_t entryEpoch =
                epochHigh48(nodeEpoch()) | v.epochLow16();
            if (ctx.isFailed(entryEpoch))
                nvm::pstore(this->vals_[v.idx()], v.pointer());
        }

        // Reset the logs so that skipping the first-touch bookkeeping in
        // epoch `execEpoch` is safe: the logged state already equals the
        // current state.
        nvm::pstore(this->permutationInCLL_,
                    this->permutation_.load(std::memory_order_relaxed));
        const auto low = static_cast<std::uint16_t>(epochLow16(execEpoch));
        setValInCll(0, ValInCLL().withEpochLow16(low));
        setValInCll(1, ValInCLL().withEpochLow16(low));

        // The lock word did not survive the crash (§4.3). It must be
        // reinitialised *before* the node epoch is published: a thread
        // that observes nodeEpoch >= execEpoch skips recovery and may
        // take the lock immediately.
        this->version_.initLock(true);
        nvm::trackStore(&this->version_, sizeof(this->version_));
        std::atomic_thread_fence(std::memory_order_release);
        setNodeEpochWord(execEpoch, true, false);
        globalStats().add(Stat::kNodeRecoveries);
    }
};

// Layout checks for the durable leaf (Figure 1). offsetof on these
// non-standard-layout (but trivially copyable, single-base) types is
// conditionally supported and well-defined on every relevant compiler.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
using DurableLeaf = Leaf<true, 14>;
using DurableLeafLayout = LeafLayout<true, 14>;
static_assert(sizeof(DurableLeaf) == 320, "five cache lines");
static_assert(offsetof(DurableLeafLayout, inCll1_) == 192 &&
                  offsetof(DurableLeafLayout, inCll1_) % kCacheLineSize ==
                      0,
              "InCLL1 opens value cache line 1");
static_assert(offsetof(DurableLeafLayout, inCll2_) == 312,
              "InCLL2 closes value cache line 2");
static_assert(offsetof(DurableLeafLayout, nodeEpochWord_) / 64 ==
                      offsetof(DurableLeafLayout, permutation_) / 64 &&
                  offsetof(DurableLeafLayout, permutationInCLL_) / 64 ==
                      offsetof(DurableLeafLayout, permutation_) / 64,
              "the InCLLp group shares one cache line");
#pragma GCC diagnostic pop

} // namespace incll::mt
