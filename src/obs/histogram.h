/**
 * @file
 * HDR-style log-linear latency histogram: fixed-size, mergeable, and
 * lock-free on the record path.
 *
 * Values below kLinearMax land in exact unit buckets; above that each
 * power-of-two octave is split into kSubBuckets linear sub-buckets, so
 * the relative quantization error is bounded by 1/kSubBuckets (6.25%)
 * at every scale. That bound is what makes "no sample vectors" honest:
 * percentiles read back from the buckets stay within the sub-bucket
 * width of the exact answer, at a fixed ~5 KB per stripe instead of a
 * per-op allocation.
 *
 * Concurrency: recording threads hash onto one of kStripes padded
 * stripes and fetch_add relaxed into it — no locks, no CAS loops, and
 * (with more stripes than typical recorder counts) few contended
 * lines. Readers sum the stripes into a plain Snapshot; since every
 * cell is atomic the read can race with recording and merely lands on
 * some slightly stale but consistent-enough view, the usual counter
 * contract.
 */
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>

#include "common/compiler.h"

namespace incll::obs {

/** Bucket geometry, shared by Histogram and its Snapshot. */
struct HistBuckets
{
    /** Sub-buckets per octave; bounds relative error to 1/16. */
    static constexpr unsigned kSubBuckets = 16;
    /** Values below this are counted exactly (one bucket per value). */
    static constexpr unsigned kLinearMax = kSubBuckets;
    /** Octaves above the linear range; covers values up to ~2^44. */
    static constexpr unsigned kOctaves = 40;
    static constexpr unsigned kNumBuckets = kLinearMax + kOctaves * kSubBuckets;

    /** Bucket index for @p v; saturates at the last bucket. */
    static constexpr unsigned
    index(std::uint64_t v)
    {
        if (v < kLinearMax)
            return static_cast<unsigned>(v);
        const unsigned exp = 63u - static_cast<unsigned>(std::countl_zero(v));
        const unsigned octave = exp - 4;
        if (octave >= kOctaves)
            return kNumBuckets - 1;
        const unsigned sub = static_cast<unsigned>((v >> (exp - 4)) & 15u);
        return kLinearMax + octave * kSubBuckets + sub;
    }

    /** Smallest value mapping to bucket @p i. */
    static constexpr std::uint64_t
    lowerBound(unsigned i)
    {
        if (i < kLinearMax)
            return i;
        const unsigned octave = (i - kLinearMax) / kSubBuckets;
        const unsigned sub = (i - kLinearMax) % kSubBuckets;
        return static_cast<std::uint64_t>(kSubBuckets + sub) << octave;
    }

    /** Width (count of distinct values) of bucket @p i. */
    static constexpr std::uint64_t
    width(unsigned i)
    {
        if (i < kLinearMax)
            return 1;
        return std::uint64_t{1} << ((i - kLinearMax) / kSubBuckets);
    }
};

/**
 * Plain (non-atomic) histogram state: the unit of merging, diffing and
 * percentile extraction. Obtained from Histogram::snapshot(), or built
 * directly by tests.
 */
struct HistSnapshot : HistBuckets
{
    std::uint64_t buckets[kNumBuckets] = {};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    void
    record(std::uint64_t v, std::uint64_t n = 1)
    {
        buckets[index(v)] += n;
        count += n;
        sum += v * n;
    }

    /** Merge another snapshot into this one. */
    void
    add(const HistSnapshot &o)
    {
        for (unsigned i = 0; i < kNumBuckets; ++i)
            buckets[i] += o.buckets[i];
        count += o.count;
        sum += o.sum;
    }

    /**
     * Subtract an earlier snapshot of the same histogram (bucket
     * counts are monotone, so this yields the interval's histogram).
     */
    void
    subtract(const HistSnapshot &o)
    {
        for (unsigned i = 0; i < kNumBuckets; ++i)
            buckets[i] -= o.buckets[i];
        count -= o.count;
        sum -= o.sum;
    }

    /**
     * Percentile by cumulative bucket walk with linear interpolation
     * inside the containing bucket. p is clamped to [0, 100]; an empty
     * histogram yields 0.0, so a report prints zero for an idle one.
     */
    double
    percentile(double p) const
    {
        if (count == 0)
            return 0.0;
        p = p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p);
        double rank = p / 100.0 * static_cast<double>(count);
        if (rank < 1.0)
            rank = 1.0;
        std::uint64_t cum = 0;
        for (unsigned i = 0; i < kNumBuckets; ++i) {
            if (buckets[i] == 0)
                continue;
            cum += buckets[i];
            if (static_cast<double>(cum) >= rank) {
                const double before =
                    static_cast<double>(cum - buckets[i]);
                const double frac =
                    (rank - before) / static_cast<double>(buckets[i]);
                return static_cast<double>(lowerBound(i)) +
                       frac * static_cast<double>(width(i));
            }
        }
        return static_cast<double>(lowerBound(kNumBuckets - 1));
    }

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
    }

    /**
     * Fraction of recorded values <= @p v, interpolating inside the
     * bucket containing v (used for SLO-attainment reporting).
     */
    double
    fractionAtOrBelow(std::uint64_t v) const
    {
        if (count == 0)
            return 1.0;
        const unsigned vi = index(v);
        std::uint64_t cum = 0;
        for (unsigned i = 0; i < vi; ++i)
            cum += buckets[i];
        double atOrBelow = static_cast<double>(cum);
        if (buckets[vi] != 0) {
            const double frac =
                static_cast<double>(v - lowerBound(vi) + 1) /
                static_cast<double>(width(vi));
            atOrBelow += frac * static_cast<double>(buckets[vi]);
        }
        return atOrBelow / static_cast<double>(count);
    }
};

/**
 * Concurrent histogram. Recording threads pick a stripe by thread
 * identity; readers fold the stripes into a HistSnapshot.
 */
class Histogram : HistBuckets
{
  public:
    static constexpr unsigned kStripes = 8;

    using HistBuckets::index;
    using HistBuckets::kNumBuckets;
    using HistBuckets::lowerBound;
    using HistBuckets::width;

    INCLL_INLINE void
    record(std::uint64_t v)
    {
        Stripe &s = stripes_[stripeIndex()];
        s.buckets[index(v)].fetch_add(1, std::memory_order_relaxed);
        s.sum.fetch_add(v, std::memory_order_relaxed);
    }

    HistSnapshot
    snapshot() const
    {
        HistSnapshot out;
        for (const Stripe &s : stripes_) {
            for (unsigned i = 0; i < kNumBuckets; ++i) {
                const std::uint64_t c =
                    s.buckets[i].load(std::memory_order_relaxed);
                out.buckets[i] += c;
                out.count += c;
            }
            out.sum += s.sum.load(std::memory_order_relaxed);
        }
        return out;
    }

    /** Racy-lossy zeroing, same contract as counter reset. */
    void
    reset()
    {
        for (Stripe &s : stripes_) {
            for (unsigned i = 0; i < kNumBuckets; ++i)
                s.buckets[i].store(0, std::memory_order_relaxed);
            s.sum.store(0, std::memory_order_relaxed);
        }
    }

  private:
    struct alignas(kCacheLineSize) Stripe
    {
        std::atomic<std::uint64_t> buckets[kNumBuckets] = {};
        std::atomic<std::uint64_t> sum{0};
    };

    static unsigned
    stripeIndex()
    {
        // Distinct per thread for its lifetime; knuth-hashed so pool
        // threads created together spread across stripes.
        static std::atomic<unsigned> next{0};
        thread_local const unsigned idx =
            (next.fetch_add(1, std::memory_order_relaxed) * 2654435761u) %
            kStripes;
        return idx;
    }

    Stripe stripes_[kStripes];
};

} // namespace incll::obs
