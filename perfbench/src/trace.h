/**
 * @file
 * Outside-in tracing for the layer ledger.
 *
 * The traced run wraps each public call an op makes (store routing, the
 * tree call, the allocator, the persistent copy) in a span: name,
 * start, end, parent, op id. Gate wait inside a call is the
 * obs::threadGateWaitNs() delta around it and is charged to the epoch
 * layer; a span's self time is its duration minus its children and its
 * own gate wait. Durations and self times are aggregated per (op type,
 * span) as they close; one op in kKeepEvery keeps its spans in memory,
 * and those are written out when the run ends.
 */
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/**
 * Root span of one op; the op type a span belongs to. A traced get or
 * scan alternates between calling the owning tree (kGet, kScan) and the
 * store (kStoreGet, kStoreScan), whose tree call cannot be split out
 * from outside; their p50 difference is the store's overhead.
 */
enum class OpType : std::uint8_t {
    kGet,
    kStoreGet,
    kUpdate,
    kScan,
    kStoreScan,
    kInsert,
    kRemove,
    kVerify,
    kNum
};
const char *opTypeName(OpType t);

enum class SpanName : std::uint8_t {
    kOp, ///< the op's root span (bench layer)
    kStoreShardOf,
    kStoreGet,
    kStoreScan,
    kStorePut,
    kStoreRemove,
    kEpochGateEnter,
    kTreeGet,
    kTreePut,
    kTreeScan,
    kAllocValue,
    kFreeValue,
    kFreeValueFor,
    kPmemcpy,
    kNum
};
const char *spanName(SpanName n);
const char *spanLayer(SpanName n);

class Tracer
{
  public:
    static constexpr std::uint64_t kKeepEvery = 64;
    static constexpr std::size_t kKeepMax = 1u << 16;

    struct Span
    {
        std::uint64_t op;
        std::uint64_t start;
        std::uint64_t end;
        std::uint64_t gateNs;
        std::uint32_t parent; ///< index in kept(), or kNoParent
        OpType type;
        SpanName name;
    };
    static constexpr std::uint32_t kNoParent = ~0u;

    struct Agg
    {
        incll::obs::HistSnapshot dur;
        std::uint64_t selfNs = 0; ///< duration − children − own gate wait
        std::uint64_t gateNs = 0; ///< gate wait inside the call itself
    };

    /** Open the root span of op @p op. */
    void beginOp(OpType type, std::uint64_t op);
    /** Open a child of the innermost open span. */
    void begin(SpanName name);
    /** Close the innermost open span. */
    void end();

    /** Record a finished root span with no children (overlapping ops
     *  such as pipelined wire requests cannot nest on the stack). */
    void record(OpType type, std::uint64_t op, std::uint64_t start,
                std::uint64_t end);

    /** Run @p f inside a span named @p name. */
    template <typename F>
    decltype(auto)
    span(SpanName name, F &&f)
    {
        struct Closer
        {
            Tracer &t;
            ~Closer() { t.end(); }
        };
        begin(name);
        Closer c{*this};
        return f();
    }

    const Agg &
    agg(OpType t, SpanName n) const
    {
        return agg_[static_cast<unsigned>(t)][static_cast<unsigned>(n)];
    }
    void merge(const Tracer &o);
    const std::vector<Span> &kept() const { return kept_; }

  private:
    struct Open
    {
        std::uint64_t start = 0;
        std::uint64_t gate0 = 0;
        std::uint64_t childNs = 0;
        std::uint64_t childGateNs = 0;
        std::uint32_t keptIdx = kNoParent;
        SpanName name = SpanName::kOp;
    };

    std::array<std::array<Agg, static_cast<unsigned>(SpanName::kNum)>,
               static_cast<unsigned>(OpType::kNum)>
        agg_{};
    std::array<Open, 8> stack_{};
    unsigned depth_ = 0;
    OpType type_ = OpType::kGet;
    std::uint64_t op_ = 0;
    bool keep_ = false;
    std::vector<Span> kept_;
};

/** One per-layer metric of the ledger. */
struct LayerMetric
{
    const char *name;
    const char *unit;
    const char *moves; ///< the end-to-end metric it should move
    const char *on;    ///< the workloads it applies to
};
const std::vector<LayerMetric> &layerMetrics();

/**
 * Print the self-time ledger of every op type the tracer saw, next to
 * the untraced p50 of the same op type (@p untracedP50Us, keyed by
 * opTypeName).
 */
void printSelfTimeLedger(const Tracer &t,
                         const std::map<std::string, double> &untracedP50Us);
/** Write the kept spans to @p path, one tab-separated line each. */
void writeSpans(const Tracer &t, const std::string &path);

/**
 * Fill @p r with every per-layer metric (0 where @p values has none:
 * the layer does no such work on this workload) and print the ledger
 * table with the end-to-end metric each row should move.
 */
void finishLayerMetrics(Result &r, const std::map<std::string, double> &values);

} // namespace perfbench
