#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

const char *
opTypeName(OpType t)
{
    switch (t) {
      case OpType::kGet: return "get";
      case OpType::kStoreGet: return "get_via_store";
      case OpType::kUpdate: return "update";
      case OpType::kScan: return "scan";
      case OpType::kStoreScan: return "scan_via_store";
      case OpType::kInsert: return "insert";
      case OpType::kRemove: return "remove";
      case OpType::kVerify: return "verify_get";
      case OpType::kNum: break;
    }
    return "?";
}

namespace {

struct SpanInfo
{
    const char *name;
    const char *layer;
};

constexpr SpanInfo kSpans[] = {
    {"op", "bench"},
    {"store.shardOf", "store"},
    {"store.get", "store"},
    {"store.scan", "store"},
    {"store.put", "store"},
    {"store.remove", "store"},
    {"epoch.gateEnter", "epoch"},
    {"masstree.get", "masstree"},
    {"masstree.put", "masstree"},
    {"masstree.scan", "masstree"},
    {"alloc.allocValue", "alloc"},
    {"alloc.freeValue", "alloc"},
    {"alloc.freeValueFor", "alloc"},
    {"nvm.pmemcpy", "nvm"},
};
static_assert(std::size(kSpans) == static_cast<unsigned>(SpanName::kNum));

/** Layers in ledger order; "epoch" also collects gate wait. */
constexpr const char *kLayers[] = {"bench", "store", "epoch", "masstree",
                                   "alloc", "nvm"};

} // namespace

const char *
spanName(SpanName n)
{
    return kSpans[static_cast<unsigned>(n)].name;
}

const char *
spanLayer(SpanName n)
{
    return kSpans[static_cast<unsigned>(n)].layer;
}

void
Tracer::beginOp(OpType type, std::uint64_t op)
{
    type_ = type;
    op_ = op;
    keep_ = op % kKeepEvery == 0 && kept_.size() + 8 <= kKeepMax;
    begin(SpanName::kOp);
}

void
Tracer::begin(SpanName name)
{
    Open &o = stack_[depth_];
    o.name = name;
    o.childNs = 0;
    o.childGateNs = 0;
    o.keptIdx = kNoParent;
    if (keep_) {
        o.keptIdx = static_cast<std::uint32_t>(kept_.size());
        kept_.push_back({op_, 0, 0, 0,
                         depth_ > 0 ? stack_[depth_ - 1].keptIdx : kNoParent,
                         type_, name});
    }
    ++depth_;
    o.gate0 = incll::obs::threadGateWaitNs();
    o.start = nowNs();
}

void
Tracer::end()
{
    const std::uint64_t t = nowNs();
    const std::uint64_t gate = incll::obs::threadGateWaitNs();
    Open &o = stack_[--depth_];
    const std::uint64_t dur = t - o.start;
    const std::uint64_t gateNs = gate - o.gate0;
    const std::uint64_t ownGate =
        gateNs > o.childGateNs ? gateNs - o.childGateNs : 0;
    const std::uint64_t covered = o.childNs + ownGate;
    Agg &a = agg_[static_cast<unsigned>(type_)][static_cast<unsigned>(o.name)];
    a.dur.record(dur);
    a.selfNs += dur > covered ? dur - covered : 0;
    a.gateNs += ownGate;
    if (depth_ > 0) {
        stack_[depth_ - 1].childNs += dur;
        stack_[depth_ - 1].childGateNs += gateNs;
    }
    if (o.keptIdx != kNoParent) {
        Span &s = kept_[o.keptIdx];
        s.start = o.start;
        s.end = t;
        s.gateNs = gateNs;
    }
}

void
Tracer::record(OpType type, std::uint64_t op, std::uint64_t start,
               std::uint64_t end)
{
    Agg &a = agg_[static_cast<unsigned>(type)][0];
    a.dur.record(end - start);
    a.selfNs += end - start;
    if (op % kKeepEvery == 0 && kept_.size() < kKeepMax)
        kept_.push_back({op, start, end, 0, kNoParent, type, SpanName::kOp});
}

void
Tracer::merge(const Tracer &o)
{
    for (unsigned t = 0; t < agg_.size(); ++t) {
        for (unsigned n = 0; n < agg_[t].size(); ++n) {
            agg_[t][n].dur.add(o.agg_[t][n].dur);
            agg_[t][n].selfNs += o.agg_[t][n].selfNs;
            agg_[t][n].gateNs += o.agg_[t][n].gateNs;
        }
    }
    // Parents index the thread's own list; shift them past ours.
    const auto offset = static_cast<std::uint32_t>(kept_.size());
    for (Span s : o.kept_) {
        if (s.parent != kNoParent)
            s.parent += offset;
        kept_.push_back(s);
    }
}

void
printSelfTimeLedger(const Tracer &t,
                    const std::map<std::string, double> &untracedP50Us)
{
    std::printf("# self-time ledger: mean ns per op that each layer spends "
                "outside its children (epoch = gate wait)\n");
    for (unsigned ti = 0; ti < static_cast<unsigned>(OpType::kNum); ++ti) {
        const auto type = static_cast<OpType>(ti);
        const auto &root = t.agg(type, SpanName::kOp);
        if (root.dur.count == 0)
            continue;
        const double ops = static_cast<double>(root.dur.count);
        const auto it = untracedP50Us.find(opTypeName(type));
        std::printf("  op=%-10s ops=%-10llu untraced_p50_us=%-10.4f "
                    "traced_p50_us=%-10.4f traced_mean_us=%.4f\n",
                    opTypeName(type),
                    static_cast<unsigned long long>(root.dur.count),
                    it == untracedP50Us.end() ? 0.0 : it->second,
                    root.dur.percentile(50) / 1000.0,
                    root.dur.mean() / 1000.0);
        double sum = 0.0;
        for (const char *layer : kLayers) {
            double self = 0.0;
            for (unsigned n = 0; n < static_cast<unsigned>(SpanName::kNum);
                 ++n) {
                const auto &a = t.agg(type, static_cast<SpanName>(n));
                if (std::strcmp(layer, "epoch") == 0)
                    self += static_cast<double>(a.gateNs);
                if (std::strcmp(spanLayer(static_cast<SpanName>(n)), layer) ==
                    0)
                    self += static_cast<double>(a.selfNs);
            }
            sum += self / ops;
            std::printf("    %-9s %10.1f ns/op\n", layer, self / ops);
        }
        std::printf("    %-9s %10.1f ns/op (traced mean %.1f)\n", "sum", sum,
                    root.dur.mean());
        for (unsigned n = 1; n < static_cast<unsigned>(SpanName::kNum); ++n) {
            const auto &a = t.agg(type, static_cast<SpanName>(n));
            if (a.dur.count == 0)
                continue;
            std::printf("      span %-20s calls/op=%.3f p50_ns=%.1f "
                        "p99_ns=%.1f\n",
                        spanName(static_cast<SpanName>(n)),
                        static_cast<double>(a.dur.count) / ops,
                        a.dur.percentile(50), a.dur.percentile(99));
        }
    }
}

void
writeSpans(const Tracer &t, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "op\top_type\tname\tlayer\tstart_ns\tend_ns\tparent\t"
                    "gate_wait_ns\n");
    for (const auto &s : t.kept()) {
        std::fprintf(f, "%llu\t%s\t%s\t%s\t%llu\t%llu\t%lld\t%llu\n",
                     static_cast<unsigned long long>(s.op),
                     opTypeName(s.type), spanName(s.name), spanLayer(s.name),
                     static_cast<unsigned long long>(s.start),
                     static_cast<unsigned long long>(s.end),
                     s.parent == Tracer::kNoParent
                         ? -1LL
                         : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.gateNs));
    }
    std::fclose(f);
    std::printf("# %zu spans written to %s\n", t.kept().size(), path.c_str());
}

const std::vector<LayerMetric> &
layerMetrics()
{
    static const std::vector<LayerMetric> kMetrics = {
        {"nvm.sfence_per_op", "count", "put_p99_us", "all but scan_range (0 there)"},
        {"nvm.clwb_per_op", "count", "put_p99_us", "all but scan_range (0 there)"},
        {"nvm.wbinvd_per_s", "1/s", "throughput_ops_s", "all"},
        {"nvm.pool_used_mb", "MiB", "space_amp", "all"},
        {"masstree.get_p50_ns", "ns", "get_p50_us", "ycsb_a_zipf"},
        {"masstree.put_p50_ns", "ns", "put_p50_us", "ycsb_a_zipf"},
        {"masstree.put_p99_ns", "ns", "put_p99_us", "ycsb_a_zipf"},
        {"masstree.scan_p50_ns", "ns", "scan_p50_us", "scan_range"},
        {"masstree.incll_per_put", "count", "put_p99_us", "ycsb_a_zipf wire_point crash_recover"},
        {"masstree.lazy_recoveries", "count", "recovery_ms", "crash_recover"},
        {"log.nodes_per_put", "count", "put_p99_us", "ycsb_a_zipf wire_point crash_recover"},
        {"log.bytes_per_put", "B", "put_p99_us", "ycsb_a_zipf wire_point crash_recover"},
        {"log.entries_applied", "count", "recovery_ms", "crash_recover"},
        {"log.reserved_mb", "MiB", "space_amp", "all"},
        {"alloc.alloc_p50_ns", "ns", "put_p50_us", "ycsb_a_zipf crash_recover"},
        {"alloc.free_p50_ns", "ns", "put_p50_us", "ycsb_a_zipf crash_recover"},
        {"alloc.fast_path_frac", "ratio", "put_p50_us", "ycsb_a_zipf wire_point crash_recover"},
        {"alloc.cas_retries_per_alloc", "count", "put_p99_us", "ycsb_a_zipf wire_point crash_recover"},
        {"epoch.boundary_ms", "ms", "throughput_ops_s", "all"},
        {"epoch.advances_per_s", "1/s", "throughput_ops_s", "all (read beside throughput)"},
        {"epoch.gate_wait_frac", "ratio", "throughput_ops_s get_p99_us", "ycsb_a_zipf scan_range wire_point (executor)"},
        {"store.get_overhead_ns", "ns", "get_p50_us", "ycsb_a_zipf"},
        {"store.scan_overhead_ns", "ns", "scan_p50_us", "scan_range"},
        {"store.shards_per_scan", "count", "scan_p50_us", "scan_range"},
        {"store.multiget_p50_us", "us", "get_p50_us", "wire_point"},
        {"store.install_batch_p50_us", "us", "put_p50_us", "wire_point"},
        {"store.recovery_ms", "ms", "recovery_ms", "crash_recover"},
        {"service.busy_frac", "ratio", "throughput_ops_s", "ycsb_a_zipf scan_range wire_point"},
        {"server.exec_cpu_frac", "ratio", "throughput_ops_s", "wire_point"},
        {"server.io_cpu_frac", "ratio", "throughput_ops_s", "wire_point"},
        {"server.writes_per_op", "count", "throughput_ops_s", "wire_point"},
        {"server.ops_per_batch", "count", "throughput_ops_s", "wire_point"},
        {"server.get_p50_us", "us", "get_p50_us", "wire_point"},
        {"server.put_p50_us", "us", "put_p50_us", "wire_point"},
        {"server.flush_p50_us", "us", "get_p50_us put_p50_us", "wire_point"},
        {"bench.client_cpu_frac", "ratio", "none (must stay well under 1)", "wire_point"},
        {"bench.trace_overhead_frac", "ratio", "none (what tracing costs)", "all"},
    };
    return kMetrics;
}

void
finishLayerMetrics(Result &r, const std::map<std::string, double> &values)
{
    std::printf("# layer ledger: %-28s %14s %-6s  should move -> on\n",
                "metric", "value", "unit");
    for (const LayerMetric &m : layerMetrics()) {
        const auto it = values.find(m.name);
        const double v = it == values.end() ? 0.0 : it->second;
        std::printf("  %-8.*s %-30s %14.6f %-6s  %s -> %s\n",
                    static_cast<int>(std::strchr(m.name, '.') - m.name),
                    m.name, m.name, v, m.unit, m.moves, m.on);
        r.set(m.name, v, m.unit);
    }
}

} // namespace perfbench
