/**
 * @file
 * Exposition formatting.
 */
#include "obs/export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <iterator>

namespace incll::obs {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, static_cast<std::size_t>(
                            n < static_cast<int>(sizeof(buf))
                                ? n
                                : static_cast<int>(sizeof(buf)) - 1));
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20)
                appendf(out, "\\u%04x", ch);
            else
                out += ch;
        }
    }
    return out;
}

constexpr double kQuantiles[] = {50.0, 95.0, 99.0, 99.9};
constexpr const char *kQuantileLabels[] = {"0.5", "0.95", "0.99", "0.999"};
constexpr const char *kQuantileJsonKeys[] = {"p50", "p95", "p99", "p999"};

/** Exposition name of a counter: `name` or `name{shard="N"}`. */
std::string
counterExpositionName(const CounterValue &cv)
{
    std::string out(cv.name);
    if (cv.shard >= 0) {
        out += "{shard=\"";
        out += std::to_string(cv.shard);
        out += "\"}";
    }
    return out;
}

} // namespace

// --- Collection --------------------------------------------------------

Exposition
collectGlobal()
{
    Exposition e;
    e.counters = globalStats().counters();
    for (unsigned h = 0; h < static_cast<unsigned>(Hist::kNumHists); ++h) {
        const auto hh = static_cast<Hist>(h);
        e.hists.push_back({histName(hh), hist(hh).snapshot()});
    }
    e.slowOps = slowOps().dump();
    return e;
}

// --- Prometheus text ---------------------------------------------------

std::string
renderPrometheus(const Exposition &e)
{
    std::string out;
    out.reserve(4096);

    // Counters arrive grouped by family, so each family gets one TYPE
    // line with its (possibly shard-labelled) children under it.
    for (std::size_t i = 0; i < e.counters.size(); ++i) {
        const auto &cv = e.counters[i];
        if (i == 0 || cv.name != e.counters[i - 1].name)
            appendf(out, "# TYPE %.*s counter\n",
                    static_cast<int>(cv.name.size()), cv.name.data());
        out += counterExpositionName(cv);
        appendf(out, " %" PRIu64 "\n", cv.value);
    }

    // Histograms as Prometheus summaries: precomputed quantiles plus
    // _sum/_count (scrapers derive rates/averages from the latter).
    for (const auto &h : e.hists) {
        appendf(out, "# TYPE %s summary\n", h.name.c_str());
        for (std::size_t q = 0; q < std::size(kQuantiles); ++q)
            appendf(out, "%s{quantile=\"%s\"} %.6g\n", h.name.c_str(),
                    kQuantileLabels[q], h.snap.percentile(kQuantiles[q]));
        appendf(out, "%s_sum %" PRIu64 "\n", h.name.c_str(), h.snap.sum);
        appendf(out, "%s_count %" PRIu64 "\n", h.name.c_str(),
                h.snap.count);
    }
    return out;
}

// --- JSON --------------------------------------------------------------

std::string
renderJson(const Exposition &e)
{
    std::string out;
    out.reserve(4096);
    out += "{\n  \"counters\": {";
    for (std::size_t i = 0; i < e.counters.size(); ++i) {
        const auto &cv = e.counters[i];
        appendf(out, "%s\n    \"%s\": %" PRIu64, i ? "," : "",
                jsonEscape(counterExpositionName(cv)).c_str(), cv.value);
    }
    out += "\n  },\n  \"histograms\": {";
    for (std::size_t i = 0; i < e.hists.size(); ++i) {
        const auto &h = e.hists[i];
        appendf(out,
                "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                ", \"mean\": %.6g",
                i ? "," : "", jsonEscape(h.name).c_str(), h.snap.count,
                h.snap.sum, h.snap.mean());
        for (std::size_t q = 0; q < std::size(kQuantiles); ++q)
            appendf(out, ", \"%s\": %.6g", kQuantileJsonKeys[q],
                    h.snap.percentile(kQuantiles[q]));
        out += "}";
    }
    out += "\n  },\n  \"slow_ops\": [";
    for (std::size_t i = 0; i < e.slowOps.size(); ++i) {
        const auto &s = e.slowOps[i];
        appendf(out,
                "%s\n    {\"ts_ns\": %" PRIu64
                ", \"op\": \"%s\", \"shard\": %d, \"seq\": %" PRIu64
                ", \"total_ns\": %" PRIu64 ", \"queue_ns\": %" PRIu64
                ", \"gate_ns\": %" PRIu64 ", \"store_ns\": %" PRIu64
                ", \"flush_ns\": %" PRIu64 "}",
                i ? "," : "", s.tsNs,
                jsonEscape(s.op ? s.op : "?").c_str(), s.shard, s.seq,
                s.totalNs, s.queueNs, s.gateNs, s.storeNs, s.flushNs);
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace incll::obs
