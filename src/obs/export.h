/**
 * @file
 * Metric exposition: Prometheus-text and JSON rendering of a collected
 * view of the counters, histograms and slow-op ring.
 *
 * Rendering is split from collection so tests can build a fully
 * deterministic Exposition (a local StatSet, hand-filled snapshots) and
 * golden-test the formatter, while the server renders collectGlobal().
 */
#pragma once

#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace incll::obs {

/** A collected, render-ready view of the metric state. */
struct Exposition
{
    struct HistEntry
    {
        std::string name;
        HistSnapshot snap;
    };

    /** Grouped by family: a family's total and children contiguous
     *  (StatSet::counters() order). */
    std::vector<CounterValue> counters;
    std::vector<HistEntry> hists;
    std::vector<SlowOpRing::Entry> slowOps;
};

/**
 * Collect globalStats(), every well-known histogram and the slow-op
 * ring into one render-ready view.
 */
Exposition collectGlobal();

/**
 * Prometheus text format: `# TYPE` lines, counters, and histograms as
 * summaries (`name{quantile="0.99"} v` + _sum/_count).
 */
std::string renderPrometheus(const Exposition &e);

/** JSON object with counters/histograms/slow_ops. */
std::string renderJson(const Exposition &e);

} // namespace incll::obs
