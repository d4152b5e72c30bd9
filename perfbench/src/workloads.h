/**
 * @file
 * The four workloads and the end-to-end result they share.
 */
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/** The end-to-end metrics of one untraced run. */
struct E2e
{
    double throughput = 0; ///< ops/s, steadyRate() over rounds
    double opP50 = 0;      ///< every timed op, µs
    double opP99 = 0;
    double spaceAmp = 0;
    double setupS = 0;
    /** Throughput of each round (cycle, for crash_recover), in order. */
    std::vector<double> roundRates;
    /** p50 and p99 of each round's timed ops, µs. */
    std::vector<double> roundP50, roundP99;
    /** Per-op-type and workload-specific figures, for the report. */
    struct Named
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Named> named;
};

/** Print the end-to-end report of @p e and put the gated metrics in @p r. */
void finishE2e(Result &r, const E2e &e, const std::vector<double> &setups);

Result runYcsbA(const Args &a);
Result runScanRange(const Args &a);
Result runWirePoint(const Args &a);
Result runCrashRecover(const Args &a);

} // namespace perfbench
