/**
 * @file
 * Emulated NVM latency model.
 *
 * The paper evaluates on DRAM and emulates slower NVM by adding an
 * artificial delay after sfence instructions (§6, Figures 3 and 8). We
 * reproduce that methodology: a calibrated busy-wait is inserted after
 * each simulated persist fence, and a fixed stall models the global cache
 * flush (wbinvd, measured at 1.38-1.39 ms in §6.2) when the pool is not
 * tracking cache lines.
 */
#pragma once

#include <cstdint>

namespace incll::nvm {

/** The paper's measured global cache flush: wbinvd at 1.38 ms (§6.2). */
inline constexpr std::uint64_t kPaperWbinvdNs = 1380000;

/** Busy-wait for approximately @p ns nanoseconds. */
void spinNs(std::uint64_t ns);

/** Emulated latencies applied by a Pool; all default to zero. */
struct LatencyModel
{
    /** Extra delay after every sfence (paper sweeps 0-1000 ns). */
    std::uint64_t sfenceExtraNs = 0;

    /**
     * Cost of one global cache flush in fast (untracked) mode. The
     * benchmarks and incll_server set it to kPaperWbinvdNs to reproduce
     * the 2.2% epoch-flush overhead of §6.2.
     */
    std::uint64_t wbinvdNs = 0;
};

} // namespace incll::nvm
