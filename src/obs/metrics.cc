/**
 * @file
 * Histogram table and slow-op ring implementation.
 */
#include "obs/metrics.h"

#include <array>

namespace incll::obs {

// --- Histogram table ---------------------------------------------------

const char *
histName(Hist h)
{
    switch (h) {
      case Hist::kStoreGetNs:        return "store_get_ns";
      case Hist::kStorePutNs:        return "store_put_ns";
      case Hist::kStoreRemoveNs:     return "store_remove_ns";
      case Hist::kStoreScanNs:       return "store_scan_ns";
      case Hist::kStoreMultiGetNs:   return "store_multiget_ns";
      case Hist::kStoreMultiPutNs:   return "store_multiput_ns";
      case Hist::kServerGetNs:       return "server_get_ns";
      case Hist::kServerPutNs:       return "server_put_ns";
      case Hist::kServerRemoveNs:    return "server_remove_ns";
      case Hist::kServerScanNs:      return "server_scan_ns";
      case Hist::kServerBatchFlushNs: return "server_batch_flush_ns";
      case Hist::kEpochBoundaryNs:   return "hist_epoch_boundary_ns";
      case Hist::kGateWaitNs:        return "hist_gate_wait_ns";
      case Hist::kMigrationPauseNs:  return "migration_pause_ns";
      case Hist::kMigrationGraceNs:  return "migration_grace_ns";
      case Hist::kNumHists:          break;
    }
    return "unknown";
}

Histogram &
hist(Hist h)
{
    static std::array<Histogram, static_cast<unsigned>(Hist::kNumHists)>
        table;
    return table[static_cast<unsigned>(h)];
}

std::uint64_t &
threadGateWaitNs()
{
    thread_local std::uint64_t ns = 0;
    return ns;
}

// --- Slow-op ring ------------------------------------------------------

void
SlowOpRing::record(const char *op, int shard, std::uint64_t seq,
                   std::uint64_t totalNs, std::uint64_t queueNs,
                   std::uint64_t gateNs, std::uint64_t storeNs,
                   std::uint64_t flushNs)
{
    const std::size_t idx =
        head_.fetch_add(1, std::memory_order_relaxed) & (kSlots - 1);
    Slot &s = slots_[idx];
    // Seqlock write: odd version while the payload is inconsistent.
    s.version.fetch_add(1, std::memory_order_acq_rel);
    s.tsNs.store(steadyNowNs(), std::memory_order_relaxed);
    s.op.store(op, std::memory_order_relaxed);
    s.shard.store(shard, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_relaxed);
    s.totalNs.store(totalNs, std::memory_order_relaxed);
    s.queueNs.store(queueNs, std::memory_order_relaxed);
    s.gateNs.store(gateNs, std::memory_order_relaxed);
    s.storeNs.store(storeNs, std::memory_order_relaxed);
    s.flushNs.store(flushNs, std::memory_order_relaxed);
    s.version.fetch_add(1, std::memory_order_release);
}

std::vector<SlowOpRing::Entry>
SlowOpRing::dump() const
{
    std::vector<Entry> out;
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t n = head < kSlots ? head : kSlots;
    for (std::uint64_t back = 1; back <= n; ++back) {
        const Slot &s = slots_[(head - back) & (kSlots - 1)];
        const std::uint64_t v0 = s.version.load(std::memory_order_acquire);
        if (v0 == 0 || (v0 & 1))
            continue; // never written, or mid-write
        Entry e;
        e.tsNs = s.tsNs.load(std::memory_order_relaxed);
        e.op = s.op.load(std::memory_order_relaxed);
        e.shard = s.shard.load(std::memory_order_relaxed);
        e.seq = s.seq.load(std::memory_order_relaxed);
        e.totalNs = s.totalNs.load(std::memory_order_relaxed);
        e.queueNs = s.queueNs.load(std::memory_order_relaxed);
        e.gateNs = s.gateNs.load(std::memory_order_relaxed);
        e.storeNs = s.storeNs.load(std::memory_order_relaxed);
        e.flushNs = s.flushNs.load(std::memory_order_relaxed);
        if (s.version.load(std::memory_order_acquire) != v0)
            continue; // overwritten while reading
        out.push_back(e);
    }
    return out;
}

SlowOpRing &
slowOps()
{
    static SlowOpRing ring;
    return ring;
}

} // namespace incll::obs
