#!/usr/bin/env bash
# CI-sized bench suite with machine-readable output.
#
#   scripts/bench.sh                 # build Release benches, write bench-results/BENCH_*.json
#   scripts/bench.sh server          # networked front-end: incll_server + bench_loadgen
#                                    # -> bench-results/BENCH_server.json (wire throughput,
#                                    #    latency percentiles, and the in-process baseline
#                                    #    ratio the acceptance bar reads)
#   OUT_DIR=out scripts/bench.sh     # choose the output directory
#   BUILD_DIR=build-rel scripts/bench.sh
#
# Runs the figure benches at the CI operating point (see EXPERIMENTS.md),
# fig2/fig4 at both --shards 1 and --shards 4, fig2 additionally with
# --placement range (vs the hash default, so the YCSB_E rows capture the
# scan-locality delta: scan_shards_per_scan ~1 under range vs 4 under
# hash — the gather-merge bypassed), fig4 additionally batched, and the
# recovery-time bench at both shard counts plus a range-placement run
# (exercising boundary-table recovery), and the online-rebalancing
# bench (shifting-hotspot YCSB with/without the Rebalancer,
# BENCH_rebalance.json with pause percentiles), and the elastic-topology
# bench (cold-merge + hot-add phases, BENCH_elasticity.json with the
# topology transition counters). Each binary writes one BENCH_*.json;
# CI uploads them so perf numbers accumulate per PR.
set -euo pipefail
cd "$(dirname "$0")/.."

builddir="${BUILD_DIR:-build-bench}"
outdir="${OUT_DIR:-bench-results}"
jobs="$(nproc 2>/dev/null || echo 2)"

# CI-sized knobs: small enough for a shared runner, big enough to see
# MT/MT+/INCLL separation. Override via BENCH_ARGS.
args=(${BENCH_ARGS:---keys 50000 --ops 25000 --threads 2})

# `bench.sh server`: the networked operating point. Starts incll_server
# on an ephemeral port (parsing its READY line rather than sleeping
# blind), drives it with bench_loadgen — closed loop, MULTI batching —
# and has the loadgen also run the identically-shaped in-process batched
# baseline, so BENCH_server.json carries wire + baseline rows and their
# honest ratio in one file.
if [[ "${1:-}" == "server" ]]; then
  cmake -B "$builddir" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$builddir" -j "$jobs" --target incll_server bench_loadgen
  mkdir -p "$outdir"
  # Operating point (see EXPERIMENTS.md "Networked front-end"): wide
  # MULTI frames amortise the per-syscall cost, one IO + one executor
  # thread keeps the context-switch bill down on small runners. On a
  # single-core runner the loadgen client time-slices with the server
  # while the in-process baseline keeps the whole core, so the reported
  # wire_fraction there understates multi-core reality.
  # Observability is on for the bench run: store-level op histograms
  # (--record-op-latency) and slow-op tracing at a generous threshold.
  # The loadgen's --stats probes then validate the kStats exposition
  # mid-load and fold the server-side percentiles into
  # BENCH_server.json.
  srv_keys=50000
  "$builddir/incll_server" --port 0 --shards 4 --keys "$srv_keys" \
      --io-threads 1 --exec-threads 1 \
      --adaptive-debt-mb 64 \
      --record-op-latency --slow-op-us 500 \
      > "$outdir/server.out" 2> "$outdir/server.err" &
  srv_pid=$!
  trap 'kill "$srv_pid" 2>/dev/null || true' EXIT
  port=""
  for _ in $(seq 1 150); do
    port="$(sed -n 's/^READY port=\([0-9]*\).*/\1/p' "$outdir/server.out")"
    [[ -n "$port" ]] && break
    sleep 0.2
  done
  if [[ -z "$port" ]]; then
    echo "incll_server failed to start:" >&2
    cat "$outdir/server.err" >&2
    exit 1
  fi
  echo "== bench_loadgen against incll_server on port $port"
  "$builddir/bench_loadgen" --port "$port" --connections 2 --pipeline 2 \
      --ops 400000 --keys "$srv_keys" --read-pct 95 --multi 256 \
      --baseline --shards 4 --batch 256 --stats \
      --json "$outdir/BENCH_server.json"
  kill "$srv_pid" 2>/dev/null || true
  wait "$srv_pid" 2>/dev/null || true
  trap - EXIT
  echo "wrote:"
  ls -l "$outdir/BENCH_server.json"
  exit 0
fi

cmake -B "$builddir" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$builddir" -j "$jobs" --target benches
mkdir -p "$outdir"

run() { # run NAME OUTFILE [extra args...]
  local name="$1" out="$2"
  shift 2
  echo "== bench_$name $* -> $outdir/$out"
  "$builddir/bench_$name" "${args[@]}" "$@" --json "$outdir/$out"
}

run fig2_throughput  BENCH_fig2_shards1.json --shards 1
run fig2_throughput  BENCH_fig2_shards4.json --shards 4
run fig2_throughput  BENCH_fig2_shards4_range.json --shards 4 --placement range
# fig4 runs at a 2 ms epoch so the CI-sized workload crosses several
# boundaries per run — that makes the epoch-boundary cost columns
# (epoch_advances / epoch_boundary_ms / gate_wait_ms) meaningful.
run fig4_threads     BENCH_fig4_shards1.json --shards 1 --epoch-ms 2
run fig4_threads     BENCH_fig4_shards4.json --shards 4 --epoch-ms 2
run fig4_threads     BENCH_fig4_shards4_batch8.json \
                     --shards 4 --epoch-ms 2 --batch 8
run fig3_latency     BENCH_fig3.json
run fig5_treesize    BENCH_fig5.json --ops 10000
run recovery_time    BENCH_recovery_shards1.json --shards 1
run recovery_time    BENCH_recovery_shards4.json --shards 4
run recovery_time    BENCH_recovery_shards4_range.json --shards 4 --placement range
# Online rebalancing: shifting-hotspot YCSB_A over an ordered-key range
# store — uniform baseline, hotspot with frozen boundaries, hotspot
# with the Rebalancer splitting the hot shard live (recovered fraction
# + migration commit-pause percentiles in the JSON). Longer than the
# default run so the detection loop gets several ticks.
run rebalance        BENCH_rebalance.json --shards 4 --ops 100000 \
                     --rebalance --rebalance-ms 5
# Elastic topology: same ordered-key range store, but the Rebalancer may
# change the member set — a cold shard is merged + retired under steady
# load (cold_merge phase) and a two-shard-wide hotspot forces a split
# into a brand-new member (hot_add phase). Counters + final shard count
# + commit-pause percentiles land in the JSON.
run elasticity       BENCH_elasticity.json --shards 4 --ops 100000 \
                     --rebalance-ms 5
# Allocator hot path: 100%-update batched churn with larger values
# (lockfree rows through the store, lockfree_direct rows hitting the
# allocator without the tree in front; each with fast-path/CAS-retry
# counters). More threads than arenas — shared-list contention is what
# the lock-free path exists for.
run alloc_churn      BENCH_alloc.json --threads 8 --alloc-arenas 2 \
                     --value-bytes 512 --batch 64 --epoch-ms 2

echo "wrote:"
ls -l "$outdir"/BENCH_*.json

# With a prior run's results available, diff the fresh numbers against
# them and flag >10% throughput regressions (warn-only: a noisy shared
# runner must not block the pipeline; run bench_compare.py by hand with
# --fail-on-regress for strict local gating).
if [[ -n "${BENCH_BASELINE_DIR:-}" && -d "${BENCH_BASELINE_DIR}" ]]; then
  echo "== bench_compare vs ${BENCH_BASELINE_DIR}"
  python3 scripts/bench_compare.py "${BENCH_BASELINE_DIR}" "$outdir" || true
fi
