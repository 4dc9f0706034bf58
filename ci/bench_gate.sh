#!/usr/bin/env bash
# Bench-regression gate: measure the structures, simulators, runner,
# replay, wdl, serve, and cluster suites fresh and compare them against
# the committed BENCH_structures.json / BENCH_simulators.json /
# BENCH_runner.json / BENCH_replay.json / BENCH_wdl.json /
# BENCH_serve.json / BENCH_cluster.json baselines. Three suites
# additionally carry absolute, machine-independent claims checked within
# the fresh report: trace capture must stay within 2.5x of bare
# emulation, restart-warm serving (cache prewarmed from the durable
# store) must stay within 10x of steady-warm serving, and both warm
# gateway grids must stay >= 3x faster than the cold grid: a repeated
# grid (answered from the gateway's merged-document cache) and a
# reordered grid (scattered, every cell answered from the backends'
# per-cell result caches).
#
# The comparison (see crates/bench/src/bin/bench_gate.rs) normalizes by
# the suite's median fresh/baseline ratio, so a uniformly slower CI
# runner passes while a single benchmark regressing relative to its
# peers fails, and it fails when a baseline benchmark is missing from the
# fresh report. MDS_BENCH_TOLERANCE (default 1.6) sets the headroom.
#
# Knobs for faster CI runs: the harness honors MDS_BENCH_WARMUP_MS,
# MDS_BENCH_BATCH_MS, MDS_BENCH_BATCHES, MDS_BENCH_MAX_MS.
set -euo pipefail

cd "$(dirname "$0")/.."

fresh_dir=$(mktemp -d)
trap 'rm -rf "$fresh_dir"' EXIT

echo "==> building the bench suite and the gate"
cargo build --release --offline -p mds-bench --benches --bins

# The structures suite times single operations of a few nanoseconds, so
# one contended batch moves a median much further than in the
# millisecond-scale suites. It always runs 25 batches and gets wider
# headroom: on a shared 2-vCPU host its worst benchmark reached 2.1x the
# suite's median ratio with nothing changed.
echo "==> measuring the structures suite"
MDS_BENCH_DIR="$fresh_dir" \
MDS_BENCH_BATCHES=25 \
  cargo bench -q --offline -p mds-bench --bench structures -- --scale small

echo "==> comparing the structures suite against its committed baseline"
MDS_BENCH_TOLERANCE=2.5 \
  target/release/bench_gate BENCH_structures.json "$fresh_dir/BENCH_structures.json"

echo "==> measuring the simulators suite (small scale)"
MDS_BENCH_DIR="$fresh_dir" cargo bench -q --offline -p mds-bench \
  --bench simulators -- --scale small

echo "==> comparing against the committed baseline"
target/release/bench_gate BENCH_simulators.json "$fresh_dir/BENCH_simulators.json"

# Capture is the emulator's loop committing straight into the replay-plan
# builder, so it must stay within 2.5x of bare emulation (the emulator
# series, the same loop into a counting sink, is at least 0.4x as slow).
echo "==> checking the capture claim (capture within 2.5x of emulation)"
target/release/bench_gate --min-speedup "$fresh_dir/BENCH_simulators.json" \
  emulator/compress_small capture/compress_small 0.4

# The runner suite times the scheduler itself: naive per-cell emulation
# against the runner at 1/2/4 workers over one fixed tiny-scale grid.
echo "==> measuring the runner suite (tiny scale)"
MDS_BENCH_DIR="$fresh_dir" cargo bench -q --offline -p mds-bench \
  --bench runner -- --scale tiny

echo "==> comparing the runner suite against its committed baseline"
target/release/bench_gate BENCH_runner.json "$fresh_dir/BENCH_runner.json"

# The replay suite's headline benchmarks run ~0.5s per iteration; give
# the harness a longer wall-clock guard so each one collects its full 25
# batches, which keeps the medians robust on a noisy runner.
echo "==> measuring the replay suite (small scale)"
MDS_BENCH_DIR="$fresh_dir" \
MDS_BENCH_MAX_MS="${MDS_BENCH_REPLAY_MAX_MS:-12000}" \
  cargo bench -q --offline -p mds-bench --bench replay -- --scale small

echo "==> comparing the replay suite against its committed baseline"
target/release/bench_gate BENCH_replay.json "$fresh_dir/BENCH_replay.json"

echo "==> measuring the wdl suite (spec parse, lowering, generated end-to-end)"
MDS_BENCH_DIR="$fresh_dir" cargo bench -q --offline -p mds-bench \
  --bench wdl -- --scale small

echo "==> comparing the wdl suite against its committed baseline"
target/release/bench_gate BENCH_wdl.json "$fresh_dir/BENCH_wdl.json"

echo "==> measuring the serve suite (cold / warm / restart-warm)"
cargo build --release --offline -p mds-serve --benches
MDS_BENCH_DIR="$fresh_dir" \
MDS_SERVE_BENCH_SECONDS="${MDS_SERVE_BENCH_SECONDS:-0.5}" \
  cargo bench -q --offline -p mds-serve --bench serve

# Serve medians are end-to-end request latencies over real sockets, so
# the headroom matches the cluster suite's.
echo "==> comparing the serve suite against its committed baseline"
MDS_BENCH_TOLERANCE="${MDS_SERVE_BENCH_TOLERANCE:-4.0}" \
  target/release/bench_gate BENCH_serve.json "$fresh_dir/BENCH_serve.json"

echo "==> checking the restart-warm claim (store-prewarmed within 10x of steady-warm)"
target/release/bench_gate --max-ratio "$fresh_dir/BENCH_serve.json" \
  serve/restart_warm/1c serve/warm/1c 10.0

echo "==> measuring the cluster suite (gateway over a local fleet)"
cargo build --release --offline -p mds-cluster --benches
MDS_BENCH_DIR="$fresh_dir" \
MDS_CLUSTER_BENCH_SECONDS="${MDS_CLUSTER_BENCH_SECONDS:-0.5}" \
  cargo bench -q --offline -p mds-cluster --bench cluster

# The cluster medians are end-to-end request latencies over real
# sockets, so the headroom is wider than the in-process suites need:
# scheduler jitter on a shared CI runner easily doubles a p50.
echo "==> comparing the cluster suite against its committed baseline"
MDS_BENCH_TOLERANCE="${MDS_CLUSTER_BENCH_TOLERANCE:-4.0}" \
  target/release/bench_gate BENCH_cluster.json "$fresh_dir/BENCH_cluster.json"

# The two warm-grid claims, through a gateway over 2 backends; each must
# be >= 3x faster than the cold fig5 + table7 grid. All three series come
# from the same run on the same host, so the checks hold anywhere.
# - grid_warm repeats the grid: the gateway answers it from its
#   merged-document cache, with no upstream call.
# - grid_cells_warm sends table7 + fig5, the same cells in the other
#   order: a merged-cache miss that scatters one batch per trace key,
#   every cell answered from the backends' per-cell result caches.
echo "==> checking the warm-grid claim (repeated grid >= 3x faster than cold)"
target/release/bench_gate --min-speedup "$fresh_dir/BENCH_cluster.json" \
  gateway/grid_cold/2b gateway/grid_warm/2b 3.0

echo "==> checking the cells-warm claim (reordered grid >= 3x faster than cold)"
target/release/bench_gate --min-speedup "$fresh_dir/BENCH_cluster.json" \
  gateway/grid_cold/2b gateway/grid_cells_warm/2b 3.0

# The scatter-gather claim — one cold grid at 4 backends is >= 1.7x
# faster than at 1 backend — is a parallel-speedup claim: each backend
# runs a single simulation thread, and the gateway's balanced placement
# caps every backend at ceil(5/4) = 2 of the grid's 5 workload shards, so
# the fleet's emulation phase needs real cores to spread onto (the
# structural bound is 5/2 = 2.5x). On hosts with fewer than 4 cores the
# backends timeshare and the ratio is ~1.0 by construction, so the check
# only runs where the claim is measurable; elsewhere it is reported as
# unmeasured, not as passed.
if [ "$(nproc)" -ge 4 ]; then
  echo "==> checking the cold-grid scale-out claim (4 backends >= 1.7x 1 backend)"
  target/release/bench_gate --min-speedup "$fresh_dir/BENCH_cluster.json" \
    gateway/grid_cold/1b gateway/grid_cold/4b 1.7
else
  echo "==> cold-grid scale-out claim: UNMEASURED ($(nproc) cores < 4): not enforced on this host"
fi
