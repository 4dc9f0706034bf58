#!/usr/bin/env bash
# Grid gate: scatter-gather `POST /v1/grids` over real processes.
#
# Three claims, all against release binaries on real sockets:
#
# 1. Byte identity. The gateway's grid response — cells scattered across
#    both backends and merged from out-of-order partials — must be
#    `cmp`-identical to a lone backend answering the same grid AND to
#    the concatenation of the repro CLI's per-experiment RESULTS
#    documents. One merge contract, three independent producers.
#
# 2. Warm grids, at both cache layers. The same grid sent again is
#    `cmp`-identical and answered from the gateway's merged-document
#    cache: the gateway's hit counter rises and the backends'
#    result-cache hits do not move (no upstream call). The grid in the
#    other order is another document: it is `cmp`-identical to the
#    reordered repro concatenation, and it scatters with every cell
#    answered from the backends' per-cell result caches, so their hits
#    rise.
#
# 3. Loss tolerance. `kill -9` of a backend in the middle of a sequence
#    of fresh (recomputing) grid requests must be invisible to clients:
#    every request answers 200 with byte-identical output, zero errors —
#    in-flight cells fail over to the surviving backend or are computed
#    locally by the gateway's merger.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> building the gateway, the server, and the repro CLI"
cargo build --release --offline -p mds-cluster -p mds-serve -p mds-bench

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -9 "$pid" >/dev/null 2>&1 || true; done
  rm -rf "$work"
}
trap cleanup EXIT

b1=127.0.0.1:7981
b2=127.0.0.1:7982
gw=127.0.0.1:7990

echo "==> starting two backends and the gateway"
target/release/mds-serve --addr "$b1" --workers 4 --quiet &
pids+=($!)
target/release/mds-serve --addr "$b2" --workers 4 --quiet &
b2_pid=$!
pids+=("$b2_pid")
target/release/mds-cluster --addr "$gw" \
  --backend "$b1" --backend "$b2" --quiet &
pids+=($!)
for _ in $(seq 1 50); do
  curl -fsS "http://$gw/readyz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "http://$gw/readyz" >/dev/null

echo "==> reference documents from the repro CLI"
MDS_RESULTS_DIR="$work" target/release/repro --scale tiny --json fig5 table1 >/dev/null
cat "$work/RESULTS_fig5.json" "$work/RESULTS_table1.json" >"$work/expected_grid.json"

body='{"experiments":["fig5","table1"],"scale":"tiny"}'
curl -fsS -X POST --data "$body" -o "$work/gateway_grid.json" "http://$gw/v1/grids"
curl -fsS -X POST --data "$body" -o "$work/backend_grid.json" "http://$b1/v1/grids"

echo "==> gateway grid vs lone backend vs repro CLI (byte identity)"
cmp "$work/expected_grid.json" "$work/gateway_grid.json"
cmp "$work/gateway_grid.json" "$work/backend_grid.json"
echo "  identical: gateway == lone backend == repro CLI concatenation"

cache_hits() {
  local total=0 n
  for b in "$b1" "$b2"; do
    n=$(curl -fsS "http://$b/metrics" | awk '$1 == "mds_result_cache_hits_total" {print $2}')
    total=$((total + n))
  done
  echo "$total"
}

gateway_grid_hits() {
  curl -fsS "http://$gw/metrics" | awk '$1 == "mds_gateway_grid_cache_hits_total" {print $2}'
}

echo "==> the same grid again: identical bytes, served from the gateway's merged cache"
hits_before=$(cache_hits)
gw_hits_before=$(gateway_grid_hits)
curl -fsS -X POST --data "$body" -o "$work/gateway_grid_again.json" "http://$gw/v1/grids"
cmp "$work/expected_grid.json" "$work/gateway_grid_again.json"
hits_after=$(cache_hits)
gw_hits_after=$(gateway_grid_hits)
if [ "$gw_hits_after" -le "$gw_hits_before" ]; then
  echo "  gateway grid-cache hits did not rise on the repeat ($gw_hits_before -> $gw_hits_after)" >&2
  exit 1
fi
if [ "$hits_after" -ne "$hits_before" ]; then
  echo "  the repeat reached the backends (result-cache hits $hits_before -> $hits_after)" >&2
  exit 1
fi
echo "  identical; gateway grid-cache hits $gw_hits_before -> $gw_hits_after, backend hits unchanged at $hits_after"

echo "==> the grid reordered: identical to the reordered CLI documents, served from the backends' cell caches"
cat "$work/RESULTS_table1.json" "$work/RESULTS_fig5.json" >"$work/expected_reordered.json"
reordered='{"experiments":["table1","fig5"],"scale":"tiny"}'
curl -fsS -X POST --data "$reordered" -o "$work/gateway_reordered.json" "http://$gw/v1/grids"
cmp "$work/expected_reordered.json" "$work/gateway_reordered.json"
hits_reordered=$(cache_hits)
if [ "$hits_reordered" -le "$hits_after" ]; then
  echo "  backend result-cache hits did not rise on the reordered grid ($hits_after -> $hits_reordered)" >&2
  exit 1
fi
echo "  identical; backend result-cache hits $hits_after -> $hits_reordered"

echo "==> grid metrics counted the scatter"
curl -fsS "http://$gw/metrics" >"$work/metrics.txt"
grep -q '^mds_gateway_grids_total' "$work/metrics.txt"
grep -q '^mds_gateway_grid_cells_total' "$work/metrics.txt"
grep -q '^mds_gateway_grid_cache_misses_total' "$work/metrics.txt"

echo "==> kill -9 one backend mid-grid: every response whole, zero errors"
# `fresh` keeps the backends recomputing so the kill lands while cells
# are genuinely in flight; `curl -f` makes any non-2xx fail the loop.
fresh='{"experiments":["fig5","table1"],"scale":"tiny","fresh":true}'
runs=6
(
  for i in $(seq 1 "$runs"); do
    curl -fsS -X POST --data "$fresh" -o "$work/grid_$i.json" "http://$gw/v1/grids"
  done
) &
loop_pid=$!
sleep 0.2
kill -9 "$b2_pid"
wait "$loop_pid"
for i in $(seq 1 "$runs"); do
  cmp "$work/expected_grid.json" "$work/grid_$i.json"
done
echo "  identical: $runs grid responses across the kill, 0 client errors"

echo "grid gate: OK"
