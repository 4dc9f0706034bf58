#!/usr/bin/env bash
# Durability gate: warm state must survive kill -9.
#
# Part 1 (single server): serve with --store, warm a key, kill -9 the
# process, restart over the same directory, and assert the very first
# request is a result-cache hit with bytes identical to the repro CLI's
# RESULTS_fig5.json — no recompute, no emulation.
#
# Part 2 (cluster): front two stored backends with the gateway and warm
# fig5, whose cells the gateway spreads over both backends by trace key.
# kill -9 one of them: a fresh fig5 fails its batches over to the
# survivor and still returns the CLI's bytes. Let the prober eject the
# dead backend, then restart a replacement on the same port with an
# EMPTY store: the gateway's neighbor handoff must push the cells it owns
# into it, without recomputing anything, and a request that needs those
# cells (table7, whose cells are a subset of fig5's) is then answered
# with identical bytes and zero emulations on the replacement.
set -euo pipefail

cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

body='{"experiment":"fig5","scale":"tiny"}'

wait_http() { # url [tries]
  local url=$1 tries=${2:-100}
  for _ in $(seq "$tries"); do
    curl -fsS "$url" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "error: $url never answered" >&2
  return 1
}

metric() { # addr family -> value (empty when absent)
  curl -fsS "http://$1/metrics" | awk -v f="$2" '$1 == f { print $2 }'
}

start_serve() { # addr store logfile — appends the pid to pids
  target/release/mds-serve --addr "$1" --workers 2 --jobs 2 \
    --store "$2" 2>>"$3" &
  pids+=("$!")
}

# The freed port can linger briefly after a kill, so give a restart a
# few bind attempts before declaring failure.
restart_serve() { # addr store logfile
  local attempt
  for attempt in 1 2 3; do
    target/release/mds-serve --addr "$1" --workers 2 --jobs 2 \
      --store "$2" 2>>"$3" &
    local pid=$!
    if wait_http "http://$1/healthz" 50; then
      pids+=("$pid")
      return 0
    fi
    kill -9 "$pid" 2>/dev/null || true
  done
  echo "error: could not restart a server on $1" >&2
  return 1
}

echo "==> building the server, the gateway, and the repro CLI"
cargo build --release --offline -p mds-serve -p mds-cluster -p mds-bench --bins

echo "==> canonical bytes from the repro CLI"
MDS_RESULTS_DIR="$work" target/release/repro fig5 --scale tiny --json >/dev/null

echo "==> lifetime 1: serve with --store, warm the key"
start_serve 127.0.0.1:7893 "$work/store" "$work/serve1.log"
serve_pid=${pids[-1]}
wait_http http://127.0.0.1:7893/healthz
curl -fsS -X POST --data "$body" -o "$work/first.json" \
  http://127.0.0.1:7893/v1/experiments
cmp "$work/RESULTS_fig5.json" "$work/first.json"

echo "==> kill -9, restart over the same store"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
restart_serve 127.0.0.1:7893 "$work/store" "$work/serve2.log"

echo "==> the first request after the restart is a byte-identical cache hit"
[ "$(metric 127.0.0.1:7893 mds_store_prewarmed_keys)" = 1 ]
curl -fsS -X POST --data "$body" -o "$work/warm.json" \
  http://127.0.0.1:7893/v1/experiments
cmp "$work/RESULTS_fig5.json" "$work/warm.json"
grep -q '"cache":"hit"' "$work/serve2.log"
! grep -q '"cache":"miss"' "$work/serve2.log"
[ "$(metric 127.0.0.1:7893 mds_trace_cache_misses_total)" = 0 ]
curl -fsS -X POST http://127.0.0.1:7893/v1/shutdown >/dev/null

echo "==> cluster: two stored backends behind the gateway"
start_serve 127.0.0.1:7894 "$work/a" "$work/backend_a.log"
start_serve 127.0.0.1:7895 "$work/b" "$work/backend_b.log"
wait_http http://127.0.0.1:7894/healthz
wait_http http://127.0.0.1:7895/healthz
target/release/mds-cluster --addr 127.0.0.1:7896 \
  --backend 127.0.0.1:7894 --backend 127.0.0.1:7895 \
  --probe-ms 100 2>"$work/gateway.log" &
pids+=("$!")
wait_http http://127.0.0.1:7896/readyz

echo "==> warm fig5 through the gateway: its cells spread over both backends"
curl -fsS -X POST --data "$body" -o "$work/cluster_first.json" \
  http://127.0.0.1:7896/v1/experiments
cmp "$work/RESULTS_fig5.json" "$work/cluster_first.json"
[ "$(metric 127.0.0.1:7894 mds_result_cache_entries)" -ge 1 ]
[ "$(metric 127.0.0.1:7895 mds_result_cache_entries)" -ge 1 ]
owner=127.0.0.1:7894
survivor=127.0.0.1:7895

echo "==> kill -9 $owner; a fresh fig5 fails over to the survivor (the donor)"
pkill -9 -f "mds-serve --addr $owner" || true
curl -fsS -X POST --data '{"experiment":"fig5","scale":"tiny","fresh":true}' \
  -o "$work/failover.json" http://127.0.0.1:7896/v1/experiments
cmp "$work/RESULTS_fig5.json" "$work/failover.json"
donated=$(metric "$survivor" mds_result_cache_entries)
echo "    the survivor holds $donated cells"
for _ in $(seq 100); do
  [ "$(metric 127.0.0.1:7896 "mds_gateway_backend_healthy{backend=\"$owner\"}")" = 0 ] && break
  sleep 0.1
done
[ "$(metric 127.0.0.1:7896 "mds_gateway_backend_healthy{backend=\"$owner\"}")" = 0 ]

echo "==> replacement on the same port with an EMPTY store"
restart_serve "$owner" "$work/replacement" "$work/replacement.log"
[ "$(metric "$owner" mds_store_prewarmed_keys)" = 0 ]

echo "==> the neighbor handoff warms the replacement without recompute"
# Two replicas over two backends: the replacement owns every cell key.
for _ in $(seq 100); do
  [ "$(metric 127.0.0.1:7896 mds_gateway_handoffs_total)" = 1 ] && break
  sleep 0.1
done
[ "$(metric 127.0.0.1:7896 mds_gateway_handoffs_total)" = 1 ]
[ "$(metric "$owner" mds_result_cache_entries)" = "$donated" ]
[ "$(metric "$owner" mds_trace_cache_misses_total)" = 0 ]

echo "==> table7 (cells a subset of fig5's) is answered with zero emulations on the replacement"
MDS_RESULTS_DIR="$work" target/release/repro table7 --scale tiny --json >/dev/null
# The failed attempts after the kill may have opened the breaker; let its
# first cooldown (250 ms before jitter) run out so the replacement is
# back in rotation.
sleep 1
curl -fsS -X POST --data '{"experiment":"table7","scale":"tiny"}' \
  -o "$work/handoff.json" http://127.0.0.1:7896/v1/experiments
cmp "$work/RESULTS_table7.json" "$work/handoff.json"
[ "$(metric "$owner" mds_trace_cache_misses_total)" = 0 ]
[ "$(metric "$owner" mds_result_cache_hits_total)" -ge 1 ]

curl -fsS -X POST http://127.0.0.1:7896/v1/shutdown >/dev/null || true
curl -fsS -X POST http://127.0.0.1:7894/v1/shutdown >/dev/null || true
curl -fsS -X POST http://127.0.0.1:7895/v1/shutdown >/dev/null || true

echo "store gate: OK"
