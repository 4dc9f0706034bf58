#!/usr/bin/env bash
# I/O-core gate: the event-driven (epoll) engine is a transport for the
# same computation, and carries quiet connections for free.
#
#   1. The served fig5 document is byte-identical to what the repro CLI
#      writes — cmp, not a status-code smoke.
#   2. A closed-loop soak (4 clients) completes with zero errors and a
#      nonzero request count, with 1000 idle keep-alive connections
#      parked for its whole duration. While the fleet sits there the
#      reactor's registered-fd gauge must reflect it and liveness must
#      still answer.
#
# Knobs: MDS_IO_GATE_SECONDS (soak length, default 4),
# MDS_IO_GATE_IDLE (fleet size, default 1000).
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
seconds=${MDS_IO_GATE_SECONDS:-4}
fleet=${MDS_IO_GATE_IDLE:-1000}

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

echo "==> building the server, the load generator, and the repro CLI"
cargo build --release --offline -p mds-serve -p mds-bench --bins

echo "==> canonical bytes from the repro CLI"
MDS_RESULTS_DIR="$work" target/release/repro fig5 --scale tiny --json >/dev/null

addr=127.0.0.1:7897

echo "==> start the server on $addr"
target/release/mds-serve --addr "$addr" --workers 4 --jobs 2 \
  2>"$work/serve.log" &
pids+=("$!")
wait_http "http://$addr/healthz"

echo "==> served fig5 is byte-identical to the repro CLI document"
curl -fsS -X POST --data "$body" -o "$work/served.json" \
  "http://$addr/v1/experiments"
cmp "$work/RESULTS_fig5.json" "$work/served.json"

idle=$fleet
echo "==> closed-loop soak (${seconds}s, 4 clients, $idle idlers)"
target/release/mds-load --addr "$addr" --clients 4 --seconds "$seconds" \
  --experiment fig5 --scale tiny --idle "$idle" --json \
  >"$work/load.json" &
load_pid=$!

parked=0
for _ in $(seq 150); do
  fds=$(metric "$addr" mds_io_registered_fds)
  if [ "${fds:-0}" -ge "$idle" ]; then
    parked=1
    break
  fi
  sleep 0.1
done
if [ "$parked" != 1 ]; then
  echo "error: the idle fleet never showed up in mds_io_registered_fds" >&2
  exit 1
fi
# Liveness answers promptly while the fleet is parked.
curl -fsS --max-time 2 "http://$addr/healthz" >/dev/null

wait "$load_pid"
cat "$work/load.json"
grep -q '"errors": 0' "$work/load.json"
requests=$(sed -n 's/.*"requests": \([0-9]*\).*/\1/p' "$work/load.json" | head -n1)
test "$requests" -gt 0
grep -q "\"idle\": $idle" "$work/load.json"

echo "==> graceful shutdown"
curl -fsS -X POST "http://$addr/v1/shutdown" >/dev/null
for _ in $(seq 50); do
  curl -fsS --max-time 1 "http://$addr/healthz" >/dev/null 2>&1 || break
  sleep 0.1
done

echo "io gate: OK (byte-identical, soak error-free with the idle fleet parked)"
