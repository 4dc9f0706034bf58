#!/usr/bin/env bash
# Byte-identity gate: every RESULTS_<experiment>.json the repro CLI
# produces at tiny scale must equal the pinned artifact in ci/pinned/
# byte for byte, and the small-scale fig5 document must equal its pin in
# ci/pinned/small/. The second scale exists because tiny traces are
# short; the small fig5 run replays long traces under every policy, so
# predictor training, squash storms and cache behaviour deep into a run
# are pinned too.
#
# The pinned files were captured before the hot-path optimization work
# (scratch arenas, FxHash maps, dense port ledgers, the planned replay
# engine), so this gate proves those changes — and any future ones — are
# pure performance: same simulated cycles, same violation counts, same
# speedups, same bytes.
# Regenerate the pins ONLY for a deliberate, reviewed model change:
#
#   cargo build --release --offline -p mds-bench
#   MDS_RESULTS_DIR=ci/pinned target/release/repro --scale tiny --json all
#   MDS_RESULTS_DIR=ci/pinned target/release/repro --scale tiny --json ablations
#   MDS_RESULTS_DIR=ci/pinned/small target/release/repro --scale small --json fig5
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> building the repro CLI"
cargo build --release --offline -p mds-bench

fresh_dir=$(mktemp -d)
trap 'rm -rf "$fresh_dir"' EXIT
mkdir -p "$fresh_dir/small"

echo "==> running repro all at tiny scale"
MDS_RESULTS_DIR="$fresh_dir" target/release/repro --scale tiny --json all >/dev/null

echo "==> running repro ablations at tiny scale"
MDS_RESULTS_DIR="$fresh_dir" target/release/repro --scale tiny --json ablations >/dev/null

echo "==> running repro fig5 at small scale"
MDS_RESULTS_DIR="$fresh_dir/small" target/release/repro --scale small --json fig5 >/dev/null

status=0
check() {
  local pinned="$1" fresh="$2" label="$3"
  if cmp -s "$pinned" "$fresh"; then
    echo "  identical: $label"
  else
    echo "  DIFFERS:   $label" >&2
    cmp "$pinned" "$fresh" >&2 || true
    status=1
  fi
}

for pinned in ci/pinned/RESULTS_*.json; do
  check "$pinned" "$fresh_dir/$(basename "$pinned")" "$(basename "$pinned")"
done
for pinned in ci/pinned/small/RESULTS_*.json; do
  check "$pinned" "$fresh_dir/small/$(basename "$pinned")" "small/$(basename "$pinned")"
done

if [ "$status" -ne 0 ]; then
  echo "identity gate: FAIL — simulator output drifted from the pinned artifacts" >&2
  exit 1
fi
total=$(ls ci/pinned/RESULTS_*.json ci/pinned/small/RESULTS_*.json | wc -l)
echo "identity gate: OK ($total documents byte-identical)"
