#!/usr/bin/env bash
# Run-to-run spread of the xbench metrics.
#
# Builds xbench once, runs each workload RUNS times and prints, per
# metric, the min, quartiles, median and max of the runs, max/min, and
# the quartile spread (q3 − q1) / median. Use it to set and check the
# `bound` of each end-to-end metric in BENCHMARK.json.
#
#   crates/bench/src/bin/xbench/spread.sh [-n RUNS] [-s SEED] [-v] [-t SECONDS] [-T] [WORKLOAD...]
#
#   -n RUNS     runs per workload (default 5)
#   -s SEED     seed of every run (default 22286)
#   -v          vary the seed instead: run i uses SEED + i
#   -t SECONDS  --seconds of each run (default 15, as BENCHMARK.json)
#   -T          report the per-layer metrics (--trace 1)
#
# Workloads default to all four. It builds the xupd-bench copy of the
# binary (same sources and release settings as the standalone package)
# into the workspace target dir ($CARGO_TARGET_DIR, default target/),
# and keeps raw result lines in xbench-spread/ under it.
set -euo pipefail

root="$(cd "$(dirname "$0")/../../../../.." && pwd)"
runs=5 seed=22286 vary=0 seconds=15 trace=0
while getopts "n:s:vt:T" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    v) vary=1 ;;
    t) seconds="$OPTARG" ;;
    T) trace=1 ;;
    *) sed -n '2,20p' "$0"; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(fleet-small fleet-large read-mostly flux-batch)

cd "$root"
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release -q --offline -p xupd-bench --bin xbench
bin="$target/release/xbench"
out="$target/xbench-spread"
mkdir -p "$out"

for w in "${workloads[@]}"; do
  log="$out/$w-trace$trace.jsonl"
  : > "$log"
  for ((i = 0; i < runs; i++)); do
    s=$seed
    [ "$vary" = 1 ] && s=$((seed + i))
    "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1 >> "$log"
  done
  python3 - "$w" "$log" <<'EOF'
import json, statistics, sys
name, path = sys.argv[1], sys.argv[2]
results = [json.loads(l) for l in open(path) if l.strip()]
bad = [r for r in results if not r["correct"] or r["failed"]]
print(f"== {name}: {len(results)} runs, {len(bad)} incorrect or with failed ops")
print(f"{'metric':<30} {'min':>12} {'q1':>12} {'median':>12} {'q3':>12} {'max':>12} {'max/min':>8} {'iqr/med':>8}")
for m in results[0]["metrics"]:
    v = [r["metrics"][m]["value"] for r in results]
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    ratio = max(v) / min(v) if min(v) > 0 else float("nan")
    iqr = (q3 - q1) / med if med else float("nan")
    print(f"{m:<30} {min(v):>12.6g} {q1:>12.6g} {med:>12.6g} {q3:>12.6g} {max(v):>12.6g} {ratio:>8.4f} {iqr:>8.4f}")
EOF
done
