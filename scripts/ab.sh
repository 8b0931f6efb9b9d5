#!/usr/bin/env bash
# Paired A/B runs of xbench: a base revision against the working tree.
#
# Exports <base-rev>'s committed files to target/ab/base (git archive,
# offline) and the working tree's files to target/ab/work, builds
# xbench in each through crates/bench/src/bin/xbench/Cargo.toml, then
# runs PAIRS pairs per workload at --seconds 0: base first in odd
# pairs, change first in even ones, with /proc/loadavg printed beside
# each pair. Per metric it
# prints one Markdown table row: each side's median [q1–q3], the paired
# ratio change/base as median [q1–q3], and in how many pairs the change
# read lower.
#
#   scripts/ab.sh [-n PAIRS] [-s SEED] [-T] <base-rev> <workload>...
#
# Options may also follow the workloads.
#   -n PAIRS  pairs per workload (default 10)
#   -s SEED   seed of every run (default 22286)
#   -T        per-layer metrics (--trace 1) instead of the end-to-end ones
#
# Raw result lines stay in target/ab/<workload>-trace<T>.jsonl, one
# object per run with its pair, side and load. Both copies are removed
# on exit; their build output stays in target/ab/{base,work}-target, so
# a second run against the same revision rebuilds only what changed. An
# A/A run (`scripts/ab.sh HEAD <workload>` on a clean working tree)
# checks the harness itself: `update_alloc_kb` must read 1.000 in every
# pair. Exits 1 if any run is incorrect or has failed ops, 2 on a bad
# command line.
set -euo pipefail

usage() { sed -n '2,28p' "$0"; exit 2; }
pairs=10 seed=22286 trace=0 args=()
while [ $# -gt 0 ]; do
  case "$1" in
    -n) [ $# -ge 2 ] || usage; pairs="$2"; shift 2 ;;
    -s) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    -T) trace=1; shift ;;
    -*) usage ;;
    *) args+=("$1"); shift ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ && ${#args[@]} -ge 2 ]] || usage
base_rev="${args[0]}"
workloads=("${args[@]:1}")

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_NET_OFFLINE=true
out="$root/target/ab"
manifest=crates/bench/src/bin/xbench/Cargo.toml
rev="$(git rev-parse --verify "$base_rev^{commit}")"

# Both sides are built from copies at paths of equal length: with the
# change built in place, an A/A run read `peak_rss_mb` ~1% apart in
# every pair.
rm -rf "$out/base" "$out/work"
mkdir -p "$out/base" "$out/work"
trap 'rm -rf "$out/base" "$out/work"' EXIT
git archive "$rev" | tar -x -C "$out/base"
git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf - 2>/dev/null | tar -x -C "$out/work"

echo "==> building xbench at ${rev:0:12} (base) and of the working tree (change)"
for side in base work; do
  (cd "$out/$side" && CARGO_TARGET_DIR="$out/$side-target" \
    cargo build --release -q --offline --manifest-path "$manifest")
done
base_bin="$out/base-target/release/xbench"
change_bin="$out/work-target/release/xbench"

# One run: `run <side> <pair> <workload> <log>` appends its result line.
# Both sides run from the working tree's root (a traced run writes its
# spans under target/xbench there).
run() {
  local side="$1" pair="$2" w="$3" log="$4" bin result
  if [ "$side" = base ]; then bin="$base_bin"; else bin="$change_bin"; fi
  result="$("$bin" --workload "$w" --seed "$seed" --seconds 0 --trace "$trace" 2>/dev/null | tail -n 1)" || true
  case "$result" in
    "{"*) ;;
    *) result=null ;;
  esac
  printf '{"pair": %d, "side": "%s", "load": "%s", "result": %s}\n' \
    "$pair" "$side" "$(cut -d' ' -f1-3 /proc/loadavg)" "$result" >> "$log"
}

status=0
for w in "${workloads[@]}"; do
  log="$out/$w-trace$trace.jsonl"
  : > "$log"
  echo "==> $w: $pairs pairs, seed $seed, --trace $trace"
  for ((p = 1; p <= pairs; p++)); do
    if ((p % 2)); then order=(base change); else order=(change base); fi
    load="$(cut -d' ' -f1-3 /proc/loadavg)"
    for side in "${order[@]}"; do
      run "$side" "$p" "$w" "$log"
    done
    echo "    pair $p/$pairs: ${order[0]} first, loadavg $load"
  done
  python3 - "$w" "$log" <<'EOF' || status=1
import json, statistics, sys

name, path = sys.argv[1], sys.argv[2]
runs = [json.loads(line) for line in open(path) if line.strip()]
bad = [r for r in runs if not r["result"] or not r["result"]["correct"] or r["result"]["failed"]]
sides = {"base": {}, "change": {}}
for r in runs:
    if r["result"]:
        sides[r["side"]][r["pair"]] = r["result"]["metrics"]
pairs = sorted(set(sides["base"]) & set(sides["change"]))


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v, fmt):
    q1, med, q3 = quartiles(v)
    return f"{med:{fmt}} [{q1:{fmt}}–{q3:{fmt}}]"


print(f"{name}: {len(runs)} runs, {len(bad)} incorrect or with failed ops")
print("| metric | base | change | change/base | change lower |")
print("|---|---|---|---|---|")
names = list(sides["base"][pairs[0]]) if pairs else []
for m in names:
    b = [sides["base"][p][m]["value"] for p in pairs if m in sides["base"][p]]
    c = [sides["change"][p][m]["value"] for p in pairs if m in sides["change"][p]]
    if len(b) != len(pairs) or len(c) != len(pairs):
        continue
    ratios = [y / x for x, y in zip(b, c) if x]
    lower = sum(y < x for x, y in zip(b, c))
    unit = sides["base"][pairs[0]][m].get("unit", "")
    ratio = spread(ratios, ".3f") if ratios else "—"
    print(f"| `{m}` ({unit}) | {spread(b, '.6g')} | {spread(c, '.6g')} | {ratio} | {lower}/{len(pairs)} |")
sys.exit(1 if bad or not pairs else 0)
EOF
done
exit "$status"
