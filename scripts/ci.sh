#!/usr/bin/env bash
# Canonical offline verification entrypoint.
#
# The workspace is hermetic: no external crates, so everything below
# must succeed with networking disabled and an empty registry cache.
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> tier-1: build + root-package tests"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace -q

echo "==> non-test library lines (report only: nothing gates on either count)"
scripts/loc.sh | sed 's/^/    /'

echo "==> static invariants (xupd-lint: fails on any unsuppressed finding)"
cargo run --release -q -p xupd-lint -- --workspace

echo "==> rustfmt (the workspace is formatted with rustfmt's defaults)"
cargo fmt --all -- --check

echo "==> rustdoc (warnings are errors: no broken, ambiguous or private doc links)"
# A deleted or renamed item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> rustc warnings (warnings are errors: no dead code or unused import left behind)"
# A deletion can leave dead code, an unused import or an unused test
# helper behind; the other stages only print those as warnings.
RUSTFLAGS="-D warnings" cargo check --workspace --all-targets -q

echo "==> clippy (warnings are errors, every target)"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> figure 7 regeneration (declared + measured matrix)"
cargo run --release -q -p xupd-bench --bin figure7

echo "==> XUPD_THREADS=1 golden equivalence (pool width must be invisible in results/*)"
# Every committed table golden is the stdout of its regenerator. The
# exec pool's determinism contract says the worker count never changes a
# byte of output: re-render the full set sequentially (XUPD_THREADS=1
# takes the inline pre-pool path) and at a fixed parallel width, and
# diff both against the committed goldens.
equiv_dir="$(mktemp -d)"
for threads in 1 4; do
  for table in figure7 figures growth_table update_cost_table ablation_table; do
    XUPD_THREADS="$threads" cargo run --release -q -p xupd-bench --bin "$table" \
      > "$equiv_dir/$table.txt"
    diff -u "results/$table.txt" "$equiv_dir/$table.txt" \
      || { echo "    FAIL: $table.txt diverges at XUPD_THREADS=$threads"; exit 1; }
  done
  XUPD_THREADS="$threads" cargo run --release -q -p xupd-bench --bin figure7 -- --all \
    > "$equiv_dir/figure7_all.txt"
  diff -u results/figure7_all.txt "$equiv_dir/figure7_all.txt" \
    || { echo "    FAIL: figure7_all.txt diverges at XUPD_THREADS=$threads"; exit 1; }
  echo "    ok: 6 table goldens byte-identical at XUPD_THREADS=$threads"
done
rm -rf "$equiv_dir"

echo "==> bench smoke (every bench_* bin, 1 timed iter, throwaway results dir)"
# Keeps the bench bins from rotting without touching the committed
# results/BENCH_*.json baselines.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for bench_bin in bench_bulk_labeling bench_label_growth bench_query_eval \
                 bench_update_cost bench_axis_index bench_matrix_pool \
                 bench_batch_update bench_log_analysis bench_incremental_queries \
                 bench_store bench_flux; do
  echo "    -> ${bench_bin}"
  XUPD_BENCH_ITERS=1 XUPD_RESULTS_DIR="$smoke_dir" \
    cargo run --release -q -p xupd-bench --bin "$bench_bin" > /dev/null
done

echo "==> examples (each one runs to completion and asserts its own claims)"
# The build and test stages only compile the examples. Each one asserts
# what it prints (quickstart's zero relabels, every Figure 7 scheme
# ordering xpath_query's answers, ...), so running them checks those
# claims and the evaluator and string-value calls they make.
for example_src in examples/*.rs; do
  example="$(basename "$example_src" .rs)"
  cargo run --release -q --example "$example" > /dev/null \
    || { echo "    FAIL: example $example"; exit 1; }
  echo "    ok: $example"
done

echo "==> XUPD_THREADS={1,4} script walker differential (both walker modes match the reference driver)"
# One walker turns script ops into mutations, as the per-op driver
# (run_script_dyn) and as the translation behind batch_of_in_place.
# driver_differential replays scripts through a reference driver that
# rescans the pool before every op, the executable spec of the
# addressing rules, and requires both walker modes to end with its tree
# bytes and labels (and the per-op driver with its DriveStats);
# mutation_log_differential requires a translated log applied as one
# batch to end where the per-op driver does. Both cover all 17 schemes
# and run at both pool widths.
for threads in 1 4; do
  XUPD_THREADS="$threads" cargo test --release -q -p xupd-framework \
    --test driver_differential --test mutation_log_differential > /dev/null \
    || { echo "    FAIL: script walker differential suites at XUPD_THREADS=$threads"; exit 1; }
  echo "    ok: both walker modes match the reference driver at XUPD_THREADS=$threads"
done

echo "==> XUPD_THREADS={1,4} analysis differential (analyzed and coalesced orders match sequential apply)"
# The analysis differential suite applies each batch in its analyzed
# and coalesced certified orders and asserts the result matches
# sequential apply (bytes and labels; work counters too for the
# analyzed order), across all 17 schemes. Running it at both pool
# widths pins that the scheme fan-out never leaks into the result.
# `analysis_output_is_pinned_across_the_battery` also hashes every plan
# and error `analyze_in` returns on ~14.6k script and random logs to
# one pinned digest, so a change to how the analyzer walks a log that
# moves any plan or error fails here.
for threads in 1 4; do
  XUPD_THREADS="$threads" cargo test --release -q -p xupd-framework \
    --test analysis_differential > /dev/null \
    || { echo "    FAIL: analysis differential suite at XUPD_THREADS=$threads"; exit 1; }
  echo "    ok: certified orders match sequential apply at XUPD_THREADS=$threads"
done

echo "==> XUPD_THREADS={1,4} querycache differential (cached results byte-identical to fresh eval)"
# The query-cache differential suite drives all 17 schemes through mixed
# batches and asserts cached rows/strings equal a from-scratch oracle
# after every absorb. The cache classifies each query by the batch's
# exact edits (cut and fresh subtrees, no relabel-region margin) and
# renumbers kept rows through the splice's run list, so the suite
# includes a fleet-style append under the document element and a new
# second auction under the positional `open_auction[2]`. Running it at
# both pool widths pins that the scheme fan-out never leaks into
# classification or repair.
for threads in 1 4; do
  XUPD_THREADS="$threads" cargo test --release -q -p xupd-framework \
    --test querycache_differential > /dev/null \
    || { echo "    FAIL: querycache differential suite at XUPD_THREADS=$threads"; exit 1; }
  echo "    ok: cache matches fresh evaluation at XUPD_THREADS=$threads"
done

echo "==> XUPD_THREADS={1,4} store differential (sharded fleet state byte-identical to reference)"
# The store differential suite replays a seeded fleet workload with its
# shard lanes grouped onto 1, 2 and 8 pool threads (lane l on thread
# l % width, each lane's ops in stream order) and asserts the final
# state_dump is byte-identical to the sequential reference executor,
# across all 17 schemes, each of whose reference dumps is also pinned
# by digest. Running the suite itself at both pool widths additionally
# pins that XUPD_THREADS never leaks into state.
for threads in 1 4; do
  XUPD_THREADS="$threads" cargo test --release -q --test store_differential > /dev/null \
    || { echo "    FAIL: store differential suite at XUPD_THREADS=$threads"; exit 1; }
  echo "    ok: fleet state matches sequential reference at XUPD_THREADS=$threads"
done

echo "==> XUPD_THREADS={1,4} flux differential (compiled plans byte-identical to sequential apply)"
# The flux differential suite proves the DSL compiler's certified-plan
# apply path leaves byte-identical trees and labels versus sequential
# apply across all 17 schemes, that statically rejected programs also
# fail dynamically, and that a document keeps its preorder index (the
# table lowering resolves paths on) current across flux batches. Both
# pool widths, same contract.
for threads in 1 4; do
  XUPD_THREADS="$threads" cargo test --release -q -p xupd-flux > /dev/null \
    || { echo "    FAIL: flux suite at XUPD_THREADS=$threads"; exit 1; }
  echo "    ok: flux compiler differential + diagnostics at XUPD_THREADS=$threads"
done

echo "==> xbench correctness gate at full size (fleet-small, fleet-large, flux-batch)"
# The unit suites run these workloads at doc_scale <= 60. xbench replays
# them on ~5-9.5k-node documents and compares every cached query with a
# fresh evaluation — the size at which an index splice bug would
# show. The classifier decides most batches from the exact edits, with
# no relabel-region margin, so fleet-small runs here too: its stream 0
# ends with 96 documents (fleet-large's with 16), and the gate compares
# each one's cached rows and strings with a fresh registration (~7 s).
# `--trace 1` keeps every untraced check and adds the mirror gate:
# the traced mirror, which calls `analyze` and `lower::lower` on an index
# of its own, must end with the store's tree bytes, cache counters and
# rejected count. The mirror compiles scripts with `batch_of`, which
# ranks a copy of the tree's elements by a scan, and the store with
# `Document::compile_script`, which reads that ranking off the
# document's preorder index, so on fleet-large the mirror gate compares
# the two pool bases at full size. The per-op oracle in `run::gate`
# checks both against `run_script_dyn`, which keeps the scan; it runs
# the same script walker with a session, so that oracle checks batched
# against per-op application, and the walker stage above checks the
# addressing. It exits non-zero on any failed check. `--locked` refuses to rewrite xbench's
# own Cargo.lock, so a library crate whose dependencies change fails
# here instead of silently changing the benchmark's lockfile.
for workload in fleet-small fleet-large flux-batch; do
  cargo run --release -q --offline --locked \
    --manifest-path crates/bench/src/bin/xbench/Cargo.toml -- \
    --workload "$workload" --seconds 0 --trace 1 > /dev/null \
    || { echo "    FAIL: xbench correctness gate on $workload"; exit 1; }
  echo "    ok: xbench $workload passes every correctness check at full size"
done

echo "==> XUPD_THREADS sample-order equivalence for the batch-update + log-analysis benches"
# Timings vary run to run, but the sample roster (names, in order) is part
# of the bench contract: it must not depend on the pool width, or diffing
# committed BENCH json between commits becomes meaningless.
order_dir="$(mktemp -d)"
for order_bin in bench_batch_update bench_log_analysis bench_incremental_queries bench_flux; do
  json_name="BENCH_${order_bin#bench_}.json"
  for threads in 1 4; do
    XUPD_BENCH_ITERS=1 XUPD_RESULTS_DIR="$order_dir/t$threads" XUPD_THREADS="$threads" \
      cargo run --release -q -p xupd-bench --bin "$order_bin" > /dev/null
  done
  python3 - "$order_dir/t1/$json_name" "$order_dir/t4/$json_name" \
           "results/$json_name" "$order_bin" <<'PYEOF'
import json, sys
names = [[s["name"] for s in json.load(open(p))["samples"]] for p in sys.argv[1:4]]
bin_name = sys.argv[4]
if names[0] != names[1]:
    print(f"    FAIL: {bin_name} sample order differs between XUPD_THREADS=1 and 4")
    sys.exit(1)
if names[0] != names[2]:
    print(f"    FAIL: {bin_name} sample order diverged from the committed baseline")
    sys.exit(1)
print(f"    ok: {bin_name}: {len(names[0])} samples, identical roster at XUPD_THREADS=1/4 and in the baseline")
PYEOF
done
rm -rf "$order_dir"

echo "==> alloc diff (report-only: warn when a smoke sample allocates >25% more, in events or bytes, than its baseline)"
# The counting allocator makes allocation counts deterministic per
# iteration, so even a 1-iter smoke run is comparable to the committed
# baseline. Events and bytes are compared separately: a change can
# allocate fewer, larger blocks, so one can fall while the other grows.
# This step never fails the build — it exists to surface allocation
# regressions in the hot path early.
for smoke_json in "$smoke_dir"/BENCH_*.json; do
  base_json="results/$(basename "$smoke_json")"
  [ -f "$base_json" ] || continue
  grep -q '"allocs"' "$base_json" || continue  # pre-instrumentation baseline
  python3 - "$base_json" "$smoke_json" <<'PYEOF' || true
import json, sys
base_path, smoke_path = sys.argv[1], sys.argv[2]
base = {s["name"]: s for s in json.load(open(base_path))["samples"]}
warned = 0
for s in json.load(open(smoke_path))["samples"]:
    b = base.get(s["name"])
    if b is None:
        continue
    for key in ("allocs", "alloc_bytes"):
        if b.get(key, 0) == 0:
            continue
        if s.get(key, 0) > b[key] * 1.25:
            warned += 1
            print(f'    WARN {s["name"]}: {key} {b[key]} -> {s[key]} '
                  f'(+{100.0 * s[key] / b[key] - 100.0:.0f}%)')
if not warned:
    print(f'    ok: {base_path} — no sample grew allocation events or bytes by >25%')
PYEOF
done

echo "==> ci.sh: all checks passed"
