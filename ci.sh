#!/usr/bin/env bash
# Repo CI: tier-1 verify (build + tests) plus lint. Mirrors what the
# driver runs, so a green ci.sh means a green PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

# One release pass covers every workspace target — including the chaos
# and serving goldens, the engine equivalence proptests, every
# #[cfg(test)] oracle that a rewritten kernel is held to bit for bit
# (chunk pass, planner, execution layer, QRSM kernels, link, training
# memo), the counting-allocator tests and the one `shard_workers` test
# (the ignored knob reaches no byte of a report). No test is #[ignore]d
# or feature-gated, so nothing needs a second, filtered release run.
echo "== workspace tests, release (goldens, equivalence oracles, allocation tests included)"
cargo test -q --release --workspace

echo "== benches compile: cargo bench --no-run"
cargo bench --no-run

# One perf probe, one rule table: perfprobe times the small probes, then
# the reduced-scale ones, builds one JSON line and checks it in process
# against BENCH.json, the append-only record of every checked-in probe
# run (compiled in). Its RULES table holds the floors (every shared
# *_per_sec key >= the largest recorded value / 5) and the fresh-line
# rules (flat depth curve, flat serving memory, open/closed and
# dormant-econ ratios). Its unit tests, in the workspace pass above, hold
# every record to the same rules.
echo "== perf probes: perfprobe, one line gated once against BENCH.json"
cargo run --release -p cloudburst-bench --bin perfprobe

# Scratch files for the repro and conformance stages below.
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT

# Every workload of the benchmark must reproduce its pinned report digest
# (baseline.json, seed 1); the benchmark exits non-zero on a mismatch.
# Each must also stay under a pinned peak-heap ceiling: 1.05 x the
# workload's peak_heap_mb when the ceiling was pinned (41.479053,
# 0.875094, 27.952497 and 0.175688 MB, identical over reruns). The
# metric is the counting allocator's high-water mark, a pure function of
# the code and the seed, so it reads the same on every host.
echo "== benchmark pinned digests and peak-heap ceilings: all four workloads at seed 1"
declare -A HEAP_CEILING_MB=(
  [closed-op]=43.554 [serve-diurnal]=0.9189 [chaos-econ]=29.351 [paper-sweep]=0.1845
)
for w in closed-op serve-diurnal chaos-econ paper-sweep; do
  line="$(cargo run --release -p cloudburst-bench --bin benchmark -- --workload "$w" --seed 1 --seconds 0 | tail -n 1)"
  echo "$line"
  peak="$(grep -o '"peak_heap_mb":{"value":[0-9.eE+-]*' <<< "$line" | sed 's/.*://')"
  ceiling="${HEAP_CEILING_MB[$w]}"
  if ! awk -v p="$peak" -v c="$ceiling" 'BEGIN { exit !(p != "" && p + 0 <= c + 0) }'; then
    echo "ci.sh: $w peak_heap_mb '$peak' exceeds its pinned ceiling $ceiling MB" >&2
    exit 1
  fi
done

# The QRSM is trained once per training key and thread: a one-entry,
# thread-local memo keyed on every fit input (seed, ground truth by bits,
# effective corpus size, per-class switch, fit method) hands each engine
# set-up a clone. Debug builds also re-train on every hit anywhere and
# assert bitwise equality, so the memo's tests run once more in the debug
# profile (the release workspace pass above already runs them).
echo "== training memo equivalence, debug profile: key fields, bitwise hits, cold-run bytes, drop before train"
cargo test -q -p cloudburst-core --lib training::tests
cargo test -q -p cloudburst-core --test training_memo_heap
cargo test -q -p cloudburst-qrsm --lib same_bits

# Exact floors for Eq. 2 checks and the bucketed OO series: OP and greedy
# test a download-free lower bound before the full EC round trip,
# push-out tests the upload leg alone before a job's round trip, and
# oo_series groups completions by sample with a counting pass instead of a
# sort. Each is held bit for bit to a floor-free or sort-based oracle. The
# release pass above runs these tests too; the debug profile adds overflow
# checks on the bucket arithmetic and the debug_asserts (unique queue keys
# in Cloud::cancel_queued, ids in range in oo_series) that release
# compiles out.
echo "== exact Eq. 2 floors and bucketed OO series, debug profile: floor proptest, push-out oracle, oo_series oracles"
cargo test -q -p cloudburst-sched --lib ec_floor_is_exact_and_changes_no_decision
cargo test -q -p cloudburst-sched --lib resched::tests
cargo test -q -p cloudburst-core --lib deep_queue_hybrid_drain_is_oracle_checked
cargo test -q -p cloudburst-cluster --lib cancelling_a_tail_key_of_a_deep_queue
cargo test -q -p cloudburst-sla --lib ooo::tests

# A run is single-threaded; every multi-run fan-out goes through the one
# parallel map, cloudburst_bench::ShardPool: repro maps its ids through the
# pool and emits each result in id order. A multi-id run must therefore
# print exactly the single-id runs concatenated; a single-id run uses one
# worker, so it is serial.
echo "== repro ordered merge: pooled multi-id stdout equals the single-id runs concatenated"
for id in fig4a fig6 sibs; do
  cargo run -q --release -p cloudburst-bench --bin repro -- "$id"
done > "$PERF_TMP/repro.serial.txt"
cargo run -q --release -p cloudburst-bench --bin repro -- fig4a fig6 sibs > "$PERF_TMP/repro.pooled.txt"
cmp "$PERF_TMP/repro.serial.txt" "$PERF_TMP/repro.pooled.txt"

echo "== lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Deleting a function leaves any `[`link`]` to it dangling, and a link to a
# private or test-only item is as broken for a reader: rustdoc checks every
# intra-doc link of the workspace (the vendored stand-ins included).
echo "== lint: RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== conformance: cargo run --release -p cloudburst-conform"
cargo run --release -p cloudburst-conform

# Waiver ceiling: a refactor may not trade deleted code for new waivers.
# The ceiling is the count when it was set; a change that lowers the
# count lowers this number with it.
MAX_WAIVERS=34
waivers="$(grep -c '^\[\[waiver\]\]' conform.toml)"
echo "== conformance: $waivers waivers (ceiling $MAX_WAIVERS)"
if (( waivers > MAX_WAIVERS )); then
  echo "ci.sh: conform.toml holds $waivers waivers, above the ceiling of $MAX_WAIVERS" >&2
  exit 1
fi

# Write the machine-readable report to a scratch file and prove it
# byte-stable: two back-to-back scans must produce identical JSON, the
# same determinism bar the simulation reports are held to.
echo "== conformance: --json archive + byte-stability (two runs must match)"
cargo run --release -p cloudburst-conform -- --json > "$PERF_TMP/conform.json"
cargo run --release -p cloudburst-conform -- --json > "$PERF_TMP/conform.2.json"
cmp "$PERF_TMP/conform.json" "$PERF_TMP/conform.2.json"

echo "ci.sh: all green"
