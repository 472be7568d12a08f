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
# golden scenario, the engine equivalence proptests and the one
# `shard_workers` test (the ignored knob reaches no byte of a report).
echo "== workspace tests, release (chaos goldens, equivalence proptests, shard_workers test included)"
cargo test -q --release --workspace

echo "== benches compile: cargo bench --no-run"
cargo bench --no-run

# One perf record, one rule table: each probe line is checked once against
# BENCH.json, the append-only record of every checked-in probe run.
# perfgate's RULES table holds the floors (every shared *_per_sec key >= the
# largest recorded value / 5) and the fresh-line rules (flat depth curve,
# flat serving memory, open/closed and dormant-econ ratios). Its unit
# tests, in the workspace pass above, hold every record to the same rules.
echo "== perf probes: perfsmoke and perfscale --reduced, each gated once against BENCH.json"
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT
cargo run --release -p cloudburst-bench --bin perfsmoke -- "$PERF_TMP/smoke.json"
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/smoke.json" BENCH.json
cargo run --release -p cloudburst-bench --bin perfscale -- --reduced "$PERF_TMP/scale.json"
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/scale.json" BENCH.json

# Every workload of the benchmark must reproduce its pinned report digest
# (baseline.json, seed 1); the benchmark exits non-zero on a mismatch.
echo "== benchmark pinned digests: all four workloads at seed 1"
for w in closed-op serve-diurnal chaos-econ paper-sweep; do
  cargo run --release -p cloudburst-bench --bin benchmark -- --workload "$w" --seed 1 --seconds 0
done

# Batch admission is linear in the batch: a one-pass Algorithm 2 chunk
# phase and a tournament-indexed Planner. Both must stay bitwise equal to
# the quadratic code they replaced, kept as #[cfg(test)] oracles: the
# splice-loop chunk pass (random batches over every size bucket plus one
# megascale batch, equal jobs and equal chunk-RNG end state) and the
# linear-scan planner (interleaved IC/EC commits over ties, zeros, crashed
# machines and 1-machine pools).
echo "== admission equivalence: linear chunk pass vs splice oracle, indexed vs linear-scan Planner"
cargo test -q --release -p cloudburst-workload --lib chunk::tests::linear_chunk_pass
cargo test -q --release -p cloudburst-sched --lib api::tests::indexed_planner_matches_linear_planner

# An engine wake costs only the work it does: one wake event armed at the
# earliest component deadline, and a pull-back that refits the QRSM only
# when it evaluates a candidate. Both must leave output bitwise unchanged:
# the multi-site rescheduling golden (several sites' wakes interleaving
# with pull-back/push-out under faults and the cost-aware broker) pins the
# bytes. The refit-gate unit test pins where the refit runs, and the
# whole-step counting-allocator test pins that steady-state steps allocate
# nothing.
echo "== wake-path equivalence: multi-site rescheduling golden, pull-back refit gate, zero-alloc engine steps"
cargo test -q --release --test chaos_golden golden_resched_multisite_report_is_byte_stable
cargo test -q --release -p cloudburst-core --lib engine::tests::pull_back_refits_only_when_a_candidate_is_read
cargo test -q --release -p cloudburst-core --test alloc_free_wake

# One job row, one harness: the engine keeps only the per-job columns it
# reads (placements, completions and delivered bytes live in the
# timelines; econ deadlines are derived at settlement), writes each
# admission row through one put helper, and runs both modes through one
# Harness<R>. All of it must leave output bitwise unchanged: the chaos
# goldens (including the commit-or-reject serving fixture, which pins
# derived deadlines and attempt counters on recycled slots), the
# closed-vs-open serving equivalence and the fixed-seed report goldens.
echo "== spine equivalence: chaos + commit-or-reject serving goldens, serve equivalence, golden determinism"
cargo test -q --release --test chaos_golden
cargo test -q --release -p cloudburst-core --test serve_equivalence
cargo test -q --release --test golden_determinism

# The QRSM training fit and the window's rank-1 update run over contiguous
# slices: a column-major Householder QR and Gram-row slice updates. Both
# must stay bitwise equal to the indexed row-major kernels they replaced,
# kept as #[cfg(test)] oracles: the QR over random tall, square,
# zero-column and duplicate-column systems, and the whole model fit
# (coefficients, rmse, mape, XᵀX, Xᵀy, Σy²) over 240 zero-laced corpora.
# Wrong-arity training rows are a typed error in release builds too, and
# predict/observe/refit stay allocation-free.
echo "== QRSM kernel equivalence: column-major QR and slice rank-1 vs row-major oracles, arity check, zero-alloc hot path"
cargo test -q --release -p cloudburst-qrsm --lib -- \
  decomp::tests::column_major_qr_matches_row_major_oracle \
  model::tests::fit_matches_design_matrix_qr_push_oracle \
  model::tests::fit_rejects_wrong_arity_rows
cargo test -q --release -p cloudburst-qrsm --test alloc_free

# The cluster execution layer costs O(log m) per event: per-machine
# running slots behind a (finish, machine) completion heap, and an idle
# bitset read a word at a time. Both must pick exactly what the linear
# scans they replaced picked. The unit tests assert every pick against
# the #[cfg(test)] scans; the proptest drives random submissions,
# advances, crashes, recoveries and active-limit changes on heterogeneous
# pools with equal finish times against a rebuilt linear-scan cloud; the
# IC-crash elastic-EC golden pins crash aborts and pool resizing end to
# end; and steady-state engine steps must still allocate nothing (the
# heap is pre-sized to the machine count).
echo "== execution-layer equivalence: heap/bitset Cloud vs scan oracle, IC-crash elastic golden, zero-alloc engine steps"
cargo test -q --release -p cloudburst-cluster --lib
cargo test -q --release -p cloudburst-cluster --test props heap_and_bitset_match_the_scan_oracle
cargo test -q --release --test chaos_golden golden_ic_crash_elastic_report_is_byte_stable
cargo test -q --release -p cloudburst-core --test alloc_free_wake

# The QRSM does each piece of work once, and only where a decision reads
# it: completions stop feeding the model once no decision can read it
# again (the seal), the scheduler predicts each admitted job once and
# carries the estimate, a full window slides in one fused pass, and the
# refit's residual pass dots four rows at a time. All of it is bitwise
# identical. The fused slide and the interleaved residual pass are checked
# against the two-pass and one-row #[cfg(test)] oracles, and the slide
# against a replica of two signed rank-1 calls by proptest (zeros, -0.0,
# negatives, a drift-rebuild boundary); the truncating microsecond
# rounding against f64::round; the seal's engagement by engine unit tests.
# The engine's unit tests also assert, for every scheduler, that each
# carried estimate equals a fresh prediction, and that no QRSM read comes
# after the seal. The goldens pin the bytes end to end, and steady-state
# engine steps must still allocate nothing.
echo "== QRSM read-path equivalence: seal, one estimate per job, fused slide, interleaved residuals, rounding"
cargo test -q --release -p cloudburst-qrsm --lib -- \
  model::tests::fused_slide_matches_two_pass_oracle \
  model::tests::interleaved_residual_pass_matches_one_row_oracle
cargo test -q --release -p cloudburst-qrsm --test props fused_slide_matches_two_rank1_calls
cargo test -q --release -p cloudburst-sim --lib time::tests::truncating_round_matches_f64_round
cargo test -q --release -p cloudburst-sched --test props schedulers_conserve_the_batch
cargo test -q --release -p cloudburst-core --lib
cargo test -q --release --test chaos_golden
cargo test -q --release --test golden_determinism
cargo test -q --release -p cloudburst-core --test serve_equivalence
cargo test -q --release -p cloudburst-core --test alloc_free_wake

# A paper-testbed wake does its work once: the link keeps the first piece
# `next_wake` computed and `advance_into` starts from it, the refit
# factors column by column (four rows as independent chains) and folds
# only the SSE, and the MAPE is computed on demand. All of it is bitwise
# identical. The link is checked against its uncached #[cfg(test)] oracle
# and, through the public API, against a twin never asked `next_wake`
# (random starts, aborts, faults, advances); the Cholesky against the
# row-order oracle over SPD, near-singular, singular and indefinite
# matrices (factor bits, outcome and failing pivot); the SSE-only refit
# and on-demand MAPE against the fused and one-row residual passes; the
# fused Householder vᵀv/dot pass by the QR oracle; the i64 rounding fast
# path against f64::round. The goldens pin the bytes end to end.
echo "== refit/link equivalence: kept link piece, column Cholesky, SSE-only refit, on-demand MAPE"
cargo test -q --release -p cloudburst-net --lib link::tests::kept_piece_matches_uncached_oracle
cargo test -q --release -p cloudburst-net --test props asking_next_wake_changes_nothing
cargo test -q --release -p cloudburst-qrsm --lib -- \
  decomp::tests::column_cholesky_matches_row_order_oracle \
  decomp::tests::column_major_qr_matches_row_major_oracle \
  model::tests::sse_only_refit_and_on_demand_mape_match_the_fused_pass \
  model::tests::queued_flush_is_bitwise_identical_to_eager_refit
cargo test -q --release -p cloudburst-sim --lib time::tests::truncating_round_matches_f64_round
cargo test -q --release --test chaos_golden
cargo test -q --release --test golden_determinism
cargo test -q --release -p cloudburst-core --test alloc_free_wake

# The QRSM is trained once per training key and thread: a one-entry,
# thread-local memo keyed on every fit input (seed, ground truth by bits,
# effective corpus size, per-class switch, fit method) hands each engine
# set-up a clone. The key tests force a miss on every single-field change
# (one ulp, -0.0 vs 0.0) and a hit on corpus sizes below the floor; a hit
# must be bitwise a fresh fit, pooled and per-class, and a run on a hit
# must report the bytes of a cold run. The heap test pins that a miss
# frees the stale model before training. Debug builds also re-train on
# every hit anywhere and assert bitwise equality, so both profiles run.
echo "== training memo equivalence: key fields, bitwise hits, cold-run bytes, drop before train (release and debug)"
for profile in --release ""; do
  cargo test -q $profile -p cloudburst-core --lib training::tests
  cargo test -q $profile -p cloudburst-core --test training_memo_heap
  cargo test -q $profile -p cloudburst-qrsm --lib same_bits
done

# A run is single-threaded; every multi-run fan-out goes through the one
# parallel map, cloudburst_bench::ShardPool: repro maps its ids through the
# pool and emits each result in id order. A multi-id run must therefore
# print exactly the single-id runs concatenated; a single-id run uses one
# worker, so it is serial. The pool's allocation test pins that a warm
# inline map allocates nothing and that parallel allocations do not scale
# with the item count.
echo "== repro ordered merge: pooled multi-id stdout equals the single-id runs concatenated; pool allocations"
for id in fig4a fig6 sibs; do
  cargo run -q --release -p cloudburst-bench --bin repro -- "$id"
done > "$PERF_TMP/repro.serial.txt"
cargo run -q --release -p cloudburst-bench --bin repro -- fig4a fig6 sibs > "$PERF_TMP/repro.pooled.txt"
cmp "$PERF_TMP/repro.serial.txt" "$PERF_TMP/repro.pooled.txt"
cargo test -q --release -p cloudburst-bench --test alloc_free_pool

echo "== lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== conformance: cargo run --release -p cloudburst-conform"
cargo run --release -p cloudburst-conform

# Archive the machine-readable report next to the perf probes and prove it
# byte-stable: two back-to-back scans must produce identical JSON, the
# same determinism bar the simulation reports are held to.
echo "== conformance: --json archive + byte-stability (two runs must match)"
cargo run --release -p cloudburst-conform -- --json > "$PERF_TMP/conform.json"
cargo run --release -p cloudburst-conform -- --json > "$PERF_TMP/conform.2.json"
cmp "$PERF_TMP/conform.json" "$PERF_TMP/conform.2.json"

echo "ci.sh: all green"
