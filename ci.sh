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
# golden scenario and the shard byte-identity suites, which previously ran
# as separate (duplicate) invocations.
echo "== workspace tests, release (chaos golden + shard composition included)"
cargo test -q --release --workspace

echo "== benches compile: cargo bench --no-run"
cargo bench --no-run

echo "== perfsmoke probes + floor gates vs BENCH_PR2.json / BENCH_PR5.json"
PERF_TMP="$(mktemp -d)"
trap 'rm -rf "$PERF_TMP"' EXIT
cargo run --release -p cloudburst-bench --bin perfsmoke -- "$PERF_TMP/smoke.json"
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/smoke.json" BENCH_PR2.json
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/smoke.json" BENCH_PR5.json
# BENCH_PR9.json adds the open-system serving record: sustained jobs/s
# floors, the >= 0.9x open/closed throughput ratio, and the per-window
# live-bytes flatness rule (both read from the fresh smoke line).
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/smoke.json" BENCH_PR9.json
# BENCH_PR10.json adds the economics record: the dormant-econ runs/s and
# cost-aware broker decisions/s floors, plus the fresh-line rule that a
# dormant econ section holds >= 0.95x the econ-free throughput (the
# wall-clock half of the byte-identity contract).
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/smoke.json" BENCH_PR10.json

echo "== perfscale reduced probe + floor gates vs BENCH_PR4.json / BENCH_PR6.json / BENCH_PR7.json"
cargo run --release -p cloudburst-bench --bin perfscale -- --reduced "$PERF_TMP/scale.json"
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/scale.json" BENCH_PR4.json
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/scale.json" BENCH_PR6.json
# BENCH_PR7.json adds the threads-vs-throughput curve; perfgate's scaling
# rule (>= 2x end-to-end at 4 shard workers) arms itself from the fresh
# record's host_cores, so a single-core CI box skips it with a notice
# instead of failing on physics.
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/scale.json" BENCH_PR7.json
# The serve-scale half of BENCH_PR9.json: the reduced probe emits the same
# generic serve_scale_* keys as the checked-in 10M-job record, so the
# megascale memory-flatness rule and the jobs/s floor both arm here.
cargo run --release -p cloudburst-bench --bin perfgate -- "$PERF_TMP/scale.json" BENCH_PR9.json

echo "== depth-curve record self-gate: BENCH_PR6.json curve must be flat (<= 2x)"
cargo run --release -p cloudburst-bench --bin perfgate -- BENCH_PR6.json BENCH_PR6.json 1.0 2.0

echo "== BENCH_PR7.json self-gate: curve still flat; threads rule arms iff host_cores >= 4"
cargo run --release -p cloudburst-bench --bin perfgate -- BENCH_PR7.json BENCH_PR7.json 1.0 2.0

echo "== BENCH_PR9.json self-gate: serving record's memory curves flat, open/closed ratio >= 0.9"
cargo run --release -p cloudburst-bench --bin perfgate -- BENCH_PR9.json BENCH_PR9.json 1.0

echo "== BENCH_PR10.json self-gate: dormant econ holds >= 0.95x econ-free throughput"
cargo run --release -p cloudburst-bench --bin perfgate -- BENCH_PR10.json BENCH_PR10.json 1.0

# The PR's headline guarantee gets its own named gate: the composition
# proptest (3 schedulers, with/without an armed chaos plan, workers
# 1 vs 2/4/8) plus the worker-count invariance goldens. These targeted
# binaries are seconds of work — unlike the old full-suite duplicate
# runs, which the single workspace pass above replaced.
echo "== shard byte-identity: composition proptest (3 schedulers, +/- armed chaos) + worker-count goldens"
cargo test -q --release -p cloudburst-core --lib equivalence
cargo test -q --release --test shard_invariance

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

# Every multi-run fan-out goes through the one thread coordinator,
# ShardPool: repro maps its ids through the pool and emits each result in
# id order. A multi-id run must therefore print exactly the single-id runs
# concatenated; a single-id run uses one worker, so it is serial.
echo "== repro ordered merge: pooled multi-id stdout equals the single-id runs concatenated"
for id in fig4a fig6 sibs; do
  cargo run -q --release -p cloudburst-bench --bin repro -- "$id"
done > "$PERF_TMP/repro.serial.txt"
cargo run -q --release -p cloudburst-bench --bin repro -- fig4a fig6 sibs > "$PERF_TMP/repro.pooled.txt"
cmp "$PERF_TMP/repro.serial.txt" "$PERF_TMP/repro.pooled.txt"

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
