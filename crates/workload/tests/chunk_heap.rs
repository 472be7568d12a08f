//! Pins the chunk pass's allocation shape: on a megascale batch,
//! `chunk_batch` allocates its output once, at exactly its final length,
//! and its allocation count does not grow with the number of split jobs.
//!
//! Its own test binary: the counting allocator is process-global, so
//! nothing else may allocate concurrently in here.

use cloudburst_sim::RngFactory;
use cloudburst_testsupport::{allocations, CountingAlloc};
use cloudburst_workload::chunk::{chunk_batch, ChunkPolicy};
use cloudburst_workload::{ArrivalConfig, BatchArrivals, GroundTruth, Job};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Chunks `jobs` under `policy`; returns the allocation count, the number
/// of split originals and the output.
fn chunk_counted(jobs: Vec<Job>, policy: &ChunkPolicy) -> (usize, usize, Vec<Job>) {
    let n = jobs.len();
    let (allocs, out) = allocations(|| chunk_batch(jobs, policy));
    let chunks = out.iter().filter(|j| j.is_chunk()).count();
    let kept = out.len() - chunks;
    (allocs, n - kept, out)
}

#[test]
fn chunk_batch_allocates_its_output_once_at_its_exact_length() {
    // One megascale batch (≈ 10k documents, the closed-op admission).
    let jobs = BatchArrivals::new(ArrivalConfig::megascale(10_000))
        .generate_flat(&RngFactory::new(1), &GroundTruth::default());
    assert!(jobs.len() >= 9_000, "megascale batch has {} docs", jobs.len());

    // Nothing splits under an unreachable σ threshold; under the paper's
    // policy thousands of originals split, and under a 10 MB target on a
    // zero threshold nearly all of them do.
    let none = ChunkPolicy { sigma_threshold_mb: f64::INFINITY, ..ChunkPolicy::default() };
    let paper = ChunkPolicy::default();
    let fine = ChunkPolicy { sigma_threshold_mb: 0.0, target_chunk_mb: 10.0, ..paper.clone() };

    let mut counts = Vec::new();
    for policy in [&none, &paper, &fine] {
        let (allocs, split, out) = chunk_counted(jobs.clone(), policy);
        assert_eq!(out.capacity(), out.len(), "the output is allocated at its exact length");
        counts.push((allocs, split, out.len()));
    }
    let (a_none, split_none, len_none) = counts[0];
    assert_eq!(split_none, 0);
    assert_eq!(len_none, jobs.len());
    for &(allocs, split, len) in &counts[1..] {
        assert!(split > 1_000, "the policy splits {split} originals");
        assert!(len > jobs.len() + split);
        assert_eq!(
            allocs, a_none,
            "{split} split originals cost {allocs} allocations, an unsplit batch {a_none}"
        );
    }
    // Two scratch columns (sizes and chunk counts) and the output.
    assert_eq!(a_none, 3, "chunk_batch allocates its output once");
}
