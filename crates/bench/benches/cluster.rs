//! Criterion bench for the cluster execution layer: completion and
//! dispatch churn on a megascale-sized pool behind a deep FCFS queue.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cloudburst_cluster::Cloud;
use cloudburst_sim::SimTime;

/// The benchmark's megascale IC estate.
const MACHINES: usize = 256;
/// Jobs kept waiting behind the busy pool.
const QUEUE_DEPTH: usize = 4_096;
/// Completions collected per timed iteration.
const COMPLETIONS_PER_ITER: usize = 1_024;

/// Scattered, deterministic service times in standard seconds.
fn service_secs(key: u64) -> f64 {
    30.0 + (key.wrapping_mul(2_654_435_761) % 600) as f64
}

/// Steady-state churn: every wake collects the due completions (each one
/// dispatches the queue head onto the freed machine), reads the pool's
/// boundary as the engine's pull-back check does, and refills the queue
/// to its depth.
fn bench_churn(c: &mut Criterion) {
    let mut cloud: Cloud<u64> = Cloud::homogeneous("ic", MACHINES, 1.0);
    let mut now = SimTime::ZERO;
    let mut key = 0;
    for _ in 0..MACHINES + QUEUE_DEPTH {
        cloud.submit_weighted(now, key, service_secs(key), 1);
        key += 1;
    }
    let mut done = Vec::with_capacity(MACHINES);
    c.bench_function("cluster/churn_256", |b| {
        b.iter(|| {
            let mut completed = 0;
            while completed < COMPLETIONS_PER_ITER {
                now = cloud.next_wake().expect("a deep queue keeps the pool busy");
                done.clear();
                cloud.advance_into(now, &mut done);
                black_box(cloud.boundary());
                for _ in 0..done.len() {
                    cloud.submit_weighted(now, key, service_secs(key), 1);
                    key += 1;
                }
                completed += done.len();
            }
            black_box(completed)
        })
    });
}

criterion_group!(benches, bench_churn);
criterion_main!(benches);
