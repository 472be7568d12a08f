//! Criterion benches for the network substrate: fluid-flow link advancing
//! under contention, one engine-style wake at a time, bandwidth-model
//! evaluation, and the SIBS bound computation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use cloudburst_net::queues::SibsCandidate;
use cloudburst_net::{sibs_bounds, BandwidthModel, Link, TransferId};
use cloudburst_sim::{SimDuration, SimTime};

fn bench_link_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/link_drain");
    for n in [4usize, 32, 128] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut link = Link::new(
                    BandwidthModel::high_variation(7),
                    1.5,
                    SimDuration::from_secs(30),
                );
                for i in 0..n {
                    link.start(SimTime::ZERO, TransferId(i as u64), 5_000_000, 4);
                }
                let mut completions = 0;
                let mut buf = Vec::new();
                while let Some(w) = link.next_wake() {
                    buf.clear();
                    link.advance_into(w, &mut buf);
                    completions += buf.len();
                }
                black_box(completions)
            })
        });
    }
    group.finish();
}

/// One wake as the engine drives it: `next_wake` when the wake is re-armed,
/// then `advance_into` to that instant. The `n` transfers are far too large
/// to finish, so every wake is a 30 s rate-slot boundary that completes
/// nothing — half of all events on the paper testbed.
fn bench_link_wake_advance(c: &mut Criterion) {
    let mut group = c.benchmark_group("net/link_wake_advance");
    for n in [2usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut link = Link::new(BandwidthModel::high_variation(7), 1.5, SimDuration::from_secs(30))
                .with_latency(SimDuration::from_millis(200));
            let mut next_id = 0;
            let mut buf = Vec::new();
            b.iter(|| {
                while link.in_flight() < n {
                    link.start(link.now(), TransferId(next_id), 1 << 50, 4);
                    next_id += 1;
                }
                let w = link.next_wake().expect("a busy link has a next wake");
                buf.clear();
                link.advance_into(w, &mut buf);
                black_box(buf.len())
            })
        });
    }
    group.finish();
}

fn bench_model_eval(c: &mut Criterion) {
    let model = BandwidthModel::high_variation(3);
    c.bench_function("net/model_rate_eval", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 17;
            black_box(model.rate_bps(SimTime::from_secs(t % 86_400)))
        })
    });
}

fn bench_sibs_bounds(c: &mut Criterion) {
    let batch: Vec<SibsCandidate> = (0..512)
        .map(|i| SibsCandidate {
            size: 1_000_000 + (i as u64 * 2_654_435_761) % 299_000_000,
            t_up: 100.0,
            e_ec: 300.0,
            t_down: 60.0,
            e_ic: 300.0,
        })
        .collect();
    c.bench_function("net/sibs_bounds_512", |b| {
        b.iter(|| black_box(sibs_bounds(&batch, 100_000.0, 8, (1_000, 2_000, 3_000))))
    });
}

criterion_group!(
    benches,
    bench_link_contention,
    bench_link_wake_advance,
    bench_model_eval,
    bench_sibs_bounds
);
criterion_main!(benches);
