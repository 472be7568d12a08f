//! Criterion benches for scheduler decision throughput: how fast each
//! scheduler places a batch, as a function of batch size, plus one point
//! at the closed-op admission's size (one megascale batch on the 256 IC +
//! 64 EC estate behind a deep backlog) — admission's own layer row.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use cloudburst_qrsm::{Method, QrsModel};
use cloudburst_sched::{schedule_batch, EstimateProvider, LoadModelBuf, SchedulerKind};
use cloudburst_sim::{RngFactory, SimDuration, SimTime};
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::{
    ArrivalConfig, BatchArrivals, ChunkPolicy, GroundTruth, Job, SizeBucket,
};

/// The benched kinds; each point's id is the kind's report label.
const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::IcOnly,
    SchedulerKind::Greedy,
    SchedulerKind::OrderPreserving,
    SchedulerKind::Sibs,
];

fn provider(rngs: &RngFactory, truth: &GroundTruth) -> EstimateProvider {
    let corpus = training_corpus(&mut rngs.stream("train"), truth, 300);
    let xs: Vec<Vec<f64>> = corpus.iter().map(|(f, _)| f.regressors()).collect();
    let ys: Vec<f64> = corpus.iter().map(|(_, t)| *t).collect();
    EstimateProvider::new(QrsModel::fit(&xs, &ys, Method::Ols).unwrap())
        .with_bandwidth_prior(250_000.0)
}

fn fixture(batch_size: f64) -> (EstimateProvider, Vec<Job>, LoadModelBuf) {
    let rngs = RngFactory::new(77);
    let truth = GroundTruth::default();
    let est = provider(&rngs, &truth);
    let gen = BatchArrivals::new(ArrivalConfig {
        n_batches: 1,
        jobs_per_batch: batch_size,
        bucket: SizeBucket::Uniform,
        ..ArrivalConfig::default()
    });
    let jobs = gen.generate_flat(&rngs, &truth);
    let mut load = LoadModelBuf::idle(SimTime::ZERO, 8, 2);
    load.ic_free_secs = vec![2_000.0; 8];
    load.outstanding_est_completions = vec![SimTime::from_secs(2_000)];
    (est, jobs, load)
}

fn bench_schedulers(c: &mut Criterion) {
    let policy = ChunkPolicy::default();
    for batch in [15usize, 60, 240] {
        let (est, jobs, load) = fixture(batch as f64);
        let mut group = c.benchmark_group(format!("sched/batch_{batch}"));
        for kind in KINDS {
            group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
                b.iter(|| {
                    black_box(schedule_batch(kind, &policy, jobs.clone(), &load.as_model(), &est))
                })
            });
        }
        group.finish();
    }
}

/// One closed-op admission: a megascale batch (≈ 10k documents, which Op
/// chunks into ≈ 20k jobs) on the 256 IC + 64 EC estate, behind a deep
/// backlog — ≈ 40k seconds of planned work per IC machine, a queued
/// upload, and ≈ 100k outstanding completion estimates for the slack
/// anchor.
fn megascale_fixture() -> (EstimateProvider, Vec<Job>, LoadModelBuf) {
    let rngs = RngFactory::new(78);
    let truth = GroundTruth::default();
    let est = provider(&rngs, &truth);
    let jobs = BatchArrivals::new(ArrivalConfig::megascale(10_000)).generate_flat(&rngs, &truth);
    let now = SimTime::from_secs(36_000);
    let mut load = LoadModelBuf::idle(now, 256, 64);
    load.ic_free_secs = (0..256).map(|m| 38_000.0 + 17.0 * m as f64).collect();
    load.ec_free_secs = (0..64).map(|m| 900.0 + 31.0 * m as f64).collect();
    load.upload_backlog_bytes = 2_000_000_000;
    load.outstanding_est_completions =
        (0..100_000u64).map(|k| now + SimDuration::from_secs(k * 43_000 / 100_000)).collect();
    (est, jobs, load)
}

fn bench_megascale_admission(c: &mut Criterion) {
    let (est, jobs, load) = megascale_fixture();
    let policy = ChunkPolicy::default();
    let mut group = c.benchmark_group("sched/megascale_batch");
    for kind in KINDS {
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter_batched(
                || jobs.clone(),
                |batch| schedule_batch(kind, &policy, batch, &load.as_model(), &est),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers, bench_megascale_admission);
criterion_main!(benches);
