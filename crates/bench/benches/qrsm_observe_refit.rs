//! Criterion benches for the online-tuning fast path: the legacy
//! refit-from-scratch (rebuild the design matrix over the window, re-run a
//! batch fit) against the sliding-window RLS refit (rank-1 maintained
//! normal equations + Cholesky solve), across window sizes, plus the
//! allocation-free non-refit observe step, the engine's deferred-refit
//! window slide, and the refit's 28×28 Cholesky factorization.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use cloudburst_qrsm::decomp::Cholesky;
use cloudburst_qrsm::{design::QuadraticDesign, fit, Matrix, Method, QrsModel};
use cloudburst_sim::RngFactory;
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::GroundTruth;

fn corpus(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let rngs = RngFactory::new(1234);
    let truth = GroundTruth::default();
    let c = training_corpus(&mut rngs.stream("bench"), &truth, n);
    (c.iter().map(|(f, _)| f.regressors()).collect(), c.iter().map(|(_, t)| *t).collect())
}

/// What every refit cost before the RLS rewrite: expand the whole window
/// into a design matrix and solve from scratch.
fn batch_refit(xs: &[Vec<f64>], ys: &[f64]) -> Vec<f64> {
    let d = QuadraticDesign::new(xs[0].len());
    let m = d.design_matrix(xs);
    fit::fit(&m, ys, Method::Ols).unwrap()
}

fn bench_refit_batch_vs_rls(c: &mut Criterion) {
    let (xs, ys) = corpus(1_600);
    let mut group = c.benchmark_group("qrsm/observe_refit");
    // 400 is the engine's default window (training corpus size).
    for w in [100usize, 400, 1_000] {
        let wxs = &xs[..w];
        let wys = &ys[..w];
        group.bench_with_input(BenchmarkId::new("batch", w), &w, |b, _| {
            b.iter(|| black_box(batch_refit(wxs, wys)))
        });
        group.bench_with_input(BenchmarkId::new("rls", w), &w, |b, _| {
            let mut m = QrsModel::fit(wxs, wys, Method::Ols)
                .unwrap()
                .with_window_capacity(w)
                .with_refit_every(1);
            let mut i = 0usize;
            b.iter(|| {
                // One full observe→refit step: eviction down-date, row
                // up-date, Cholesky solve, streaming residual stats.
                let k = i % xs.len();
                i += 1;
                black_box(m.observe(&xs[k], ys[k]))
            })
        });
        group.bench_with_input(BenchmarkId::new("observe_only", w), &w, |b, _| {
            let mut m = QrsModel::fit(wxs, wys, Method::Ols)
                .unwrap()
                .with_window_capacity(w)
                .with_refit_every(0);
            let mut i = 0usize;
            b.iter(|| {
                let k = i % xs.len();
                i += 1;
                black_box(m.observe(&xs[k], ys[k]))
            })
        });
    }
    group.finish();
}

/// The engine's per-completion QRSM cost: `observe_queued` on a full
/// 400-row window of 28 quadratic terms (the default training corpus), so
/// every push evicts the oldest row and slides the normal equations.
fn bench_window_slide(c: &mut Criterion) {
    let (xs, ys) = corpus(1_600);
    let mut m = QrsModel::fit(&xs[..400], &ys[..400], Method::Ols).unwrap();
    let mut i = 400usize;
    c.bench_function("qrsm/window_slide_400x28", |b| {
        b.iter(|| {
            let k = i % xs.len();
            i += 1;
            m.observe_queued(black_box(&xs[k]), black_box(ys[k]));
        })
    });
    black_box(m.window_len());
}

/// The factorization at the heart of every refit: the maintained `XᵀX` of
/// a 400-row window of 28 quadratic terms, into a reused workspace.
fn bench_cholesky(c: &mut Criterion) {
    let (xs, ys) = corpus(400);
    let m = QrsModel::fit(&xs, &ys, Method::Ols).unwrap();
    let gram = m.normal_equations().0.clone();
    let mut l = Matrix::zeros(gram.rows(), gram.cols());
    c.bench_function("qrsm/cholesky_28", |b| {
        b.iter(|| Cholesky::factorize_into(black_box(&gram), &mut l).unwrap())
    });
    black_box(l.as_slice()[0]);
}

criterion_group!(benches, bench_refit_batch_vs_rls, bench_window_slide, bench_cholesky);
criterion_main!(benches);
