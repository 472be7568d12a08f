//! Criterion benches for the QRSM stack: design expansion, OLS / ridge /
//! LAD fitting, the model's whole training fit, prediction and online
//! refits.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

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

fn bench_design_expansion(c: &mut Criterion) {
    let (xs, _) = corpus(500);
    let d = QuadraticDesign::new(xs[0].len());
    c.bench_function("qrsm/design_matrix_500x28", |b| {
        b.iter(|| black_box(d.design_matrix(&xs)))
    });
}

fn bench_fits(c: &mut Criterion) {
    let (xs, ys) = corpus(500);
    let d = QuadraticDesign::new(xs[0].len());
    let m: Matrix = d.design_matrix(&xs);
    let mut group = c.benchmark_group("qrsm/fit_500x28");
    for (label, method) in
        [("ols", Method::Ols), ("ridge", Method::Ridge(1.0)), ("lad", Method::Lad)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &method, |b, &method| {
            b.iter(|| black_box(fit::fit(&m, &ys, method).unwrap()))
        });
    }
    group.finish();
}

/// The whole training fit that engine set-up pays: row expansion into the
/// window ring, the QR solve, the window's normal equations and the
/// residual stats.
fn bench_model_fit(c: &mut Criterion) {
    let (xs, ys) = corpus(400);
    c.bench_function("qrsm/model_fit_400x28", |b| {
        b.iter(|| black_box(QrsModel::fit(&xs, &ys, Method::Ols).unwrap()))
    });
}

fn bench_predict(c: &mut Criterion) {
    let (xs, ys) = corpus(500);
    let model = QrsModel::fit(&xs, &ys, Method::Ols).unwrap();
    let probe = xs[0].clone();
    c.bench_function("qrsm/predict", |b| b.iter(|| black_box(model.predict(&probe))));
}

fn bench_online_refit(c: &mut Criterion) {
    let (xs, ys) = corpus(300);
    c.bench_function("qrsm/refit_300_window", |b| {
        b.iter_batched(
            || QrsModel::fit(&xs, &ys, Method::Ols).unwrap(),
            |mut m| {
                m.refit().unwrap();
                black_box(m)
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_design_expansion,
    bench_fits,
    bench_model_fit,
    bench_predict,
    bench_online_refit
);
criterion_main!(benches);
