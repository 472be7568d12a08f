//! Property tests for the linear-algebra and fitting stack.

use proptest::prelude::*;

use cloudburst_qrsm::decomp::{Cholesky, Qr};
use cloudburst_qrsm::model::REBUILD_DOWNDATES;
use cloudburst_qrsm::{design::QuadraticDesign, fit, ClassedModel, Matrix, Method, QrsModel};

/// A random well-conditioned tall matrix: diagonal dominance via identity
/// scaling keeps QR and Cholesky honest without degenerate cases.
fn tall_matrix(rows: usize, cols: usize, entries: &[f64]) -> Matrix {
    let data: Vec<Vec<f64>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| {
                    let e = entries[(r * cols + c) % entries.len()];
                    if r == c {
                        e + 3.0
                    } else {
                        e
                    }
                })
                .collect()
        })
        .collect();
    Matrix::from_rows(&data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (Aᵀ·A) from `gram` equals the explicit product, and Cholesky solves
    /// the SPD system it came from.
    #[test]
    fn gram_and_cholesky_agree(
        entries in prop::collection::vec(-2.0f64..2.0, 24),
        rhs in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let a = tall_matrix(6, 4, &entries);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                prop_assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-9);
            }
        }
        let ch = Cholesky::new(&g).expect("gram of full-rank tall matrix is SPD");
        let x = ch.solve(&rhs).unwrap();
        let gx = g.matvec(&x).unwrap();
        for (got, want) in gx.iter().zip(&rhs) {
            prop_assert!((got - want).abs() < 1e-6, "Cholesky residual too large");
        }
    }

    /// QR least squares satisfies the normal equations: Aᵀ(Ax − b) ≈ 0.
    #[test]
    fn qr_satisfies_normal_equations(
        entries in prop::collection::vec(-2.0f64..2.0, 24),
        b in prop::collection::vec(-5.0f64..5.0, 6),
    ) {
        let a = tall_matrix(6, 4, &entries);
        let x = Qr::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let grad = a.t_vec(&resid).unwrap();
        for g in grad {
            prop_assert!(g.abs() < 1e-6, "gradient {g} not ~0");
        }
    }

    /// OLS through the quadratic design is invariant to response scaling:
    /// fit(c·y) = c·fit(y).
    #[test]
    fn fit_is_linear_in_response(
        coeffs in prop::collection::vec(-3.0f64..3.0, 6),
        scale in 0.1f64..10.0,
    ) {
        let d = QuadraticDesign::new(2);
        let xs: Vec<Vec<f64>> =
            (0..30).map(|i| vec![(i % 7) as f64, ((i * 3) % 5) as f64]).collect();
        let m = d.design_matrix(&xs);
        let y: Vec<f64> = xs.iter().map(|x| d.eval(&coeffs, x)).collect();
        let y2: Vec<f64> = y.iter().map(|v| v * scale).collect();
        let b1 = fit::fit(&m, &y, Method::Ols).unwrap();
        let b2 = fit::fit(&m, &y2, Method::Ols).unwrap();
        for (a, b) in b1.iter().zip(&b2) {
            prop_assert!((a * scale - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    /// Ridge coefficient norms decrease monotonically in λ.
    #[test]
    fn ridge_norm_is_monotone(coeffs in prop::collection::vec(-3.0f64..3.0, 6)) {
        let d = QuadraticDesign::new(2);
        let xs: Vec<Vec<f64>> =
            (0..30).map(|i| vec![(i % 7) as f64, ((i * 3) % 5) as f64]).collect();
        let m = d.design_matrix(&xs);
        let y: Vec<f64> = xs.iter().map(|x| d.eval(&coeffs, x)).collect();
        let norm = |b: &[f64]| b[1..].iter().map(|v| v * v).sum::<f64>();
        let mut last = f64::INFINITY;
        for lambda in [0.0, 0.1, 1.0, 10.0, 100.0] {
            let b = fit::fit(&m, &y, Method::Ridge(lambda)).unwrap();
            let n = norm(&b);
            prop_assert!(n <= last + 1e-9, "ridge norm grew at λ={lambda}");
            last = n;
        }
    }

    /// The quadratic expansion length and evaluation agree with a direct
    /// polynomial computation for any arity 1–4.
    #[test]
    fn design_eval_matches_manual(
        x in prop::collection::vec(-3.0f64..3.0, 1..5),
        seed in 0u64..1_000,
    ) {
        let n = x.len();
        let d = QuadraticDesign::new(n);
        prop_assert_eq!(d.n_terms(), 1 + 2 * n + n * (n - 1) / 2);
        // Pseudo-random coefficients from the seed.
        let coeffs: Vec<f64> =
            (0..d.n_terms()).map(|i| ((seed + i as u64 * 7919) % 13) as f64 - 6.0).collect();
        let mut manual = coeffs[0];
        let mut k = 1;
        for xi in &x {
            manual += coeffs[k] * xi;
            k += 1;
        }
        for i in 0..n {
            for j in i + 1..n {
                manual += coeffs[k] * x[i] * x[j];
                k += 1;
            }
        }
        for xi in &x {
            manual += coeffs[k] * xi * xi;
            k += 1;
        }
        prop_assert!((d.eval(&coeffs, &x) - manual).abs() < 1e-9);
    }

    /// The sliding-window RLS coefficients (rank-1 up/down-dated normal
    /// equations, Cholesky solve) match a cold batch `fit()` on exactly the
    /// surviving window to ≤1e-6 relative error — including after random
    /// numbers of evictions have cycled rows out of the ring.
    #[test]
    fn rls_matches_cold_batch_fit_after_evictions(
        window in 16usize..48,
        extra in 0usize..120,
        noise_seed in 0u64..1_000,
        c0 in -2.0f64..2.0,
        c1 in -2.0f64..2.0,
        lambda in -5.0f64..5.0,
    ) {
        // Negative draws select OLS; positive ones exercise the ridge path.
        let method = if lambda <= 0.0 { Method::Ols } else { Method::Ridge(lambda) };
        let point = |i: usize| vec![(i % 13) as f64 * 0.5, ((i * 7) % 11) as f64 - 5.0];
        let respond = |i: usize, x: &[f64]| {
            let noise = ((noise_seed + i as u64 * 2654435761) % 97) as f64 / 97.0 - 0.5;
            3.0 + c0 * x[0] + c1 * x[1] + 0.3 * x[0] * x[1] + noise
        };
        let n0 = window + 5; // initial corpus larger than the window
        let xs: Vec<Vec<f64>> = (0..n0).map(point).collect();
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| respond(i, x)).collect();
        let mut m = QrsModel::fit(&xs, &ys, method)
            .unwrap()
            .with_window_capacity(window)
            .with_refit_every(1);
        let mut all: Vec<(Vec<f64>, f64)> = xs.into_iter().zip(ys).collect();
        for i in n0..n0 + extra {
            let x = point(i);
            let y = respond(i, &x);
            prop_assert!(m.observe(&x, y), "refit must succeed on well-posed data");
            all.push((x, y));
        }
        // Cold batch fit on exactly the rows the ring retained (the newest
        // `window` observations).
        let tail = &all[all.len() - window..];
        let bxs: Vec<Vec<f64>> = tail.iter().map(|(x, _)| x.clone()).collect();
        let bys: Vec<f64> = tail.iter().map(|(_, y)| *y).collect();
        let batch = QrsModel::fit(&bxs, &bys, method).unwrap();
        m.refit().unwrap(); // with_window_capacity may have trimmed without refit
        for (a, b) in m.coeffs().iter().zip(batch.coeffs()) {
            prop_assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "RLS {a} vs batch {b}"
            );
        }
        prop_assert!((m.rmse() - batch.rmse()).abs() <= 1e-6 * (1.0 + batch.rmse()));
        prop_assert!((m.mape() - batch.mape()).abs() <= 1e-6 * (1.0 + batch.mape()));
    }

    /// Per-class models never do worse than pooled on their own class when
    /// regimes genuinely differ (noise-free).
    #[test]
    fn classed_beats_pooled_on_separated_regimes(factor in 1.5f64..4.0) {
        let mut samples = Vec::new();
        for i in 0..50 {
            let x = (i % 17) as f64 * 0.7;
            samples.push((0u64, vec![x], 5.0 + x));
            samples.push((1u64, vec![x], factor * (5.0 + x)));
        }
        let m = ClassedModel::fit(&samples, Method::Ols, 8).unwrap();
        let xs: Vec<Vec<f64>> = samples.iter().map(|(_, x, _)| x.clone()).collect();
        let ys: Vec<f64> = samples.iter().map(|(_, _, y)| *y).collect();
        let pooled = QrsModel::fit(&xs, &ys, Method::Ols).unwrap();
        let probe = [5.0];
        let err_classed = (m.predict(0, &probe) - 10.0).abs();
        let err_pooled = (pooled.predict(&probe) - 10.0).abs();
        prop_assert!(err_classed <= err_pooled + 1e-9);
        prop_assert!(err_classed < 1e-6, "noise-free per-class fit is exact");
    }
}

/// The signed rank-1 update the sliding window applied before its slide
/// was fused: Gram row `i` gains `(sign·rowᵢ)·row[..=i]`, rows whose
/// scaled entry is zero skipped.
fn rank1_signed(gram: &mut [f64], xty: &mut [f64], yty: &mut f64, row: &[f64], y: f64, sign: f64) {
    let p = row.len();
    for i in 0..p {
        let ai = sign * row[i];
        if ai == 0.0 {
            continue;
        }
        xty[i] += ai * y;
        for j in 0..=i {
            gram[i * p + j] += ai * row[j];
        }
    }
    *yty += sign * y * y;
}

/// A feature drawn from a palette of exact zeros, negative zeros,
/// negatives and arbitrary values.
fn palette_feature(code: u8, v: f64) -> f64 {
    match code {
        0 => 0.0,
        1 => -0.0,
        2 => -v,
        _ => v,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every window push, fused slide included, leaves `(XᵀX, Xᵀy, Σy²)`
    /// bitwise equal to a replica that down-dates the evicted row and then
    /// up-dates the new one with two separate signed rank-1 calls, and
    /// rebuilds from its ring every `REBUILD_DOWNDATES` evictions. Rows
    /// carry exact zeros, `-0.0` and negatives; half the cases run past a
    /// rebuild boundary.
    #[test]
    fn fused_slide_matches_two_rank1_calls(
        arity in 1usize..7,
        slack in 1usize..20,
        codes in prop::collection::vec(0u8..6, 64),
        values in prop::collection::vec(0.0f64..8.0, 64),
        extra in 0usize..200,
        cross_rebuild in any::<bool>(),
    ) {
        let design = QuadraticDesign::new(arity);
        let p = design.n_terms();
        let window = p + slack;
        let x_at = |k: usize| -> Vec<f64> {
            (0..arity)
                .map(|f| {
                    let s = (k * 7 + f * 13) % 64;
                    palette_feature(codes[s], values[(s + k) % 64] + (k % 5) as f64)
                })
                .collect()
        };
        let y_at = |k: usize| ((k * 31) % 17) as f64 - 6.0 + values[k % 64];
        let n0 = window + 5;
        let xs: Vec<Vec<f64>> = (0..n0).map(x_at).collect();
        let ys: Vec<f64> = (0..n0).map(y_at).collect();
        // Ridge keeps the training solve well posed on zero-heavy rows.
        let mut m = QrsModel::fit(&xs, &ys, Method::Ridge(1e-3))
            .unwrap()
            .with_window_capacity(window)
            .with_refit_every(0);
        let (g0, b0, s0) = m.normal_equations();
        let (mut gram, mut xty, mut yty) = (g0.as_slice().to_vec(), b0.to_vec(), s0);
        let mut ring: std::collections::VecDeque<(Vec<f64>, f64)> =
            (n0 - window..n0).map(|k| (design.expand(&xs[k]), ys[k])).collect();
        let mut downdates = 0;
        let pushes = extra + if cross_rebuild { REBUILD_DOWNDATES } else { 0 };
        for k in n0..n0 + pushes {
            let (x, y) = (x_at(k), y_at(k));
            m.observe_queued(&x, y);
            if ring.len() == window {
                let (old, y_old) = ring.pop_front().unwrap();
                rank1_signed(&mut gram, &mut xty, &mut yty, &old, y_old, -1.0);
                downdates += 1;
            }
            let row = design.expand(&x);
            rank1_signed(&mut gram, &mut xty, &mut yty, &row, y, 1.0);
            ring.push_back((row, y));
            if downdates >= REBUILD_DOWNDATES {
                gram.fill(0.0);
                xty.fill(0.0);
                yty = 0.0;
                for (row, y) in &ring {
                    rank1_signed(&mut gram, &mut xty, &mut yty, row, *y, 1.0);
                }
                downdates = 0;
            }
            let (g, b, s) = m.normal_equations();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(g.as_slice()), bits(&gram), "XᵀX after push {}", k);
            prop_assert_eq!(bits(b), bits(&xty), "Xᵀy after push {}", k);
            prop_assert_eq!(s.to_bits(), yty.to_bits(), "Σy² after push {}", k);
        }
        prop_assert_eq!(m.window_len(), ring.len());
    }
}
