//! Coefficient estimation: OLS, ridge, and LAD (the LP-equivalent robust
//! fit) via iteratively reweighted least squares.

use crate::decomp::{Cholesky, Qr};
use crate::matrix::{Matrix, MatrixError};

/// Fitting method for the response surface.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Ordinary least squares via Householder QR.
    Ols,
    /// Ridge regression with penalty `lambda` (intercept not penalized).
    Ridge(f64),
    /// Least absolute deviations via IRLS — the robust fit equivalent to the
    /// paper's linear-programming formulation of the coefficient estimation.
    Lad,
}

/// Errors from model fitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FitError {
    /// Fewer observations than coefficients (underdetermined).
    TooFewObservations,
    /// Design/response length mismatch.
    DimensionMismatch,
    /// The design matrix is rank-deficient or the normal equations are not
    /// SPD.
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewObservations => write!(f, "too few observations for the basis size"),
            FitError::DimensionMismatch => write!(f, "design/response dimension mismatch"),
            FitError::Singular => write!(f, "design matrix is rank-deficient"),
        }
    }
}

impl std::error::Error for FitError {}

impl From<MatrixError> for FitError {
    fn from(e: MatrixError) -> FitError {
        match e {
            MatrixError::DimensionMismatch => FitError::DimensionMismatch,
            MatrixError::Singular => FitError::Singular,
        }
    }
}

/// Fits coefficients for design matrix `x` (n×p) and response `y` (n).
pub fn fit(x: &Matrix, y: &[f64], method: Method) -> Result<Vec<f64>, FitError> {
    if x.rows() != y.len() {
        return Err(FitError::DimensionMismatch);
    }
    if x.rows() < x.cols() {
        return Err(FitError::TooFewObservations);
    }
    match method {
        Method::Ols => Ok(Qr::new(x)?.solve(y)?),
        Method::Ridge(lambda) => ridge(x, y, lambda),
        Method::Lad => lad_irls(x, y, 40, 1e-8),
    }
}

/// [`fit`] over a flat row-major design of `y.len()` rows × `p` columns,
/// whose shape the caller has checked. The model's training fit hands its
/// ring rows over here: OLS factorizes them without building a [`Matrix`].
pub(crate) fn fit_rows(
    rows: &[f64],
    p: usize,
    y: &[f64],
    method: Method,
) -> Result<Vec<f64>, FitError> {
    match method {
        Method::Ols => Ok(Qr::from_row_major(rows, y.len(), p)?.solve(y)?),
        Method::Ridge(_) | Method::Lad => {
            fit(&Matrix::from_row_major(y.len(), p, rows.to_vec()), y, method)
        }
    }
}

/// Ridge: solve `(XᵀX + λ·D)·β = Xᵀy` where `D` is the identity except a
/// zero in the intercept position (column 0 is assumed to be the intercept,
/// which the quadratic design guarantees).
fn ridge(x: &Matrix, y: &[f64], lambda: f64) -> Result<Vec<f64>, FitError> {
    assert!(lambda >= 0.0, "ridge penalty must be non-negative");
    let mut g = x.gram();
    for i in 1..g.rows() {
        g[(i, i)] += lambda;
    }
    // With lambda = 0 this is plain normal-equations OLS; a rank-deficient
    // design then surfaces as MatrixError::Singular from the factorization.
    let ch = Cholesky::new(&g)?;
    Ok(ch.solve(&x.t_vec(y)?)?)
}

/// LAD via iteratively reweighted least squares: weights `w_i = 1/max(|r_i|, δ)`
/// converge to the ℓ₁ solution (Schlossmacher 1973). Each iteration solves a
/// weighted ridge system with a tiny stabilizing penalty.
fn lad_irls(x: &Matrix, y: &[f64], max_iter: usize, tol: f64) -> Result<Vec<f64>, FitError> {
    let n = x.rows();
    // Start from OLS (fall back to mild ridge if singular).
    let beta = match Qr::new(x)?.solve(y) {
        Ok(b) => b,
        Err(_) => ridge(x, y, 1e-6)?,
    };
    lad_irls_rows((0..n).map(|r| (x.row(r), y[r])), x.cols(), beta, max_iter, tol)
}

/// The IRLS core over any re-iterable `(design row, response)` stream — the
/// sliding-window model feeds its ring-stored rows here directly, without
/// rebuilding a design matrix.
pub(crate) fn lad_irls_rows<'a, I>(
    data: I,
    p: usize,
    start: Vec<f64>,
    max_iter: usize,
    tol: f64,
) -> Result<Vec<f64>, FitError>
where
    I: Iterator<Item = (&'a [f64], f64)> + Clone,
{
    let delta = 1e-6;
    let mut beta = start;
    for _ in 0..max_iter {
        // Build weighted normal equations: Xᵀ W X β = Xᵀ W y.
        let mut g = Matrix::zeros(p, p);
        let mut rhs = vec![0.0; p];
        for (row, yr) in data.clone() {
            let pred: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
            let w = 1.0 / (yr - pred).abs().max(delta);
            for i in 0..p {
                let wa = w * row[i];
                rhs[i] += wa * yr;
                for j in i..p {
                    g[(i, j)] += wa * row[j];
                }
            }
        }
        for i in 0..p {
            g[(i, i)] += 1e-10; // numerical floor
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        let next = Cholesky::new(&g)?.solve(&rhs)?;
        let change: f64 = next.iter().zip(&beta).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        beta = next;
        if change < tol {
            break;
        }
    }
    Ok(beta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::QuadraticDesign;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    fn quadratic_data(coeffs: &[f64], n: usize) -> (Matrix, Vec<f64>) {
        let d = QuadraticDesign::new(2);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let a = (i % 13) as f64 * 0.5;
                let b = (i % 7) as f64 * 1.3 - 3.0;
                vec![a, b]
            })
            .collect();
        let m = d.design_matrix(&xs);
        let y: Vec<f64> = xs.iter().map(|x| d.eval(coeffs, x)).collect();
        (m, y)
    }

    #[test]
    fn ols_recovers_exact_coefficients() {
        let truth = [2.0, -1.0, 0.5, 0.25, 1.5, -0.75];
        let (x, y) = quadratic_data(&truth, 60);
        let beta = fit(&x, &y, Method::Ols).expect("full-rank OLS fit");
        approx(&beta, &truth, 1e-8);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let truth = [2.0, -1.0, 0.5, 0.25, 1.5, -0.75];
        let (x, y) = quadratic_data(&truth, 60);
        let b0 = fit(&x, &y, Method::Ridge(0.0)).expect("unpenalized ridge fit");
        let b_small = fit(&x, &y, Method::Ridge(1.0)).expect("lightly penalized ridge fit");
        let b_big = fit(&x, &y, Method::Ridge(1e6)).expect("heavily penalized ridge fit");
        approx(&b0, &truth, 1e-6);
        // Non-intercept coefficient magnitude decreases with lambda.
        let norm = |b: &[f64]| b[1..].iter().map(|v| v * v).sum::<f64>();
        assert!(norm(&b_small) < norm(&b0));
        assert!(norm(&b_big) < norm(&b_small));
        assert!(norm(&b_big) < 1e-3 * norm(&b0), "big-lambda norm {}", norm(&b_big));
    }

    #[test]
    fn lad_matches_ols_on_clean_data() {
        let truth = [2.0, -1.0, 0.5, 0.25, 1.5, -0.75];
        let (x, y) = quadratic_data(&truth, 60);
        let beta = fit(&x, &y, Method::Lad).expect("LAD IRLS converges on a clean line");
        approx(&beta, &truth, 1e-4);
    }

    #[test]
    fn lad_is_robust_to_outliers() {
        let truth = [2.0, -1.0, 0.5, 0.25, 1.5, -0.75];
        let (x, mut y) = quadratic_data(&truth, 80);
        // Corrupt 5 responses grossly.
        for i in [3usize, 17, 33, 51, 70] {
            y[i] += 1e4;
        }
        let ols = fit(&x, &y, Method::Ols).expect("full-rank OLS fit");
        let lad = fit(&x, &y, Method::Lad).expect("LAD IRLS converges on a clean line");
        let err = |b: &[f64]| {
            b.iter().zip(&truth).map(|(a, t)| (a - t).abs()).fold(0.0, f64::max)
        };
        assert!(err(&lad) < 0.05, "LAD error {}", err(&lad));
        assert!(err(&ols) > 10.0 * err(&lad), "OLS should be badly hurt: {}", err(&ols));
    }

    #[test]
    fn errors_on_bad_shapes() {
        let x = Matrix::zeros(3, 6);
        assert_eq!(fit(&x, &[1.0, 2.0, 3.0], Method::Ols).unwrap_err(), FitError::TooFewObservations);
        let x = Matrix::from_rows(&[vec![1.0], vec![1.0]]);
        assert_eq!(fit(&x, &[1.0], Method::Ols).unwrap_err(), FitError::DimensionMismatch);
    }

    #[test]
    fn singular_design_is_reported() {
        // Two identical columns.
        let x = Matrix::from_rows(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
        ]);
        assert_eq!(fit(&x, &[1.0, 2.0, 3.0], Method::Ols).unwrap_err(), FitError::Singular);
    }
}
