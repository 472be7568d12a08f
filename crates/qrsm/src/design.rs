//! Quadratic design-matrix construction.
//!
//! Expands a raw feature vector `x ∈ ℝᴺ` into the full second-order basis
//! of Sec. III-A-1: intercept, linear terms, pairwise interactions and pure
//! quadratics — `1, x_i, x_i·x_j (i<j), x_i²`.

use crate::matrix::Matrix;

/// Identity of one term in the quadratic basis, for interpretable output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Term {
    /// The constant `a`.
    Intercept,
    /// `b_i · x_i`.
    Linear(usize),
    /// `c_ij · x_i·x_j` with `i < j`.
    Interaction(usize, usize),
    /// `d_i · x_i²`.
    Quadratic(usize),
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Intercept => write!(f, "1"),
            Term::Linear(i) => write!(f, "x{i}"),
            Term::Interaction(i, j) => write!(f, "x{i}*x{j}"),
            Term::Quadratic(i) => write!(f, "x{i}^2"),
        }
    }
}

/// The quadratic basis over `n_features` raw features.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuadraticDesign {
    n_features: usize,
    terms: Vec<Term>,
}

impl QuadraticDesign {
    /// Builds the full quadratic basis for `n_features` raw inputs.
    pub fn new(n_features: usize) -> QuadraticDesign {
        let mut terms = Vec::with_capacity(Self::term_count(n_features));
        terms.push(Term::Intercept);
        for i in 0..n_features {
            terms.push(Term::Linear(i));
        }
        for i in 0..n_features {
            for j in i + 1..n_features {
                terms.push(Term::Interaction(i, j));
            }
        }
        for i in 0..n_features {
            terms.push(Term::Quadratic(i));
        }
        QuadraticDesign { n_features, terms }
    }

    /// `1 + N + C(N,2) + N` — the basis size for `n` raw features.
    pub const fn term_count(n: usize) -> usize {
        1 + 2 * n + n * (n - 1) / 2
    }

    /// Number of raw input features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of basis terms (model coefficients).
    pub fn n_terms(&self) -> usize {
        self.terms.len()
    }

    /// The ordered term list.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Expands one raw feature vector into the basis. Panics if `x` has the
    /// wrong arity.
    pub fn expand(&self, x: &[f64]) -> Vec<f64> {
        let mut row = vec![0.0; self.terms.len()];
        self.expand_into(x, &mut row);
        row
    }

    /// Expands one raw feature vector into a caller-provided row — the
    /// allocation-free path used by the sliding-window model, which writes
    /// each design row exactly once into its ring storage. Arity
    /// mismatches are debug-checked: arities are fixed at construction,
    /// so the release hot path carries no branch for them.
    pub fn expand_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n_features, "feature arity mismatch");
        debug_assert_eq!(out.len(), self.terms.len(), "row arity mismatch");
        for (o, t) in out.iter_mut().zip(&self.terms) {
            *o = match *t {
                Term::Intercept => 1.0,
                Term::Linear(i) => x[i],
                Term::Interaction(i, j) => x[i] * x[j],
                Term::Quadratic(i) => x[i] * x[i],
            };
        }
    }

    /// Builds the design matrix for a sample of raw feature vectors,
    /// expanding each one straight into its row.
    pub fn design_matrix(&self, xs: &[Vec<f64>]) -> Matrix {
        let p = self.terms.len();
        let mut data = vec![0.0; xs.len() * p];
        for (x, row) in xs.iter().zip(data.chunks_exact_mut(p)) {
            self.expand_into(x, row);
        }
        Matrix::from_row_major(xs.len(), p, data)
    }

    /// Evaluates the polynomial with the given coefficient vector at `x`,
    /// accumulating term-by-term without materializing the design row, so
    /// every prediction is heap-allocation-free.
    pub fn eval(&self, coeffs: &[f64], x: &[f64]) -> f64 {
        debug_assert_eq!(coeffs.len(), self.terms.len(), "coefficient arity mismatch");
        debug_assert_eq!(x.len(), self.n_features, "feature arity mismatch");
        let mut acc = 0.0;
        for (t, c) in self.terms.iter().zip(coeffs) {
            acc += c * match *t {
                Term::Intercept => 1.0,
                Term::Linear(i) => x[i],
                Term::Interaction(i, j) => x[i] * x[j],
                Term::Quadratic(i) => x[i] * x[i],
            };
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_counts() {
        assert_eq!(QuadraticDesign::term_count(1), 3); // 1, x, x²
        assert_eq!(QuadraticDesign::term_count(2), 6); // 1, x0, x1, x0x1, x0², x1²
        assert_eq!(QuadraticDesign::term_count(6), 28);
        for n in 1..8 {
            assert_eq!(QuadraticDesign::new(n).n_terms(), QuadraticDesign::term_count(n));
        }
    }

    #[test]
    fn expansion_order_is_documented() {
        let d = QuadraticDesign::new(2);
        let row = d.expand(&[3.0, 5.0]);
        // 1, x0, x1, x0*x1, x0², x1²
        assert_eq!(row, vec![1.0, 3.0, 5.0, 15.0, 9.0, 25.0]);
        assert_eq!(
            d.terms(),
            &[
                Term::Intercept,
                Term::Linear(0),
                Term::Linear(1),
                Term::Interaction(0, 1),
                Term::Quadratic(0),
                Term::Quadratic(1)
            ]
        );
    }

    #[test]
    fn eval_matches_manual_polynomial() {
        let d = QuadraticDesign::new(2);
        // y = 1 + 2·x0 + 3·x1 + 4·x0x1 + 5·x0² + 6·x1²
        let coeffs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = d.eval(&coeffs, &[2.0, 1.0]);
        assert_eq!(y, 1.0 + 4.0 + 3.0 + 8.0 + 20.0 + 6.0);
    }

    #[test]
    fn design_matrix_shape() {
        let d = QuadraticDesign::new(3);
        let xs = vec![vec![1.0, 2.0, 3.0]; 5];
        let m = d.design_matrix(&xs);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), d.n_terms());
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::Intercept.to_string(), "1");
        assert_eq!(Term::Linear(2).to_string(), "x2");
        assert_eq!(Term::Interaction(0, 3).to_string(), "x0*x3");
        assert_eq!(Term::Quadratic(1).to_string(), "x1^2");
    }

    // The arity check is a debug_assert (release builds drop it so the
    // hot path stays panic-free), so the panic contract only holds in
    // debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        QuadraticDesign::new(2).expand(&[1.0]);
    }
}
