//! Matrix factorizations: Cholesky (for SPD normal equations) and
//! Householder QR (for numerically stable least squares).

// Triangular solves and Householder sweeps read more like the textbook
// formulas with explicit indices than with iterator chains.
#![allow(clippy::needless_range_loop)]

use crate::matrix::{Matrix, MatrixError};

/// Lower-triangular Cholesky factor `L` with `A = L·Lᵀ`.
#[derive(Debug)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix. Returns
    /// [`MatrixError::Singular`] if a pivot drops below `1e-12` (matrix not
    /// SPD to working precision).
    pub fn new(a: &Matrix) -> Result<Cholesky, MatrixError> {
        let mut l = Matrix::zeros(a.rows(), a.rows());
        Cholesky::factorize_into(a, &mut l)?;
        Ok(Cholesky { l })
    }

    /// Factorizes `a` into a caller-owned workspace `l` without allocating —
    /// the refit fast path reuses one workspace across every online refit.
    /// Only the lower triangle of `a` is read and only the lower triangle of
    /// `l` is written; anything above the diagonal of `l` is left untouched
    /// (stale workspace contents are never read back).
    ///
    /// The factor is built column by column: the diagonal `l_jj` first,
    /// then every entry below it. Those entries depend only on earlier
    /// columns, so four rows run as independent chains sharing one pass
    /// over row `j`. Each entry still starts from `a_ij` and subtracts
    /// `l_ik·l_jk` in ascending `k`, so the factor is bitwise the
    /// row-by-row one, and the first pivot at or below `1e-12` is the same
    /// diagonal (the entries left in `l` after that error differ, and are
    /// never read).
    pub fn factorize_into(a: &Matrix, l: &mut Matrix) -> Result<(), MatrixError> {
        if a.rows() != a.cols() || l.rows() != a.rows() || l.cols() != a.cols() {
            return Err(MatrixError::DimensionMismatch);
        }
        let n = a.rows();
        let a = a.as_slice();
        for j in 0..n {
            let (row_j, below) = l.as_mut_slice()[j * n..].split_at_mut(n);
            let (lj, diag) = row_j.split_at_mut(j);
            let d = lj.iter().fold(a[j * n + j], |s, x| s - x * x);
            if d <= 1e-12 {
                return Err(MatrixError::Singular);
            }
            let ljj = d.sqrt();
            diag[0] = ljj;
            let lj: &[f64] = lj;
            // Entry `(i, j)` of `a`, for the rows below the diagonal.
            let a_ij = |i: usize| a[i * n + j];
            let mut i = j + 1;
            let mut quads = below.chunks_exact_mut(4 * n);
            for quad in &mut quads {
                let (r0, quad) = quad.split_at_mut(n);
                let (r1, quad) = quad.split_at_mut(n);
                let (r2, r3) = quad.split_at_mut(n);
                let mut s = [a_ij(i), a_ij(i + 1), a_ij(i + 2), a_ij(i + 3)];
                let rows = r0[..j].iter().zip(&r1[..j]).zip(&r2[..j]).zip(&r3[..j]);
                for ((((&x0, &x1), &x2), &x3), &y) in rows.zip(lj) {
                    s[0] -= x0 * y;
                    s[1] -= x1 * y;
                    s[2] -= x2 * y;
                    s[3] -= x3 * y;
                }
                r0[j] = s[0] / ljj;
                r1[j] = s[1] / ljj;
                r2[j] = s[2] / ljj;
                r3[j] = s[3] / ljj;
                i += 4;
            }
            for r in quads.into_remainder().chunks_exact_mut(n) {
                let s = r[..j].iter().zip(lj).fold(a_ij(i), |s, (x, y)| s - x * y);
                r[j] = s / ljj;
                i += 1;
            }
        }
        Ok(())
    }

    /// The row-by-row factorization [`Cholesky::factorize_into`] replaced,
    /// kept as the oracle its column order must match bit for bit.
    #[cfg(test)]
    pub(crate) fn factorize_into_by_rows(a: &Matrix, l: &mut Matrix) -> Result<(), MatrixError> {
        if a.rows() != a.cols() || l.rows() != a.rows() || l.cols() != a.cols() {
            return Err(MatrixError::DimensionMismatch);
        }
        let n = a.rows();
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 1e-12 {
                        return Err(MatrixError::Singular);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` in place on `b` (forward then backward substitution)
    /// given a factor written by [`Cholesky::factorize_into`]. Allocation-free.
    pub fn solve_in_place(l: &Matrix, b: &mut [f64]) -> Result<(), MatrixError> {
        let n = l.rows();
        if b.len() != n || l.cols() != n {
            return Err(MatrixError::DimensionMismatch);
        }
        // Forward: L·y = b, overwriting b with y.
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l[(i, k)] * b[k];
            }
            b[i] = sum / l[(i, i)];
        }
        // Backward: Lᵀ·x = y, overwriting in place.
        for i in (0..n).rev() {
            let mut sum = b[i];
            for k in i + 1..n {
                sum -= l[(k, i)] * b[k];
            }
            b[i] = sum / l[(i, i)];
        }
        Ok(())
    }

    /// Solves `A·x = b` by forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        let mut x = b.to_vec();
        Cholesky::solve_in_place(&self.l, &mut x)?;
        Ok(x)
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }
}

/// Householder QR of a tall matrix `A (m×n, m ≥ n)`, stored compactly and
/// column-major: column `k` of the factor is the contiguous slice
/// `a[k·m .. (k+1)·m]`, holding R's column `k` on and above the diagonal
/// and the Householder vector `v_k` (scaled so its leading entry is 1)
/// below it. The sweep and `Qᵀb` walk these slices as unit-stride zips,
/// with no per-element index checks; the `O(n²)` back-substitution reads
/// R's rows at stride `m`.
#[derive(Debug)]
pub struct Qr {
    m: usize,
    n: usize,
    a: Vec<f64>,     // column-major, transformed in place
    betas: Vec<f64>, // Householder scalars
}

impl Qr {
    /// Factorizes `a` (requires `rows ≥ cols`).
    pub fn new(a: &Matrix) -> Result<Qr, MatrixError> {
        Qr::from_row_major(a.as_slice(), a.rows(), a.cols())
    }

    /// Factorizes the `m×n` matrix whose rows are the consecutive
    /// `n`-element runs of `rows`, transposing into column-major storage on
    /// entry. The model's training fit hands its ring rows over here
    /// directly, without building a [`Matrix`].
    pub(crate) fn from_row_major(rows: &[f64], m: usize, n: usize) -> Result<Qr, MatrixError> {
        if m < n || rows.len() != m * n {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut a = vec![0.0; m * n];
        for (i, row) in rows.chunks_exact(n.max(1)).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                a[j * m + i] = x;
            }
        }
        let mut betas = vec![0.0; n];
        for (k, beta_k) in betas.iter_mut().enumerate() {
            let (done, rest) = a.split_at_mut((k + 1) * m);
            let (upper, v) = done[k * m..].split_at_mut(k + 1);
            let akk = &mut upper[k];
            // Build the Householder vector for column k from row k down.
            let norm = std::iter::once(&*akk).chain(v.iter()).fold(0.0, |s, x| s + x * x).sqrt();
            if norm == 0.0 {
                continue; // beta stays 0: H_k is the identity
            }
            let alpha = if *akk >= 0.0 { -norm } else { norm };
            let v0 = *akk - alpha;
            // v = (v0, a[k+1..m, k]); beta = 2 / (vᵀv). One pass over v
            // carries two chains: vᵀv and column k's own dot v·a[k..m, k],
            // each summed left to right as two separate folds would.
            let (vtv, dot) =
                v.iter().fold((v0 * v0, v0 * *akk), |(t, d), x| (t + x * x, d + x * x));
            if vtv == 0.0 {
                continue;
            }
            let beta = 2.0 / vtv;
            // Apply H = I − β·v·vᵀ to column k (it becomes alpha on the
            // diagonal; below it stays v) ...
            let s = beta * dot;
            *akk -= s * v0;
            // ... and to every column j > k. Columns are independent, so
            // four dot-product chains share one pass over v; each chain
            // still sums its own column left to right.
            let vr: &[f64] = v;
            let mut quads = rest.chunks_exact_mut(4 * m);
            for quad in &mut quads {
                let (c0, quad) = quad.split_at_mut(m);
                let (c1, quad) = quad.split_at_mut(m);
                let (c2, c3) = quad.split_at_mut(m);
                let (mut d0, mut d1, mut d2, mut d3) =
                    (v0 * c0[k], v0 * c1[k], v0 * c2[k], v0 * c3[k]);
                let below =
                    c0[k + 1..].iter().zip(&c1[k + 1..]).zip(&c2[k + 1..]).zip(&c3[k + 1..]);
                for (x, (((y0, y1), y2), y3)) in vr.iter().zip(below) {
                    d0 += x * y0;
                    d1 += x * y1;
                    d2 += x * y2;
                    d3 += x * y3;
                }
                reflect(c0, k, v0, vr, beta * d0);
                reflect(c1, k, v0, vr, beta * d1);
                reflect(c2, k, v0, vr, beta * d2);
                reflect(c3, k, v0, vr, beta * d3);
            }
            for c in quads.into_remainder().chunks_exact_mut(m) {
                let dot = vr.iter().zip(&c[k + 1..]).fold(v0 * c[k], |s, (x, y)| s + x * y);
                reflect(c, k, v0, vr, beta * dot);
            }
            // Normalize v so its leading entry is 1 and fold the scale into
            // beta; the leading 1 stays implicit.
            let inv_v0 = 1.0 / v0;
            for x in v.iter_mut() {
                *x *= inv_v0;
            }
            *beta_k = beta * v0 * v0;
        }
        Ok(Qr { m, n, a, betas })
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` via `Qᵀb` and
    /// back-substitution on R. Returns [`MatrixError::Singular`] if R has a
    /// (near-)zero diagonal entry.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        let (m, n) = (self.m, self.n);
        if b.len() != m {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut qtb = b.to_vec();
        // Apply the Householder reflections in order: H_k x = x − β v (vᵀx),
        // with v = (1, a[k+1..m, k]).
        for (k, &beta) in self.betas.iter().enumerate() {
            if beta == 0.0 {
                continue;
            }
            let v = &self.a[k * m + k + 1..(k + 1) * m];
            let (head, tail) = qtb.split_at_mut(k + 1);
            let s = beta * v.iter().zip(tail.iter()).fold(head[k], |s, (x, q)| s + x * q);
            head[k] -= s;
            for (q, x) in tail.iter_mut().zip(v) {
                *q -= s * x;
            }
        }
        // Back-substitute R x = (Qᵀb)[0..n]; row i of R is every m-th
        // element from a[i].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let d = self.a[i * m + i];
            if d.abs() < 1e-12 {
                return Err(MatrixError::Singular);
            }
            let (xi, later) = x[i..].split_at_mut(1);
            let r_i = self.a[i..].iter().step_by(m).skip(i + 1);
            xi[0] = r_i.zip(later.iter()).fold(qtb[i], |s, (r, xj)| s - r * xj) / d;
        }
        Ok(x)
    }
}

/// Applies the reflection `H = I − β·v·vᵀ` to one column `c` from row `k`
/// down, where the full vector is `(v0, v)` and
/// `s = β·(v0·c[k] + v·c[k+1..])`.
fn reflect(c: &mut [f64], k: usize, v0: f64, v: &[f64], s: f64) {
    c[k] -= s * v0;
    for (y, x) in c[k + 1..].iter_mut().zip(v) {
        *y -= s * x;
    }
}

/// The row-major Householder QR that [`Qr`] replaced, kept as the oracle
/// the column-major kernels must match bit for bit: it walks a row-major
/// [`Matrix`] down its columns through `Index`, in the operation order
/// [`Qr`] preserves.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct RowMajorQr {
    a: Matrix,      // transformed in place
    betas: Vec<f64>, // Householder scalars
}

#[cfg(test)]
impl RowMajorQr {
    pub(crate) fn new(a: &Matrix) -> Result<RowMajorQr, MatrixError> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut w = a.clone();
        let mut betas = vec![0.0; n];
        for k in 0..n {
            // Build the Householder vector for column k from row k down.
            let mut norm2 = 0.0;
            for i in k..m {
                norm2 += w[(i, k)] * w[(i, k)];
            }
            let norm = norm2.sqrt();
            if norm == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if w[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = w[(k, k)] - alpha;
            // v = (v0, w[k+1..m, k]); beta = 2 / (vᵀv)
            let mut vtv = v0 * v0;
            for i in k + 1..m {
                vtv += w[(i, k)] * w[(i, k)];
            }
            if vtv == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let beta = 2.0 / vtv;
            betas[k] = beta;
            // Apply H = I − β·v·vᵀ to the remaining columns.
            for j in k..n {
                let mut dot = v0 * w[(k, j)];
                for i in k + 1..m {
                    dot += w[(i, k)] * w[(i, j)];
                }
                let s = beta * dot;
                if j == k {
                    w[(k, k)] -= s * v0; // becomes alpha
                } else {
                    w[(k, j)] -= s * v0;
                }
                for i in k + 1..m {
                    if j == k {
                        continue; // below-diagonal of col k stores v
                    }
                    w[(i, j)] -= s * w[(i, k)];
                }
            }
            // Normalize v so v0 = 1 and fold the scale into beta.
            let inv_v0 = 1.0 / v0;
            for i in k + 1..m {
                w[(i, k)] *= inv_v0;
            }
            betas[k] = beta * v0 * v0;
        }
        Ok(RowMajorQr { a: w, betas })
    }

    pub(crate) fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatrixError> {
        let (m, n) = (self.a.rows(), self.a.cols());
        if b.len() != m {
            return Err(MatrixError::DimensionMismatch);
        }
        let mut qtb = b.to_vec();
        // Apply the Householder reflections in order: H_k x = x − β v (vᵀx),
        // with v = (1, a[k+1..m, k]).
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut dot = qtb[k];
            for i in k + 1..m {
                dot += self.a[(i, k)] * qtb[i];
            }
            let s = beta * dot;
            qtb[k] -= s;
            for i in k + 1..m {
                qtb[i] -= s * self.a[(i, k)];
            }
        }
        // Back-substitute R x = (Qᵀb)[0..n].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let d = self.a[(i, i)];
            if d.abs() < 1e-12 {
                return Err(MatrixError::Singular);
            }
            let mut sum = qtb[i];
            for j in i + 1..n {
                sum -= self.a[(i, j)] * x[j];
            }
            x[i] = sum / d;
        }
        Ok(x)
    }
}

/// SplitMix64: a tiny seeded stream for the oracle tests' random inputs.
#[cfg(test)]
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn cholesky_known_factor() {
        // A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]]
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((ch.l()[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((ch.l()[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cholesky_solve() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&[10.0, 8.0]).unwrap();
        // A·x = b check
        let b = a.matvec(&x).unwrap();
        approx(&b, &[10.0, 8.0], 1e-10);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // indefinite
        assert_eq!(Cholesky::new(&a).unwrap_err(), MatrixError::Singular);
        let r = Matrix::zeros(2, 3);
        assert_eq!(Cholesky::new(&r).unwrap_err(), MatrixError::DimensionMismatch);
    }

    #[test]
    fn qr_solves_square_system() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve(&[5.0, 10.0]).unwrap();
        approx(&a.matvec(&x).unwrap(), &[5.0, 10.0], 1e-10);
    }

    #[test]
    fn qr_least_squares_overdetermined() {
        // Fit y = 1 + 2t through noisy-free points: exact recovery.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<Vec<f64>> = ts.iter().map(|&t| vec![1.0, t]).collect();
        let a = Matrix::from_rows(&rows);
        let b: Vec<f64> = ts.iter().map(|&t| 1.0 + 2.0 * t).collect();
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve(&b).unwrap();
        approx(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn qr_least_squares_minimizes_residual() {
        // Inconsistent system: solution must match the normal equations.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let b = [0.0, 1.0, 1.0];
        let qr = Qr::new(&a).unwrap();
        let x = qr.solve(&b).unwrap();
        // Normal equations: AᵀA x = Aᵀ b → [[3,3],[3,5]] x = [2, 3]
        approx(&x, &[1.0 / 6.0, 0.5], 1e-10);
    }

    #[test]
    fn qr_rejects_wide_and_singular() {
        assert!(Qr::new(&Matrix::zeros(2, 3)).is_err());
        // Rank-deficient: duplicate columns.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]);
        let qr = Qr::new(&a).unwrap();
        assert_eq!(qr.solve(&[1.0, 2.0, 3.0]).unwrap_err(), MatrixError::Singular);
    }

    /// An `m×n` matrix of mixed entries: mostly reals in `[-4, 4)`, with
    /// exact zeros and small integers mixed in so sign-of-zero and exact
    /// cancellation cases occur. `shape` 2 zeroes one column (the
    /// `beta = 0` branch), `shape` 3 duplicates one column (rank-deficient).
    fn oracle_matrix(m: usize, n: usize, shape: u8, seed: u64) -> Matrix {
        let mut st = seed;
        let mut a = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let r = splitmix(&mut st);
                a[(i, j)] = match r % 8 {
                    0 => 0.0,
                    1 => ((r >> 8) % 7) as f64 - 3.0,
                    _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0,
                };
            }
        }
        let pick = (splitmix(&mut st) % n as u64) as usize;
        match shape {
            2 => (0..m).for_each(|i| a[(i, pick)] = 0.0),
            3 if n > 1 => {
                let src = (pick + 1) % n;
                (0..m).for_each(|i| a[(i, pick)] = a[(i, src)]);
            }
            _ => {}
        }
        a
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// The column-major kernels are bitwise the row-major ones: the
        /// same factor, the same Householder scalars, and bit-equal
        /// solutions or the same `Singular` outcome, over `m ∈ [n, 4n]`,
        /// `n ∈ 1..=30`, square systems, an all-zero column and duplicate
        /// columns.
        #[test]
        fn column_major_qr_matches_row_major_oracle(
            n in 1usize..=30,
            tall in 0usize..=90,
            shape in 0u8..4,
            seed in any::<u64>(),
        ) {
            // shape 1 is square; the rest draw m from [n, 4n].
            let m = if shape == 1 { n } else { n + tall % (3 * n + 1) };
            let a = oracle_matrix(m, n, shape, seed);
            let fast = Qr::new(&a).expect("m >= n");
            let slow = RowMajorQr::new(&a).expect("m >= n");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast.betas), bits(&slow.betas));
            for i in 0..m {
                for j in 0..n {
                    prop_assert_eq!(fast.a[j * m + i].to_bits(), slow.a[(i, j)].to_bits());
                }
            }
            let mut st = seed ^ 0xA5A5;
            let b: Vec<f64> =
                (0..m).map(|_| (splitmix(&mut st) % 2001) as f64 / 100.0 - 10.0).collect();
            let got = fast.solve(&b).map(|x| bits(&x));
            let want = slow.solve(&b).map(|x| bits(&x));
            prop_assert_eq!(got, want);
        }
    }

    /// A symmetric `n×n` input for the Cholesky oracle, built as `BᵀB`
    /// (plus a shift) from a random `(n+3)×n` matrix `B`. `shape` 0 is
    /// well-conditioned SPD (`BᵀB + I`); 1 is singular from an all-zero
    /// column of `B`; 2 is rank-deficient from a duplicated column, so a
    /// pivot is pure rounding of either sign; 3 perturbs that duplicate by
    /// ~1e-7, which puts a pivot near the `1e-12` cutoff; 4 is indefinite
    /// (`BᵀB − c·I`); 5 scales `BᵀB + I` down so the pivots straddle the
    /// cutoff.
    fn cholesky_input(n: usize, shape: u8, seed: u64) -> Matrix {
        let mut st = seed ^ 0x5EED;
        let b = match shape {
            1 => oracle_matrix(n + 3, n, 2, seed),
            2 | 3 => {
                let mut b = oracle_matrix(n + 3, n, 3, seed);
                if shape == 3 {
                    let i = (splitmix(&mut st) % (n as u64 + 3)) as usize;
                    let j = (splitmix(&mut st) % n as u64) as usize;
                    b[(i, j)] += 1e-7 * (1.0 + (splitmix(&mut st) % 100) as f64 / 100.0);
                }
                b
            }
            _ => oracle_matrix(n + 3, n, 0, seed),
        };
        let mut a = b.gram();
        let shift = match shape {
            0 | 5 => 1.0,
            4 => -((splitmix(&mut st) % 40) as f64 + 1.0),
            _ => 0.0,
        };
        let scale = if shape == 5 { 1e-12 * (splitmix(&mut st) % 4 + 1) as f64 } else { 1.0 };
        for i in 0..n {
            a[(i, i)] += shift;
            for j in 0..n {
                a[(i, j)] *= scale;
            }
        }
        a
    }

    #[test]
    fn column_cholesky_matches_row_order_oracle() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut factored, mut singular) = (0, 0);
        let mut pivots = [0; 4]; // failing pivot 0, 1, 2, or later
        for seed in 0..1_500u64 {
            let n = 1 + (seed as usize * 7) % 30;
            let shape = (seed % 6) as u8;
            let a = cholesky_input(n, shape, seed);
            // Stale workspace contents must not matter: both start from
            // the same junk above and below the diagonal.
            let junk = Matrix::from_rows(&vec![vec![f64::NAN; n]; n]);
            let (mut got, mut want) = (junk.clone(), junk);
            let got_res = Cholesky::factorize_into(&a, &mut got);
            let want_res = Cholesky::factorize_into_by_rows(&a, &mut want);
            assert_eq!(got_res, want_res, "seed {seed} n {n} shape {shape}: outcome");
            match got_res {
                Ok(()) => {
                    factored += 1;
                    assert_eq!(bits(&got), bits(&want), "seed {seed} n {n} shape {shape}: factor");
                    let mut x: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
                    let mut y = x.clone();
                    Cholesky::solve_in_place(&got, &mut x).expect("square factor");
                    Cholesky::solve_in_place(&want, &mut y).expect("square factor");
                    assert_eq!(
                        x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "seed {seed}: solution"
                    );
                }
                Err(_) => {
                    // Both orders write each diagonal only once it passes,
                    // so the first junk diagonal is the failing pivot.
                    singular += 1;
                    let failed = |l: &Matrix| (0..n).find(|&d| l[(d, d)].is_nan());
                    let d = failed(&want).expect("row order stops at a pivot");
                    assert_eq!(failed(&got), Some(d), "seed {seed} n {n} shape {shape}: pivot");
                    pivots[d.min(3)] += 1;
                    // Entries both orders finished before the failure: rows
                    // above the pivot and the pivot row left of it.
                    for i in 0..=d {
                        for j in 0..(i + 1).min(d) {
                            assert_eq!(got[(i, j)].to_bits(), want[(i, j)].to_bits(), "seed {seed}");
                        }
                    }
                }
            }
        }
        assert!(factored >= 500 && singular >= 500, "{factored} factored, {singular} singular");
        assert!(pivots.iter().all(|&c| c >= 10), "failing pivots by index: {pivots:?}");
        let wide = Matrix::zeros(2, 3);
        let mut l = Matrix::zeros(2, 3);
        assert_eq!(
            Cholesky::factorize_into(&wide, &mut l),
            Cholesky::factorize_into_by_rows(&wide, &mut l)
        );
    }

    #[test]
    fn qr_random_roundtrip_against_cholesky() {
        // For a well-conditioned system both solvers agree.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.5, 0.2],
            vec![0.3, 2.0, 0.1],
            vec![0.7, 0.4, 3.0],
            vec![1.1, 0.9, 0.8],
        ]);
        let b = [1.0, 2.0, 3.0, 4.0];
        let qr_x = Qr::new(&a).unwrap().solve(&b).unwrap();
        let ch = Cholesky::new(&a.gram()).unwrap();
        let ne_x = ch.solve(&a.t_vec(&b).unwrap()).unwrap();
        approx(&qr_x, &ne_x, 1e-8);
    }
}
