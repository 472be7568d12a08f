//! The trained response-surface model used by schedulers.
//!
//! A [`QrsModel`] starts from an initial fit on a training corpus ("an
//! initial best estimate model based on a standard set of production data",
//! Sec. III-A-1) and is then tuned online: every observed `(features, actual
//! time)` pair enters a sliding window, and the model refits periodically.
//!
//! # The incremental fast path
//!
//! Online tuning is sliding-window **recursive least squares** over the
//! normal equations. The window stores each *expanded design row* exactly
//! once, in a flat ring buffer, and the model maintains
//!
//! ```text
//! G = XᵀX   (lower triangle),   b = Xᵀy,   s = Σ y²
//! ```
//!
//! incrementally: an incoming observation is a rank-1 **up-date** of
//! `(G, b, s)`, an observation falling out of the window is a rank-1
//! **down-date** — both `O(terms²)`. A refit then solves the small
//! `terms×terms` system `G·β = b` by Cholesky into pre-allocated workspace
//! (`O(terms³)`), instead of re-expanding the whole window and re-running a
//! Householder QR (`O(window × terms²)` plus per-refit allocations). That
//! makes refitting *every* observation affordable, which is what keeps the
//! estimate error — and hence the SLA penalty — low under drift.
//!
//! Steady-state costs:
//!
//! * [`QrsModel::observe`] (non-refit step): zero heap allocations.
//! * [`QrsModel::predict`]: zero heap allocations (term-wise evaluation,
//!   no design row is materialized).
//! * [`QrsModel::refit`]: `O(terms³ + window × terms)` for OLS/ridge, no
//!   allocations (the Cholesky workspace and solve buffer are owned by the
//!   model); LAD falls back to IRLS over the stored rows (allocates per
//!   iteration, still never re-expands the window).
//!
//! Once the window is full, each observation *slides* it: one fused pass
//! over the lower triangle down-dates the evicted row and up-dates the new
//! one, `g = (g − oᵢ·oⱼ) + nᵢ·nⱼ` per element. That is the same two
//! additions in the same order as a down-date pass followed by an up-date
//! pass, so the maintained moments are bitwise those of the two-pass
//! slide.
//!
//! Floating-point drift from long up/down-date chains is bounded by a full
//! normal-equation rebuild from the stored rows every
//! [`REBUILD_DOWNDATES`] evictions (amortized `O(terms²)` per observe).

use crate::decomp::Cholesky;
use crate::design::QuadraticDesign;
use crate::fit::{fit_rows, lad_irls_rows, FitError, Method};
use crate::matrix::Matrix;

/// Down-dates between full normal-equation rebuilds. Each up/down-date pair
/// loses at most a few ulps, so thousands of them keep the maintained
/// `XᵀX` within ~1e-12 relative of exact; rebuilding this rarely makes the
/// amortized cost negligible.
pub const REBUILD_DOWNDATES: usize = 8_192;

/// A fitted quadratic response-surface model `features → processing seconds`.
#[derive(Clone, Debug)]
pub struct QrsModel {
    design: QuadraticDesign,
    coeffs: Vec<f64>,
    method: Method,
    /// Root-mean-square training residual (seconds). The MAPE is not
    /// stored: no decision reads it, so [`QrsModel::mape`] computes it on
    /// demand.
    rmse: f64,
    /// Sliding-window design rows: a flat ring of `window_capacity` rows ×
    /// `n_terms` columns. Each row is expanded exactly once, on entry.
    rows: Vec<f64>,
    /// Responses, ring-ordered alongside `rows`.
    ys: Vec<f64>,
    /// Ring index of the oldest live row.
    head: usize,
    /// Live rows in the window.
    len: usize,
    window_capacity: usize,
    /// `XᵀX` over the window; only the lower triangle is maintained (the
    /// Cholesky factorization reads nothing above the diagonal).
    gram: Matrix,
    /// `Xᵀy` over the window.
    xty: Vec<f64>,
    /// `Σ y²` over the window (kept alongside the other moments; cheap and
    /// useful for fast SSE identities).
    yty: f64,
    /// Evictions since the last full rebuild (drift control).
    downdates: usize,
    /// Observations accumulated since the last refit.
    since_refit: usize,
    /// Refit after this many new observations (0 disables auto-refit).
    refit_every: usize,
    /// Cholesky workspace (lower factor), reused across refits.
    chol: Matrix,
    /// Ridge/LAD workspace for the modified normal matrix.
    work: Matrix,
    /// Right-hand-side / solution buffer, reused across refits.
    solve_buf: Vec<f64>,
    /// The incoming design row of a window slide: the evicted row still
    /// occupies its ring slot while the fused pass reads both.
    incoming: Vec<f64>,
}

impl QrsModel {
    /// Fits a model on raw feature vectors `xs` and responses `ys`. Every
    /// row must have the arity of `xs[0]` and `ys` one response per row,
    /// else [`FitError::DimensionMismatch`].
    ///
    /// Each row is expanded once, straight into its window ring slot. The
    /// coefficient fit reads those ring rows, and `(XᵀX, Xᵀy, Σy²)` is
    /// built from them in the order [`QrsModel::observe`] would push them;
    /// the window holds the whole corpus, so nothing is evicted.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], method: Method) -> Result<QrsModel, FitError> {
        let Some(first) = xs.first() else {
            return Err(FitError::TooFewObservations);
        };
        if xs.iter().any(|x| x.len() != first.len()) || ys.len() != xs.len() {
            return Err(FitError::DimensionMismatch);
        }
        let design = QuadraticDesign::new(first.len());
        let (n, p) = (xs.len(), design.n_terms());
        if n < p {
            return Err(FitError::TooFewObservations);
        }
        let mut m = QrsModel::empty(design, method, n.max(64));
        for (x, row) in xs.iter().zip(m.rows.chunks_exact_mut(p)) {
            m.design.expand_into(x, row);
        }
        m.coeffs = fit_rows(&m.rows[..n * p], p, ys, method)?;
        m.ys[..n].copy_from_slice(ys);
        m.len = n;
        for (row, &y) in m.rows.chunks_exact(p).zip(ys) {
            rank1(m.gram.as_mut_slice(), &mut m.xty, &mut m.yty, row, y);
        }
        m.rmse = m.window_rmse();
        Ok(m)
    }

    /// A model with an empty window of `window_capacity` rows and zero
    /// coefficients, every buffer allocated once at its final size.
    fn empty(design: QuadraticDesign, method: Method, window_capacity: usize) -> QrsModel {
        let p = design.n_terms();
        QrsModel {
            design,
            coeffs: vec![0.0; p],
            method,
            rmse: 0.0,
            rows: vec![0.0; window_capacity * p],
            ys: vec![0.0; window_capacity],
            head: 0,
            len: 0,
            window_capacity,
            gram: Matrix::zeros(p, p),
            xty: vec![0.0; p],
            yty: 0.0,
            downdates: 0,
            since_refit: 0,
            refit_every: 50,
            chol: Matrix::zeros(p, p),
            work: Matrix::zeros(p, p),
            solve_buf: vec![0.0; p],
            incoming: vec![0.0; p],
        }
    }

    /// Sets the sliding-window capacity for online tuning (default: the
    /// initial training-set size). Keeps the newest rows when shrinking.
    pub fn with_window_capacity(mut self, cap: usize) -> QrsModel {
        let p = self.design.n_terms();
        let cap = cap.max(p + 1);
        let keep = self.len.min(cap);
        let mut rows = vec![0.0; cap * p];
        let mut ys = vec![0.0; cap];
        for k in 0..keep {
            let src = (self.head + self.len - keep + k) % self.window_capacity;
            rows[k * p..(k + 1) * p].copy_from_slice(&self.rows[src * p..(src + 1) * p]);
            ys[k] = self.ys[src];
        }
        self.rows = rows;
        self.ys = ys;
        self.head = 0;
        self.len = keep;
        self.window_capacity = cap;
        self.rebuild_normals();
        self
    }

    /// Sets how many observations trigger an automatic refit in
    /// [`QrsModel::observe`] (0 disables).
    pub fn with_refit_every(mut self, every: usize) -> QrsModel {
        self.refit_every = every;
        self
    }

    /// Predicted processing time (seconds) for a raw feature vector. Floored
    /// at 0.1 s — a response surface extrapolating negative time is treated
    /// as "effectively instant". Heap-allocation-free.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.design.eval(&self.coeffs, x).max(0.1)
    }

    /// Conservative prediction: point estimate plus `k` training-RMSEs.
    /// `k ≈ 1` gives roughly 84 % coverage under normal residuals.
    /// Heap-allocation-free.
    pub fn predict_upper(&self, x: &[f64], k: f64) -> f64 {
        self.predict(x) + k * self.rmse
    }

    /// Records an observed `(features, actual seconds)` pair in the sliding
    /// window and refits if the refit interval elapsed. Returns `true` if a
    /// refit happened (a failed refit keeps the old coefficients and also
    /// returns `false`). The non-refit step performs no heap allocation:
    /// the design row is expanded straight into its ring slot and the
    /// normal equations are rank-1 up/down-dated in place.
    pub fn observe(&mut self, x: &[f64], y: f64) -> bool {
        self.push_observation(x, y);
        self.since_refit += 1;
        if self.refit_every > 0 && self.since_refit >= self.refit_every {
            self.since_refit = 0;
            return self.refit().is_ok();
        }
        false
    }

    /// Records an observation without refitting: the rank-1 window update
    /// (`O(terms²)`, allocation-free) happens now, the `O(terms³ +
    /// window × terms)` coefficient refit is deferred to the next
    /// [`QrsModel::flush_refit`]. Because [`QrsModel::refit`] is a pure
    /// function of the maintained `(XᵀX, Xᵀy, window)` state — the current
    /// coefficients never feed back into it — queueing any number of
    /// observations and flushing once yields bitwise the same coefficients,
    /// RMSE and MAPE as calling [`QrsModel::observe`] with
    /// `refit_every(1)` for each, *as read at the flush point*. This is
    /// the epoch-barrier discipline: updates accumulate during an epoch,
    /// the refit runs once at the barrier where predictions are next read.
    pub fn observe_queued(&mut self, x: &[f64], y: f64) {
        self.push_observation(x, y);
        self.since_refit += 1;
    }

    /// Refits if any observations were queued since the last refit (and
    /// auto-refit is enabled), making the coefficients current with the
    /// window. Returns `true` if a refit ran and succeeded; `false` when
    /// nothing was pending or the refit failed (old coefficients kept, as
    /// in [`QrsModel::observe`]). Idempotent between observations.
    pub fn flush_refit(&mut self) -> bool {
        if self.refit_every == 0 || self.since_refit == 0 {
            return false;
        }
        self.since_refit = 0;
        self.refit().is_ok()
    }

    /// Re-solves the coefficients from the incrementally maintained normal
    /// equations, keeping old coefficients on failure. `O(terms³)` plus a
    /// single `O(window × terms)` residual pass that folds only the SSE
    /// (the RMSE feeds `predict_upper`; the MAPE is left to
    /// [`QrsModel::mape`]) — the window is never re-expanded or cloned.
    pub fn refit(&mut self) -> Result<(), FitError> {
        let p = self.design.n_terms();
        if self.len < p {
            return Err(FitError::TooFewObservations);
        }
        match self.method {
            Method::Ols => {
                Cholesky::factorize_into(&self.gram, &mut self.chol)
                    .map_err(FitError::from)?;
                self.solve_buf.copy_from_slice(&self.xty);
                Cholesky::solve_in_place(&self.chol, &mut self.solve_buf)
                    .map_err(FitError::from)?;
                self.coeffs.copy_from_slice(&self.solve_buf);
            }
            Method::Ridge(lambda) => {
                debug_assert!(lambda >= 0.0, "ridge penalty must be non-negative");
                self.load_penalized_work(lambda);
                Cholesky::factorize_into(&self.work, &mut self.chol)
                    .map_err(FitError::from)?;
                self.solve_buf.copy_from_slice(&self.xty);
                Cholesky::solve_in_place(&self.chol, &mut self.solve_buf)
                    .map_err(FitError::from)?;
                self.coeffs.copy_from_slice(&self.solve_buf);
            }
            Method::Lad => {
                // IRLS over the ring-stored rows (Schlossmacher), started
                // from the normal-equation OLS solution (mild ridge if the
                // window is degenerate) — mirrors the batch fit's QR start.
                let start = match self.normal_solve(0.0) {
                    Ok(b) => b,
                    Err(_) => self.normal_solve(1e-6)?,
                };
                let p = self.design.n_terms();
                let coeffs = lad_irls_rows(self.window_iter(), p, start, 40, 1e-8)?;
                self.coeffs = coeffs;
            }
        }
        self.rmse = self.window_rmse();
        Ok(())
    }

    /// The fitted coefficient vector (ordered per [`QuadraticDesign::terms`]).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// The basis in use.
    pub fn design(&self) -> &QuadraticDesign {
        &self.design
    }

    /// Training RMSE in seconds.
    pub fn rmse(&self) -> f64 {
        self.rmse
    }

    /// Mean absolute percentage error of the current coefficients over the
    /// tuning window, in `[0, ∞)`, computed on demand (`O(window × terms)`).
    /// Read right after a fit or refit, it is the training MAPE.
    pub fn mape(&self) -> f64 {
        self.window_mape()
    }

    /// Number of observations currently in the tuning window.
    pub fn window_len(&self) -> usize {
        self.len
    }

    /// The maintained normal equations `(XᵀX, Xᵀy, Σy²)` over the window.
    /// Only the lower triangle of `XᵀX` is kept; entries above the
    /// diagonal read zero.
    pub fn normal_equations(&self) -> (&Matrix, &[f64], f64) {
        (&self.gram, &self.xty, self.yty)
    }

    /// Inserts one observation into the ring. When the window is full the
    /// oldest row is evicted by one fused [`slide`] pass and its slot takes
    /// the new row. No heap allocation.
    fn push_observation(&mut self, x: &[f64], y: f64) {
        let p = self.design.n_terms();
        if self.len == self.window_capacity {
            let h = self.head;
            let Self { design, rows, ys, gram, xty, yty, incoming, .. } = self;
            design.expand_into(x, incoming);
            let old = &mut rows[h * p..(h + 1) * p];
            slide(gram.as_mut_slice(), xty, yty, old, ys[h], incoming, y);
            old.copy_from_slice(incoming);
            ys[h] = y;
            self.head = (h + 1) % self.window_capacity;
            self.downdates += 1;
        } else {
            let slot = (self.head + self.len) % self.window_capacity;
            self.len += 1;
            let Self { design, rows, ys, gram, xty, yty, .. } = self;
            let row = &mut rows[slot * p..(slot + 1) * p];
            design.expand_into(x, row);
            ys[slot] = y;
            rank1(gram.as_mut_slice(), xty, yty, row, y);
        }
        if self.downdates >= REBUILD_DOWNDATES {
            self.rebuild_normals();
        }
    }

    /// Recomputes `XᵀX`, `Xᵀy` and `Σy²` exactly from the stored rows.
    fn rebuild_normals(&mut self) {
        let p = self.design.n_terms();
        let Self { rows, ys, gram, xty, yty, head, len, window_capacity, .. } = self;
        for i in 0..p {
            for j in 0..=i {
                gram[(i, j)] = 0.0;
            }
        }
        xty.fill(0.0);
        *yty = 0.0;
        for k in 0..*len {
            let i = (*head + k) % *window_capacity;
            rank1(gram.as_mut_slice(), xty, yty, &rows[i * p..(i + 1) * p], ys[i]);
        }
        self.downdates = 0;
    }

    /// Copies the gram lower triangle into `work` with the ridge penalty
    /// added to every non-intercept diagonal entry.
    fn load_penalized_work(&mut self, lambda: f64) {
        let p = self.design.n_terms();
        for i in 0..p {
            for j in 0..=i {
                self.work[(i, j)] = self.gram[(i, j)];
            }
        }
        for i in 1..p {
            self.work[(i, i)] += lambda;
        }
    }

    /// Solves `(XᵀX + λD)·β = Xᵀy` into a fresh vector (LAD start point).
    fn normal_solve(&mut self, lambda: f64) -> Result<Vec<f64>, FitError> {
        self.load_penalized_work(lambda);
        Cholesky::factorize_into(&self.work, &mut self.chol).map_err(FitError::from)?;
        let mut beta = self.xty.clone();
        Cholesky::solve_in_place(&self.chol, &mut beta).map_err(FitError::from)?;
        Ok(beta)
    }

    /// Oldest-first `(design row, response)` view of the window.
    fn window_iter(&self) -> impl Iterator<Item = (&[f64], f64)> + Clone + '_ {
        let p = self.design.n_terms();
        (0..self.len).map(move |k| {
            let i = (self.head + k) % self.window_capacity;
            (&self.rows[i * p..(i + 1) * p], self.ys[i])
        })
    }

    /// Calls `fold(prediction, y)` for every window row in order, under
    /// the current coefficients, streamed over the stored rows — one dot
    /// product per row, no re-expansion, no allocation.
    ///
    /// The window is at most two contiguous runs of the ring (oldest slot
    /// to the end, then the wrapped start). Within a run, four rows are
    /// dotted at once: four independent add chains instead of one, each
    /// row's own sum still left to right from `.sum()`'s neutral `-0.0`.
    /// The fold then takes the four predictions in row order, so every
    /// statistic folded from them is bitwise the one-row-at-a-time loop's.
    #[inline]
    fn for_each_prediction(&self, mut fold: impl FnMut(f64, f64)) {
        let p = self.design.n_terms();
        let end = self.head + self.len;
        let cap = self.window_capacity;
        let runs = [self.head..end.min(cap), 0..end.saturating_sub(cap)];
        for run in runs {
            let rows = &self.rows[run.start * p..run.end * p];
            let ys = &self.ys[run];
            let mut quads = rows.chunks_exact(4 * p);
            let mut y4s = ys.chunks_exact(4);
            for (quad, y4) in (&mut quads).zip(&mut y4s) {
                let preds = dot4(quad, &self.coeffs);
                for (&pred, &y) in preds.iter().zip(y4) {
                    fold(pred, y);
                }
            }
            for (row, &y) in quads.remainder().chunks_exact(p).zip(y4s.remainder()) {
                fold(row.iter().zip(&self.coeffs).map(|(b, c)| b * c).sum(), y);
            }
        }
    }

    /// RMSE over the window for the current coefficients.
    fn window_rmse(&self) -> f64 {
        let mut sse = 0.0;
        self.for_each_prediction(|pred, y| sse += (pred - y) * (pred - y));
        (sse / self.len as f64).sqrt()
    }

    /// MAPE over the window for the current coefficients; responses within
    /// `1e-9` of zero add nothing (but still count in the mean).
    fn window_mape(&self) -> f64 {
        let mut ape = 0.0;
        self.for_each_prediction(|pred, y| {
            if y.abs() > 1e-9 {
                ape += ((pred - y) / y).abs();
            }
        });
        ape / self.len as f64
    }
}

#[cfg(any(test, debug_assertions))]
impl QrsModel {
    /// Whether `other` holds bitwise the same state: basis, method, every
    /// counter, and every float by bit pattern — coefficients, rmse, the
    /// window ring and its responses, `(XᵀX, Xᵀy, Σy²)` and the refit
    /// workspace. The check behind "a reused model is the model a fresh
    /// fit builds"; test and debug builds only.
    pub fn same_bits(&self, other: &QrsModel) -> bool {
        let method_bits = |m: Method| match m {
            Method::Ols => (0, 0),
            Method::Ridge(l) => (1, l.to_bits()),
            Method::Lad => (2, 0),
        };
        self.design == other.design
            && method_bits(self.method) == method_bits(other.method)
            && (self.head, self.len, self.window_capacity)
                == (other.head, other.len, other.window_capacity)
            && (self.downdates, self.since_refit, self.refit_every)
                == (other.downdates, other.since_refit, other.refit_every)
            && self.rmse.to_bits() == other.rmse.to_bits()
            && self.yty.to_bits() == other.yty.to_bits()
            && bits_eq(&self.coeffs, &other.coeffs)
            && bits_eq(&self.rows, &other.rows)
            && bits_eq(&self.ys, &other.ys)
            && bits_eq(self.gram.as_slice(), other.gram.as_slice())
            && bits_eq(&self.xty, &other.xty)
            && bits_eq(self.chol.as_slice(), other.chol.as_slice())
            && bits_eq(self.work.as_slice(), other.work.as_slice())
            && bits_eq(&self.solve_buf, &other.solve_buf)
            && bits_eq(&self.incoming, &other.incoming)
    }
}

/// Equal lengths and equal bit patterns, element by element (`-0.0` and
/// `0.0` differ; NaNs compare by payload).
#[cfg(any(test, debug_assertions))]
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Dot products of four consecutive `coeffs.len()`-long rows with
/// `coeffs`, as four interleaved chains. Each chain adds its row's terms
/// left to right from `-0.0`, the neutral element `f64`'s `Sum` starts
/// from, so each result is bitwise that row's `.sum()`.
fn dot4(quad: &[f64], coeffs: &[f64]) -> [f64; 4] {
    let p = coeffs.len();
    let (r0, rest) = quad.split_at(p);
    let (r1, rest) = rest.split_at(p);
    let (r2, r3) = rest.split_at(p);
    let mut s = [-0.0f64; 4];
    for ((((&a, &b), &c), &d), &k) in r0.iter().zip(r1).zip(r2).zip(r3).zip(coeffs) {
        s[0] += a * k;
        s[1] += b * k;
        s[2] += c * k;
        s[3] += d * k;
    }
    s
}

/// Rank-1 up-date of the normal equations with one `(row, y)` pair.
/// `gram` is the row-major `p×p` Gram matrix; only its lower triangle is
/// touched: Gram row `i` gains `rowᵢ·row[..=i]`.
///
/// There is no skip for `rowᵢ = ±0`: the moments start at `+0.0`, and a
/// round-to-nearest sum is `-0.0` only when both addends are, so they
/// never hold `-0.0`, and adding the `±0` products of a finite row leaves
/// every bit as the skip would.
fn rank1(gram: &mut [f64], xty: &mut [f64], yty: &mut f64, row: &[f64], y: f64) {
    debug_assert_finite(row, y);
    let p = row.len();
    for (i, ((&ri, g), b)) in row.iter().zip(gram.chunks_exact_mut(p)).zip(xty).enumerate() {
        *b += ri * y;
        for (gij, &rj) in g[..=i].iter_mut().zip(&row[..=i]) {
            *gij += ri * rj;
        }
    }
    *yty += y * y;
}

/// One window slide: the down-date of the evicted `(old, y_old)` and the
/// up-date of the incoming `(new, y_new)`, fused into one pass over the
/// lower triangle. Each element takes the down-date's addend and then the
/// up-date's, exactly the additions (and rounding) of the two separate
/// passes, so the result is bitwise theirs (see [`rank1`] on zero rows).
fn slide(
    gram: &mut [f64],
    xty: &mut [f64],
    yty: &mut f64,
    old: &[f64],
    y_old: f64,
    new: &[f64],
    y_new: f64,
) {
    debug_assert_finite(new, y_new);
    let p = new.len();
    let lanes = old.iter().zip(new).zip(gram.chunks_exact_mut(p)).zip(xty);
    for (i, (((&oi, &ni), g), b)) in lanes.enumerate() {
        let ao = -oi;
        *b = (*b + ao * y_old) + ni * y_new;
        for ((gij, &oj), &nj) in g[..=i].iter_mut().zip(&old[..=i]).zip(&new[..=i]) {
            *gij = (*gij + ao * oj) + ni * nj;
        }
    }
    *yty = (*yty + -y_old * y_old) + y_new * y_new;
}

/// Every row entering the normal equations must be finite: the kernels add
/// `0·x` products without a zero skip, and `0·∞` is NaN.
fn debug_assert_finite(row: &[f64], y: f64) {
    debug_assert!(
        y.is_finite() && row.iter().all(|v| v.is_finite()),
        "non-finite observation pushed into the QRSM window"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{splitmix, RowMajorQr};

    fn truth(x: &[f64]) -> f64 {
        10.0 + 3.0 * x[0] + 0.5 * x[1] + 0.2 * x[0] * x[1] + 0.05 * x[0] * x[0]
    }

    fn dataset(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> =
            (0..n).map(|i| vec![(i % 17) as f64, ((i * 3) % 11) as f64]).collect();
        let ys = xs.iter().map(|x| truth(x)).collect();
        (xs, ys)
    }

    #[test]
    fn same_bits_sees_every_state_change() {
        let (xs, ys) = dataset(60);
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        assert!(m.same_bits(&m.clone()));
        assert!(m.same_bits(&QrsModel::fit(&xs, &ys, Method::Ols).expect("same corpus")));
        let mut observed = m.clone();
        observed.observe(&[1.0, 2.0], truth(&[1.0, 2.0]));
        assert!(!m.same_bits(&observed), "an observation changes the window");
        assert!(!m.same_bits(&m.clone().with_refit_every(1)), "counters are compared");
        let ridge = |l: f64| QrsModel::fit(&xs, &ys, Method::Ridge(l)).expect("ridge fit");
        assert!(!ridge(0.0).same_bits(&ridge(-0.0)), "the method compares by bits");
        assert!(!bits_eq(&[0.0], &[-0.0]) && bits_eq(&[f64::NAN], &[f64::NAN]));
    }

    #[test]
    fn fit_and_predict_exactly_on_clean_data() {
        let (xs, ys) = dataset(100);
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        for x in [[4.0, 7.0], [16.0, 10.0], [0.0, 0.0]] {
            assert!((m.predict(&x) - truth(&x)).abs() < 1e-6);
        }
        assert!(m.rmse() < 1e-6);
        assert!(m.mape() < 1e-6);
    }

    #[test]
    fn prediction_is_floored() {
        // A surface fitted to descend below zero still predicts ≥ 0.1 s.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 - 20.0 * x[0]).collect();
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        assert_eq!(m.predict(&[1000.0]), 0.1);
    }

    #[test]
    fn predict_upper_adds_margin() {
        let (xs, mut ys) = dataset(100);
        for (i, y) in ys.iter_mut().enumerate() {
            *y += if i % 2 == 0 { 5.0 } else { -5.0 };
        }
        let m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus");
        assert!(m.rmse() > 1.0);
        let x = [4.0, 7.0];
        assert!(m.predict_upper(&x, 1.0) > m.predict(&x));
        assert!((m.predict_upper(&x, 2.0) - m.predict(&x) - 2.0 * m.rmse()).abs() < 1e-9);
    }

    #[test]
    fn online_tuning_adapts_to_drift() {
        // Train on one regime, then observe a 2× slower regime; after enough
        // observations + refit the prediction follows the new regime.
        let (xs, ys) = dataset(80);
        let mut m = QrsModel::fit(&xs, &ys, Method::Ols)
            .expect("full-rank training corpus")
            .with_window_capacity(80)
            .with_refit_every(20);
        let probe = [4.0, 7.0];
        let before = m.predict(&probe);
        let mut refits = 0;
        for i in 0..100 {
            let x = vec![(i % 17) as f64, ((i * 5) % 11) as f64];
            let y = 2.0 * truth(&x);
            if m.observe(&x, y) {
                refits += 1;
            }
        }
        let after = m.predict(&probe);
        assert!(refits >= 4, "expected periodic refits, got {refits}");
        assert!(
            (after - 2.0 * truth(&probe)).abs() < 0.2 * truth(&probe),
            "before={before} after={after} target={}",
            2.0 * truth(&probe)
        );
    }

    #[test]
    fn refit_fails_gracefully_with_tiny_window() {
        let (xs, ys) = dataset(100);
        let mut m = QrsModel::fit(&xs, &ys, Method::Ols).expect("full-rank training corpus").with_window_capacity(1);
        // Window shrank below n_terms; refit reports the problem but keeps
        // the model usable.
        assert_eq!(m.window_len(), 7); // capacity floored at n_terms + 1
        let before = m.coeffs().to_vec();
        m.observe(&[1.0, 1.0], 1.0);
        assert_eq!(m.coeffs().len(), before.len());
        assert!(m.predict(&[4.0, 7.0]) > 0.0);
    }

    #[test]
    fn queued_flush_is_bitwise_identical_to_eager_refit() {
        // The deferred path (observe_queued × n, then one flush_refit) must
        // land on exactly the same coefficients/RMSE/MAPE bytes as the
        // eager path (observe with refit_every(1)) at every flush point —
        // including across ring wrap-around and drift rebuilds.
        let (xs, ys) = dataset(60);
        let fresh = || {
            QrsModel::fit(&xs, &ys, Method::Ols)
                .expect("full-rank training corpus")
                .with_window_capacity(40)
                .with_refit_every(1)
        };
        let mut eager = fresh();
        let mut deferred = fresh();
        for round in 0..30 {
            // Variable-length bursts between flushes, like batches of
            // completions between decision points.
            for i in 0..(1 + round % 7) {
                let x = vec![((round * 5 + i) % 13) as f64, ((round * 7 + i) % 9) as f64];
                let y = truth(&x) + ((round + i) % 3) as f64;
                eager.observe(&x, y);
                deferred.observe_queued(&x, y);
            }
            assert!(deferred.flush_refit(), "refit must succeed on well-posed data");
            assert!(!deferred.flush_refit(), "second flush must be a no-op");
            for (a, b) in deferred.coeffs().iter().zip(eager.coeffs()) {
                assert_eq!(a.to_bits(), b.to_bits(), "coeff bytes diverged at round {round}");
            }
            assert_eq!(deferred.rmse().to_bits(), eager.rmse().to_bits());
            assert_eq!(deferred.mape().to_bits(), eager.mape().to_bits());
        }
    }

    /// The rank-1 up-date as it was before it ran over row slices: element
    /// by element through `Matrix` indexing.
    fn rank1_indexed(gram: &mut Matrix, xty: &mut [f64], yty: &mut f64, row: &[f64], y: f64) {
        for i in 0..row.len() {
            let ai = row[i];
            if ai == 0.0 {
                continue;
            }
            xty[i] += ai * y;
            for j in 0..=i {
                gram[(i, j)] += ai * row[j];
            }
        }
        *yty += y * y;
    }

    /// The OLS training fit as it ran before each row was expanded once:
    /// `Vec<Vec>` rows and a row-major design matrix → row-major QR →
    /// per-row ring pushes with the indexed rank-1 up-date.
    fn oracle_fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<QrsModel, FitError> {
        let design = QuadraticDesign::new(xs[0].len());
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| design.expand(x)).collect();
        let coeffs = RowMajorQr::new(&Matrix::from_rows(&rows))?.solve(ys)?;
        let mut m = QrsModel::empty(design, Method::Ols, xs.len().max(64));
        let p = m.design.n_terms();
        for (k, (row, &y)) in rows.iter().zip(ys).enumerate() {
            m.rows[k * p..(k + 1) * p].copy_from_slice(row);
            m.ys[k] = y;
            m.len += 1;
            rank1_indexed(&mut m.gram, &mut m.xty, &mut m.yty, row, y);
        }
        m.coeffs = coeffs;
        m.rmse = m.window_residual_stats().0;
        Ok(m)
    }

    /// A 6-regressor corpus (28 quadratic terms) of `n` rows. About one
    /// feature in six is an exact zero (a third of those `-0.0`), so the
    /// rank-1 update's zero skip runs on every row.
    fn zero_laced_corpus(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut st = seed;
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..6)
                    .map(|_| {
                        let r = splitmix(&mut st);
                        match r % 18 {
                            0 | 1 => 0.0,
                            2 => -0.0,
                            _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 2.0,
                        }
                    })
                    .collect()
            })
            .collect();
        let ys = xs
            .iter()
            .map(|x| {
                let noise = (splitmix(&mut st) % 1000) as f64 / 500.0 - 1.0;
                5.0 + 2.0 * x[0] - x[3] + 0.3 * x[1] * x[4] + 0.1 * x[5] * x[5] + noise
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn fit_matches_design_matrix_qr_push_oracle() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut fitted = 0;
        for seed in 0..240u64 {
            // 28..=127 rows: a third of the corpora sit below the 64-row
            // window floor, so their ring keeps unused zero slots.
            let n = 28 + (seed as usize * 37) % 100;
            let (xs, ys) = zero_laced_corpus(seed, n);
            let (got, want) = match (QrsModel::fit(&xs, &ys, Method::Ols), oracle_fit(&xs, &ys)) {
                (Ok(g), Ok(w)) => (g, w),
                (g, w) => {
                    assert_eq!(g.map(|_| ()), w.map(|_| ()), "seed {seed}: outcomes differ");
                    continue;
                }
            };
            fitted += 1;
            assert_eq!(bits(&got.coeffs), bits(&want.coeffs), "seed {seed}: coefficients");
            assert_eq!(got.rmse.to_bits(), want.rmse.to_bits(), "seed {seed}: rmse");
            assert_eq!(got.mape().to_bits(), want.mape().to_bits(), "seed {seed}: mape");
            assert_eq!(bits(got.gram.as_slice()), bits(want.gram.as_slice()), "seed {seed}: XᵀX");
            assert_eq!(bits(&got.xty), bits(&want.xty), "seed {seed}: Xᵀy");
            assert_eq!(got.yty.to_bits(), want.yty.to_bits(), "seed {seed}: Σy²");
            assert_eq!(bits(&got.rows), bits(&want.rows), "seed {seed}: ring rows");
            assert_eq!(bits(&got.ys), bits(&want.ys), "seed {seed}: ring responses");
            assert_eq!((got.head, got.len), (want.head, want.len), "seed {seed}: ring cursor");
        }
        assert!(fitted >= 200, "only {fitted} of 240 corpora were full rank");
    }

    /// The signed rank-1 update the window ran before the fused slide,
    /// with its `ai == 0.0` row skip.
    fn rank1_signed(
        gram: &mut [f64],
        xty: &mut [f64],
        yty: &mut f64,
        row: &[f64],
        y: f64,
        sign: f64,
    ) {
        let p = row.len();
        for (i, ((&ri, g), b)) in row.iter().zip(gram.chunks_exact_mut(p)).zip(xty).enumerate() {
            let ai = sign * ri;
            if ai == 0.0 {
                continue;
            }
            *b += ai * y;
            for (gij, &rj) in g[..=i].iter_mut().zip(&row[..=i]) {
                *gij += ai * rj;
            }
        }
        *yty += sign * y * y;
    }

    impl QrsModel {
        /// The window push as it ran before the fused slide: a down-date
        /// call for the evicted row, then an up-date call for the new one
        /// written into its slot. The oracle for the fused pass.
        fn push_observation_two_pass(&mut self, x: &[f64], y: f64) {
            let p = self.design.n_terms();
            let slot = if self.len == self.window_capacity {
                let h = self.head;
                let Self { rows, ys, gram, xty, yty, .. } = self;
                rank1_signed(gram.as_mut_slice(), xty, yty, &rows[h * p..(h + 1) * p], ys[h], -1.0);
                self.head = (self.head + 1) % self.window_capacity;
                self.downdates += 1;
                h
            } else {
                let s = (self.head + self.len) % self.window_capacity;
                self.len += 1;
                s
            };
            let Self { design, rows, ys, gram, xty, yty, .. } = self;
            let row = &mut rows[slot * p..(slot + 1) * p];
            design.expand_into(x, row);
            ys[slot] = y;
            rank1_signed(gram.as_mut_slice(), xty, yty, row, y, 1.0);
            if self.downdates >= REBUILD_DOWNDATES {
                let Self { rows, ys, gram, xty, yty, head, len, window_capacity, .. } = self;
                gram.as_mut_slice().fill(0.0);
                xty.fill(0.0);
                *yty = 0.0;
                for k in 0..*len {
                    let i = (*head + k) % *window_capacity;
                    let row = &rows[i * p..(i + 1) * p];
                    rank1_signed(gram.as_mut_slice(), xty, yty, row, ys[i], 1.0);
                }
                self.downdates = 0;
            }
        }

        /// The residual pass as it ran before the RMSE and MAPE were split
        /// into two passes: both folded from one four-row interleaved pass.
        fn window_residual_stats(&self) -> (f64, f64) {
            let n = self.len as f64;
            let mut sse = 0.0;
            let mut ape = 0.0;
            self.for_each_prediction(|pred, y| {
                sse += (pred - y) * (pred - y);
                if y.abs() > 1e-9 {
                    ape += ((pred - y) / y).abs();
                }
            });
            ((sse / n).sqrt(), ape / n)
        }

        /// The residual pass as it ran before rows were interleaved: one
        /// dot product per row in window order.
        fn window_residual_stats_one_row(&self) -> (f64, f64) {
            let n = self.len as f64;
            let mut sse = 0.0;
            let mut ape = 0.0;
            for (row, y) in self.window_iter() {
                let pred: f64 = row.iter().zip(&self.coeffs).map(|(b, c)| b * c).sum();
                sse += (pred - y) * (pred - y);
                if y.abs() > 1e-9 {
                    ape += ((pred - y) / y).abs();
                }
            }
            ((sse / n).sqrt(), ape / n)
        }
    }

    #[test]
    fn fused_slide_matches_two_pass_oracle() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..6u64 {
            let (xs, ys) = zero_laced_corpus(seed, 120);
            let Ok(base) = QrsModel::fit(&xs, &ys, Method::Ols) else { continue };
            // A 29-row window wraps constantly and crosses the drift
            // rebuild after REBUILD_DOWNDATES evictions.
            let mut fused = base.with_window_capacity(29).with_refit_every(0);
            let mut oracle = fused.clone();
            let (more_xs, more_ys) = zero_laced_corpus(seed + 1_000, REBUILD_DOWNDATES + 64);
            for (k, (x, &y)) in more_xs.iter().zip(&more_ys).enumerate() {
                fused.push_observation(x, y);
                oracle.push_observation_two_pass(x, y);
                assert_eq!(fused.downdates, oracle.downdates, "seed {seed} push {k}");
                if k % 97 == 0 || k + 70 > REBUILD_DOWNDATES {
                    let at = format!("seed {seed} push {k}");
                    let (g, want_g) = (fused.gram.as_slice(), oracle.gram.as_slice());
                    assert_eq!(bits(g), bits(want_g), "{at}: XᵀX");
                    assert_eq!(bits(&fused.xty), bits(&oracle.xty), "{at}: Xᵀy");
                    assert_eq!(fused.yty.to_bits(), oracle.yty.to_bits(), "{at}: Σy²");
                }
            }
            assert_eq!(bits(&fused.rows), bits(&oracle.rows), "seed {seed}: ring rows");
            assert_eq!(bits(&fused.ys), bits(&oracle.ys), "seed {seed}: ring responses");
            let cursor = |m: &QrsModel| (m.head, m.len);
            assert_eq!(cursor(&fused), cursor(&oracle), "seed {seed}: ring cursor");
        }
    }

    #[test]
    fn interleaved_residual_pass_matches_one_row_oracle() {
        // Windows of every length mod 4, wrapped at every offset, so both
        // runs of the ring end in every remainder.
        for seed in 0..40u64 {
            let n = 40 + (seed as usize * 7) % 60;
            let (xs, ys) = zero_laced_corpus(seed, n);
            let Ok(base) = QrsModel::fit(&xs, &ys, Method::Ols) else { continue };
            let mut m = base.with_window_capacity(29 + seed as usize % 8).with_refit_every(1);
            let (more_xs, more_ys) = zero_laced_corpus(seed + 500, 45);
            for (x, &y) in more_xs.iter().zip(&more_ys) {
                m.observe(x, y);
                let (rmse, mape) = m.window_residual_stats();
                let (want_rmse, want_mape) = m.window_residual_stats_one_row();
                let at = format!("seed {seed} head {}", m.head);
                assert_eq!(rmse.to_bits(), want_rmse.to_bits(), "{at}: rmse");
                assert_eq!(mape.to_bits(), want_mape.to_bits(), "{at}: mape");
            }
        }
    }

    #[test]
    fn sse_only_refit_and_on_demand_mape_match_the_fused_pass() {
        // After the fit and every refit, the stored RMSE (SSE-only pass)
        // and the on-demand MAPE are bitwise the fused pass's pair — and
        // the one-row oracle's — over wrapping windows of every length
        // mod 4, with zero responses, for OLS, ridge and LAD, eager and
        // deferred.
        let methods = [Method::Ols, Method::Ridge(0.5), Method::Lad];
        let mut checked = [0; 3];
        for seed in 0..24u64 {
            let (xs, ys) = zero_laced_corpus(seed, 60 + seed as usize % 5);
            let method = methods[seed as usize % 3];
            let Ok(base) = QrsModel::fit(&xs, &ys, method) else { continue };
            let (fit_rmse, fit_mape) = base.window_residual_stats();
            assert_eq!(base.rmse().to_bits(), fit_rmse.to_bits(), "seed {seed}: fit rmse");
            assert_eq!(base.mape().to_bits(), fit_mape.to_bits(), "seed {seed}: fit mape");
            let eager = seed % 2 == 0;
            let mut m = base.with_window_capacity(29 + seed as usize % 6).with_refit_every(1);
            let (more_xs, mut more_ys) = zero_laced_corpus(seed + 900, 40);
            // Zero responses, which the APE skips.
            more_ys.iter_mut().step_by(7).for_each(|y| *y = 0.0);
            for (k, (x, &y)) in more_xs.iter().zip(&more_ys).enumerate() {
                let refitted = if eager {
                    m.observe(x, y)
                } else {
                    m.observe_queued(x, y);
                    k % 3 == 2 && m.flush_refit()
                };
                if !refitted {
                    continue;
                }
                let (rmse, mape) = m.window_residual_stats();
                let (one_rmse, one_mape) = m.window_residual_stats_one_row();
                let at = format!("seed {seed} push {k}");
                assert_eq!(m.rmse().to_bits(), rmse.to_bits(), "{at}: rmse");
                assert_eq!(m.mape().to_bits(), mape.to_bits(), "{at}: mape");
                assert_eq!(m.rmse().to_bits(), one_rmse.to_bits(), "{at}: one-row rmse");
                assert_eq!(m.mape().to_bits(), one_mape.to_bits(), "{at}: one-row mape");
                checked[seed as usize % 3] += 1;
            }
        }
        assert!(checked.iter().all(|&c| c >= 50), "refits checked per method: {checked:?}");
    }

    #[test]
    fn fit_rejects_wrong_arity_rows() {
        let (mut xs, ys) = dataset(40);
        xs[17] = vec![1.0, 2.0, 3.0];
        assert_eq!(QrsModel::fit(&xs, &ys, Method::Ols).unwrap_err(), FitError::DimensionMismatch);
        xs[17] = vec![1.0];
        assert_eq!(QrsModel::fit(&xs, &ys, Method::Ols).unwrap_err(), FitError::DimensionMismatch);
        let (xs, ys) = dataset(40);
        assert_eq!(
            QrsModel::fit(&xs, &ys[..39], Method::Ols).unwrap_err(),
            FitError::DimensionMismatch
        );
    }

    #[test]
    fn empty_fit_is_rejected() {
        assert_eq!(QrsModel::fit(&[], &[], Method::Ols).unwrap_err(), FitError::TooFewObservations);
    }

    #[test]
    fn rls_refit_matches_cold_batch_fit() {
        // After a full wrap of the ring (every original row evicted), the
        // incrementally maintained coefficients still agree with a batch
        // refit on exactly the surviving window.
        let (xs, ys) = dataset(60);
        let mut m = QrsModel::fit(&xs, &ys, Method::Ols)
            .expect("full-rank training corpus")
            .with_window_capacity(40)
            .with_refit_every(1);
        let mut window: Vec<(Vec<f64>, f64)> =
            xs.iter().cloned().zip(ys.iter().copied()).collect();
        for i in 0..120 {
            let x = vec![((i * 5) % 13) as f64, ((i * 7) % 9) as f64];
            let y = truth(&x) + (i % 3) as f64;
            assert!(m.observe(&x, y), "refit must succeed on well-posed data");
            window.push((x, y));
        }
        let tail = &window[window.len() - 40..];
        let bxs: Vec<Vec<f64>> = tail.iter().map(|(x, _)| x.clone()).collect();
        let bys: Vec<f64> = tail.iter().map(|(_, y)| *y).collect();
        let batch = QrsModel::fit(&bxs, &bys, Method::Ols).expect("full-rank training corpus");
        for (a, b) in m.coeffs().iter().zip(batch.coeffs()) {
            assert!(
                (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                "RLS {a} vs batch {b}\nrls={:?}\nbatch={:?}",
                m.coeffs(),
                batch.coeffs()
            );
        }
        assert!((m.rmse() - batch.rmse()).abs() < 1e-6 * (1.0 + batch.rmse()));
        assert!((m.mape() - batch.mape()).abs() < 1e-6 * (1.0 + batch.mape()));
    }
}
