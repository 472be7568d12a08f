//! Dependency-free samplers and the sliding-window σ of Algorithm 2.
//!
//! `rand` 0.8 only ships uniform sampling in its core crate; the normal,
//! lognormal and Poisson variates the workload models need are implemented
//! here directly (Box–Muller, Knuth) to avoid extra dependencies.

use rand::Rng;

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] so the log is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `N(mean, sd²)`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Samples a lognormal variate with the given log-space parameters
/// (`exp(N(mu, sigma²))`).
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Samples a multiplicative noise factor with unit median: `exp(N(0, σ²))`.
pub fn noise_factor<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    lognormal(rng, 0.0, sigma)
}

/// Rates above this use the normal approximation in [`poisson`]. Knuth's
/// method computes `exp(-λ)`, which underflows to 0 near λ ≈ 745 and turns
/// the sampler into an infinite loop; well before that its cost is Θ(λ)
/// uniforms per draw. The paper's rates (λ ≤ 50) stay on the exact branch,
/// keeping every historical stream byte-identical.
const POISSON_NORMAL_APPROX_MIN_LAMBDA: f64 = 256.0;

/// Samples `Poisson(lambda)`.
///
/// Moderate rates (λ ≲ 256, everything the paper configurations use) go
/// through Knuth's product-of-uniforms method exactly as before; for λ = 15
/// the expected number of uniforms drawn is 16. Larger rates — the
/// megascale benchmark drives batches of tens of thousands of jobs —
/// switch to the normal approximation `round(N(λ, λ))`, whose relative
/// error is `O(λ^-1/2)` and already below 1 % at the cut-over.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson rate must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda >= POISSON_NORMAL_APPROX_MIN_LAMBDA {
        let x = normal(rng, lambda, lambda.sqrt());
        return x.round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k: u64 = 0;
    let mut p: f64 = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Descriptive statistics of a sample: the tests' oracle for the samplers
/// and for [`window_stddev`].
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Population standard deviation.
    pub sd: f64,
    /// Minimum (0 for an empty sample).
    pub min: f64,
    /// Maximum (0 for an empty sample).
    pub max: f64,
}

#[cfg(test)]
impl Summary {
    /// Computes the summary of `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary { n: 0, mean: 0.0, sd: 0.0, min: 0.0, max: 0.0 };
        }
        let n = xs.len();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, sd: var.sqrt(), min, max }
    }

    /// Coefficient of variation `sd / mean`; 0 if the mean is 0.
    pub fn cov(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.sd / self.mean
        }
    }
}

/// Sliding-window standard deviation of job sizes: `σ(i..i+x)` as used by
/// Algorithm 2 line 4. The window is clipped at the end of the slice.
pub fn window_stddev(sizes: &[f64], start: usize, width: usize) -> f64 {
    let end = (start + width).min(sizes.len());
    if start >= end {
        return 0.0;
    }
    // `Summary::of(..).sd` without the min/max folds: the same sums in the
    // same order, so the same bits.
    let xs = &sizes[start..end];
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - 5.0).abs() < 0.05, "mean={}", s.mean);
        assert!((s.sd - 2.0).abs() < 0.05, "sd={}", s.sd);
    }

    #[test]
    fn poisson_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| poisson(&mut r, 15.0) as f64).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - 15.0).abs() < 0.15, "mean={}", s.mean);
        // Poisson variance equals the mean.
        assert!((s.sd * s.sd - 15.0).abs() < 0.6, "var={}", s.sd * s.sd);
    }

    #[test]
    fn poisson_zero_rate() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn poisson_large_rate_moments() {
        // The normal-approximation branch: mean and variance still match
        // Poisson's, and it terminates where Knuth's method would loop
        // forever (exp(-λ) underflows near λ = 745).
        let mut r = rng();
        let lambda = 50_000.0;
        let xs: Vec<f64> = (0..20_000).map(|_| poisson(&mut r, lambda) as f64).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - lambda).abs() < 0.01 * lambda, "mean={}", s.mean);
        assert!((s.sd * s.sd - lambda).abs() < 0.05 * lambda, "var={}", s.sd * s.sd);
        assert!(s.min >= 0.0);
    }

    #[test]
    fn poisson_branch_cutover_is_above_paper_rates() {
        // Every paper configuration (λ ≤ 50) must stay on the exact Knuth
        // branch so historical streams remain byte-identical.
        const { assert!(POISSON_NORMAL_APPROX_MIN_LAMBDA > 50.0) };
        // And the cut-over must sit safely below the exp(-λ) underflow.
        assert!((-POISSON_NORMAL_APPROX_MIN_LAMBDA).exp() > 0.0);
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..20_001).map(|_| noise_factor(&mut r, 0.3)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.03, "median={median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.sd - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.cov() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cov(), 0.0);
    }

    #[test]
    fn window_stddev_is_the_summary_sd_bit_for_bit() {
        let mut r = rng();
        let sizes: Vec<f64> = (0..200).map(|_| lognormal(&mut r, 3.0, 1.2)).collect();
        for start in 0..=sizes.len() + 1 {
            for width in [0, 1, 2, 5, 9, 300] {
                let end = (start + width).min(sizes.len());
                let want = if start >= end { 0.0 } else { Summary::of(&sizes[start..end]).sd };
                assert_eq!(window_stddev(&sizes, start, width).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn window_stddev_clips() {
        let xs = [1.0, 1.0, 1.0, 10.0];
        assert_eq!(window_stddev(&xs, 0, 3), 0.0);
        assert!(window_stddev(&xs, 1, 3) > 0.0);
        assert_eq!(window_stddev(&xs, 3, 5), 0.0); // single element
        assert_eq!(window_stddev(&xs, 9, 2), 0.0); // out of range
    }
}
