//! Job-size buckets (Sec. V-A).
//!
//! "The first bucket was biased towards small jobs; the second one had a
//! uniform distribution of job sizes, while the last one was biased towards
//! large jobs." Sizes span 1 MB – 300 MB. We realize the bias as a mixture of
//! uniform components over small/medium/large sub-ranges; the mixture weights
//! are chosen so the bursted-job size CoV lands near 1 as the paper observes
//! (Sec. V-B-4).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::document::BYTES_PER_MB;

/// Minimum job size (bytes), per the paper: 1 MB.
pub const MIN_JOB_BYTES: u64 = BYTES_PER_MB;
/// Maximum job size (bytes), per the paper: 300 MB.
pub const MAX_JOB_BYTES: u64 = 300 * BYTES_PER_MB;

/// The three production samplings used in the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeBucket {
    /// Biased towards small jobs.
    SmallBiased,
    /// Uniform over the full 1–300 MB range.
    Uniform,
    /// Biased towards large jobs.
    LargeBiased,
}

impl SizeBucket {
    /// All buckets, in the paper's order.
    pub const ALL: [SizeBucket; 3] =
        [SizeBucket::SmallBiased, SizeBucket::Uniform, SizeBucket::LargeBiased];

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SizeBucket::SmallBiased => "small",
            SizeBucket::Uniform => "uniform",
            SizeBucket::LargeBiased => "large",
        }
    }

    /// Mixture weights over the (small, medium, large) sub-ranges
    /// `[1,50] / (50,150] / (150,300]` MB.
    fn weights(self) -> (f64, f64, f64) {
        match self {
            SizeBucket::SmallBiased => (0.70, 0.25, 0.05),
            // Uniform over the whole range: weights proportional to sub-range widths.
            SizeBucket::Uniform => (49.0 / 299.0, 100.0 / 299.0, 150.0 / 299.0),
            SizeBucket::LargeBiased => (0.05, 0.25, 0.70),
        }
    }

    /// Samples one job size in bytes.
    pub fn sample_bytes<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        let (ws, wm, _wl) = self.weights();
        let u: f64 = rng.gen();
        let mb = if u < ws {
            rng.gen_range(1.0..=50.0)
        } else if u < ws + wm {
            rng.gen_range(50.0..=150.0)
        } else {
            rng.gen_range(150.0..=300.0)
        };
        ((mb * BYTES_PER_MB as f64) as u64).clamp(MIN_JOB_BYTES, MAX_JOB_BYTES)
    }

    /// Expected mean size in MB (exact for the mixture): the tests' oracle
    /// for the sampler.
    #[cfg(test)]
    pub fn mean_mb(self) -> f64 {
        let (ws, wm, wl) = self.weights();
        ws * 25.5 + wm * 100.0 + wl * 225.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_mbs(b: SizeBucket, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| b.sample_bytes(&mut rng) as f64 / BYTES_PER_MB as f64).collect()
    }

    #[test]
    fn sizes_stay_in_range() {
        for b in SizeBucket::ALL {
            for mb in sample_mbs(b, 2000, 1) {
                assert!((1.0..=300.0).contains(&mb), "{b:?} produced {mb} MB");
            }
        }
    }

    #[test]
    fn bucket_means_are_ordered_and_near_expectation() {
        let small = Summary::of(&sample_mbs(SizeBucket::SmallBiased, 20_000, 2)).mean;
        let uniform = Summary::of(&sample_mbs(SizeBucket::Uniform, 20_000, 3)).mean;
        let large = Summary::of(&sample_mbs(SizeBucket::LargeBiased, 20_000, 4)).mean;
        assert!(small < uniform && uniform < large, "{small} {uniform} {large}");
        assert!((small - SizeBucket::SmallBiased.mean_mb()).abs() < 4.0);
        assert!((uniform - SizeBucket::Uniform.mean_mb()).abs() < 4.0);
        assert!((large - SizeBucket::LargeBiased.mean_mb()).abs() < 4.0);
        // The uniform mixture reproduces U[1,300]: mean ≈ 150.5.
        assert!((uniform - 150.5).abs() < 4.0);
    }

    #[test]
    fn size_variability_is_high() {
        // Sec. V-B-4: CoV of job sizes close to 1 motivates SIBS. The raw
        // bucket CoV is somewhat below 1 (the bursted subset is more
        // variable); assert it is at least substantial.
        let s = Summary::of(&sample_mbs(SizeBucket::SmallBiased, 20_000, 5));
        assert!(s.cov() > 0.8, "small-biased CoV = {}", s.cov());
    }

    #[test]
    fn labels() {
        assert_eq!(SizeBucket::SmallBiased.label(), "small");
        assert_eq!(SizeBucket::Uniform.label(), "uniform");
        assert_eq!(SizeBucket::LargeBiased.label(), "large");
    }

    #[test]
    fn weights_sum_to_one() {
        for b in SizeBucket::ALL {
            let (a, m, l) = b.weights();
            assert!((a + m + l - 1.0).abs() < 1e-12);
        }
    }
}
