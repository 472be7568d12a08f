//! Poisson batch arrival process (Sec. V-A).
//!
//! "A batch of jobs from a particular bucket would arrive every 3 minutes
//! according to a poisson process with mean arrival rate λ = 15 per batch."
//! We read this as: batches at fixed 3-minute epochs; the number of jobs in
//! each batch is Poisson(15); job sizes drawn from the bucket; secondary
//! document features sampled per job class.

use rand::Rng;
use serde::{Deserialize, Serialize};

use cloudburst_sim::{RngFactory, SimDuration, SimTime};

use crate::bucket::SizeBucket;
use crate::document::DocumentFeatures;
use crate::job::Job;
use crate::open::JobSampler;
use crate::truth::GroundTruth;

/// Configuration of the arrival process.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Number of batches in the run (the paper's runs span a handful of
    /// batches; 7 gives ≈ 105 jobs at λ = 15).
    pub n_batches: u32,
    /// Time between consecutive batch arrivals (paper: 3 minutes).
    pub batch_interval: SimDuration,
    /// Mean number of jobs per batch (paper: λ = 15).
    pub jobs_per_batch: f64,
    /// Job-size distribution.
    pub bucket: SizeBucket,
    /// Seasonal modulation of the batch rate ("the workloads also wildly
    /// fluctuate and are periodical … closely following the seasonal
    /// consumption patterns", Sec. I). Batch `b`'s Poisson mean is
    /// `jobs_per_batch × profile[b mod len]`. `None` = stationary.
    pub rate_profile: Option<Vec<f64>>,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            n_batches: 7,
            batch_interval: SimDuration::from_mins(3),
            jobs_per_batch: 15.0,
            bucket: SizeBucket::Uniform,
            rate_profile: None,
        }
    }
}

impl ArrivalConfig {
    /// A peak/off-peak cycle: demand ramps up to `peak_factor` mid-cycle
    /// and falls back — a compressed model of the daily/weekly swell the
    /// paper's domain sees. `cycle_len` must be ≥ 1.
    pub fn with_seasonal_cycle(mut self, cycle_len: usize, peak_factor: f64) -> ArrivalConfig {
        assert!(cycle_len >= 1 && peak_factor > 0.0);
        let profile = (0..cycle_len)
            .map(|i| {
                let phase = i as f64 / cycle_len as f64 * std::f64::consts::PI;
                1.0 + (peak_factor - 1.0) * phase.sin()
            })
            .collect();
        self.rate_profile = Some(profile);
        self
    }

    /// A megascale arrival process: ≈ `total_jobs` jobs delivered in
    /// batches of ≈ 10 000 (Poisson per batch, so the realized total
    /// varies by `O(√total)`). Exercises the schedulers and the engine's
    /// decision loop far beyond the paper's ≈ 105-job runs; the large
    /// per-batch rate rides the Poisson sampler's normal-approximation
    /// branch.
    pub fn megascale(total_jobs: u64) -> ArrivalConfig {
        assert!(total_jobs > 0, "megascale needs at least one job");
        const TARGET_BATCH: u64 = 10_000;
        let n_batches = total_jobs.div_ceil(TARGET_BATCH).max(1) as u32;
        ArrivalConfig {
            n_batches,
            jobs_per_batch: total_jobs as f64 / n_batches as f64,
            ..ArrivalConfig::default()
        }
    }

    /// The effective Poisson mean for batch index `b`.
    pub fn rate_for_batch(&self, b: u32) -> f64 {
        match &self.rate_profile {
            None => self.jobs_per_batch,
            Some(p) if p.is_empty() => self.jobs_per_batch,
            Some(p) => self.jobs_per_batch * p[b as usize % p.len()],
        }
    }
}

/// One batch of jobs arriving together.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Batch {
    /// Batch index, 0-based.
    pub index: u32,
    /// Arrival instant of every job in the batch.
    pub arrival: SimTime,
    /// The jobs, in intra-batch queue order. Ids are provisional (generation
    /// order); the engine re-indexes after chunk insertion.
    pub jobs: Vec<Job>,
}

impl Batch {
    /// Total input bytes in the batch.
    pub fn input_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.input_bytes()).sum()
    }
}

/// Generator for the full arrival schedule of a run.
#[derive(Clone, Debug)]
pub struct BatchArrivals {
    config: ArrivalConfig,
}

impl BatchArrivals {
    /// Creates a generator with the given configuration.
    pub fn new(config: ArrivalConfig) -> Self {
        BatchArrivals { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ArrivalConfig {
        &self.config
    }

    /// Generates all batches for a run. Deterministic in `(rngs, truth)`:
    /// sizes, features, batch counts and ground-truth service times all come
    /// from streams derived from the experiment seed.
    pub fn generate(&self, rngs: &RngFactory, truth: &GroundTruth) -> Vec<Batch> {
        let mut sampler = JobSampler::new(rngs);
        let mut next_id: u64 = 0;
        let mut batches = Vec::with_capacity(self.config.n_batches as usize);
        for b in 0..self.config.n_batches {
            let arrival = SimTime::ZERO + self.config.batch_interval * b as u64;
            let rate = self.config.rate_for_batch(b);
            let batch = sampler.batch(self.config.bucket, truth, rate, b, arrival, next_id);
            next_id += batch.jobs.len() as u64;
            batches.push(batch);
        }
        batches
    }

    /// Generates a flat job list (all batches concatenated), convenient for
    /// model-training code that does not care about arrival times.
    pub fn generate_flat(&self, rngs: &RngFactory, truth: &GroundTruth) -> Vec<Job> {
        self.generate(rngs, truth).into_iter().flat_map(|b| b.jobs).collect()
    }
}

/// Samples `n` training documents across the full size range and all job
/// types — the "standard set of production data observed across a variety of
/// locations" the paper bootstraps its QRSM from (Sec. III-A-1).
pub fn training_corpus<R: Rng + ?Sized>(
    rng: &mut R,
    truth: &GroundTruth,
    n: usize,
) -> Vec<(DocumentFeatures, f64)> {
    (0..n)
        .map(|_| {
            let size = SizeBucket::Uniform.sample_bytes(rng);
            let f = DocumentFeatures::sample_any_type(rng, size);
            let t = truth.sample_secs(rng, &f);
            (f, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use rand::SeedableRng;

    #[test]
    fn batches_arrive_on_schedule() {
        let gen = BatchArrivals::new(ArrivalConfig::default());
        let batches = gen.generate(&RngFactory::new(7), &GroundTruth::default());
        assert_eq!(batches.len(), 7);
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.index as usize, i);
            assert_eq!(b.arrival, SimTime::from_secs(180 * i as u64));
            assert!(!b.jobs.is_empty());
            for j in &b.jobs {
                assert_eq!(j.arrival, b.arrival);
                assert_eq!(j.batch as usize, i);
            }
        }
    }

    #[test]
    fn ids_are_sequential_across_batches() {
        let gen = BatchArrivals::new(ArrivalConfig::default());
        let jobs = gen.generate_flat(&RngFactory::new(7), &GroundTruth::default());
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, JobId(i as u64));
        }
    }

    #[test]
    fn batch_sizes_are_poisson_like() {
        let cfg = ArrivalConfig { n_batches: 200, ..ArrivalConfig::default() };
        let gen = BatchArrivals::new(cfg);
        let batches = gen.generate(&RngFactory::new(11), &GroundTruth::default());
        let counts: Vec<f64> = batches.iter().map(|b| b.jobs.len() as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        assert!((mean - 15.0).abs() < 1.0, "mean batch size {mean}");
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let gen = BatchArrivals::new(ArrivalConfig::default());
        let a = gen.generate_flat(&RngFactory::new(42), &GroundTruth::default());
        let b = gen.generate_flat(&RngFactory::new(42), &GroundTruth::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.features.size_bytes, y.features.size_bytes);
            assert_eq!(x.true_service_secs, y.true_service_secs);
        }
        let c = gen.generate_flat(&RngFactory::new(43), &GroundTruth::default());
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.features.size_bytes != y.features.size_bytes),
            "different seeds should differ"
        );
    }

    #[test]
    fn seasonal_profile_modulates_batch_sizes() {
        let cfg = ArrivalConfig { n_batches: 200, ..ArrivalConfig::default() }
            .with_seasonal_cycle(10, 3.0);
        assert_eq!(cfg.rate_for_batch(0), 15.0, "cycle starts at baseline");
        assert!(cfg.rate_for_batch(5) > 40.0, "mid-cycle peak ≈ 3×");
        assert_eq!(cfg.rate_for_batch(10), cfg.rate_for_batch(0), "cycle repeats");

        let gen = BatchArrivals::new(cfg);
        let batches = gen.generate(&RngFactory::new(3), &GroundTruth::default());
        // Mid-cycle batches carry visibly more jobs than cycle-start ones.
        let start_mean: f64 = batches.iter().step_by(10).map(|b| b.jobs.len() as f64).sum::<f64>()
            / (batches.len() / 10) as f64;
        let peak_mean: f64 =
            batches.iter().skip(5).step_by(10).map(|b| b.jobs.len() as f64).sum::<f64>()
                / (batches.len() / 10) as f64;
        assert!(
            peak_mean > 2.0 * start_mean,
            "peak {peak_mean} should dwarf baseline {start_mean}"
        );
    }

    #[test]
    fn empty_profile_falls_back_to_baseline() {
        let cfg = ArrivalConfig { rate_profile: Some(vec![]), ..ArrivalConfig::default() };
        assert_eq!(cfg.rate_for_batch(3), 15.0);
    }

    #[test]
    fn training_corpus_spans_sizes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let corpus = training_corpus(&mut rng, &GroundTruth::default(), 500);
        assert_eq!(corpus.len(), 500);
        let small = corpus.iter().filter(|(f, _)| f.size_mb() < 75.0).count();
        let large = corpus.iter().filter(|(f, _)| f.size_mb() > 225.0).count();
        assert!(small > 50 && large > 50, "corpus should span the size range");
        assert!(corpus.iter().all(|(_, t)| *t > 0.0));
    }
}
