//! Open-system arrival process: an unbounded, seeded stream of job batches.
//!
//! The closed-batch process in [`crate::arrival`] materializes every batch
//! of a run up front; this module generates the same kind of batches *lazily*
//! — one epoch at a time, on demand — so a serving engine can run
//! indefinitely while only the live epoch exists in memory. The per-epoch
//! Poisson mean is modulated by a time-of-day **rate envelope** (reusing the
//! net layer's deterministic diurnal/trace/jitter machinery,
//! [`BandwidthModel`]) and optionally by a heavy-tailed **flash-crowd
//! multiplier**, capturing the transient, bursty, time-varying load the
//! cloud-bursting literature motivates.
//!
//! Determinism: all randomness flows from the same four `workload/*` RNG
//! streams the closed generator uses, consumed in epoch order, and each
//! batch is drawn by the same sampler. With a [`RateEnvelope::Flat`]
//! envelope and no burst model, the stream is **draw-for-draw identical** to
//! [`crate::arrival::BatchArrivals`] — the closed-vs-open equivalence
//! goldens rest on exactly this property.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use cloudburst_net::BandwidthModel;
use cloudburst_sim::{RngFactory, SimDuration, SimTime};

use crate::arrival::{ArrivalConfig, Batch};
use crate::bucket::SizeBucket;
use crate::document::DocumentFeatures;
use crate::job::{Job, JobId, ParentId};
use crate::stats;
use crate::truth::GroundTruth;

/// Nominal base rate handed to the reused [`BandwidthModel`] so its
/// absolute floor (`rate_bps` never returns below 1.0 bytes/sec) is nine
/// orders of magnitude below the envelope's working range and can never
/// distort a factor.
const ENVELOPE_SCALE: f64 = 1.0e9;

/// Dimensionless time-of-day modulation of the arrival rate.
///
/// The non-flat variant wraps a net-layer [`BandwidthModel`] — the same
/// deterministic diurnal sinusoid / hourly table / trace / jitter machinery
/// that shapes link capacity — and normalizes it by `scale` into a unitless
/// factor, so workload and network share one notion of "time of day".
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum RateEnvelope {
    /// No modulation: factor ≡ 1.
    Flat,
    /// `factor(t) = model.rate_bps(t) / scale`.
    Profile {
        /// The reused time-of-day model.
        model: BandwidthModel,
        /// Normalization divisor mapping the model's rate to a factor.
        scale: f64,
    },
}

impl RateEnvelope {
    /// A diurnal envelope: factor swings `1 ± swing` across the virtual
    /// day (floored at 5 % of baseline by the underlying model), with the
    /// upward zero-crossing at `phase_secs`.
    pub fn diurnal(swing: f64, phase_secs: f64) -> RateEnvelope {
        assert!((0.0..=1.0).contains(&swing), "swing must be in [0, 1]");
        RateEnvelope::Profile {
            model: BandwidthModel::Diurnal {
                base: ENVELOPE_SCALE,
                amplitude: swing * ENVELOPE_SCALE,
                phase_secs,
            },
            scale: ENVELOPE_SCALE,
        }
    }

    /// The modulation factor at virtual time `t`.
    pub fn factor(&self, t: SimTime) -> f64 {
        match self {
            RateEnvelope::Flat => 1.0,
            RateEnvelope::Profile { model, scale } => model.rate_bps(t) / scale,
        }
    }
}

/// Heavy-tailed flash-crowd modulation: with probability `epoch_prob` an
/// epoch's rate is multiplied by a capped Pareto(`alpha`) factor ≥ 1 —
/// rare but violent demand spikes on top of the smooth envelope.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BurstModel {
    /// Probability that a given epoch is a flash-crowd epoch.
    pub epoch_prob: f64,
    /// Pareto tail index of the multiplier (> 1 keeps the mean finite).
    pub alpha: f64,
    /// Cap on the multiplier, bounding worst-case epoch size.
    pub max_factor: f64,
}

impl BurstModel {
    /// A moderate preset: 5 % of epochs spike, Pareto(1.5) tail capped at 8×.
    pub fn flash_crowds() -> BurstModel {
        BurstModel { epoch_prob: 0.05, alpha: 1.5, max_factor: 8.0 }
    }

    /// Draws this epoch's multiplier (two uniforms from `rng`: gate, tail).
    fn sample_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let gate: f64 = rng.gen();
        // Tail uniform is drawn unconditionally so the stream position
        // after an epoch does not depend on whether the gate opened.
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]: finite power
        if gate >= self.epoch_prob {
            return 1.0;
        }
        u.powf(-1.0 / self.alpha).min(self.max_factor)
    }
}

/// Configuration of the open arrival process.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpenArrivalConfig {
    /// Epoch length — one batch is released per epoch (closed mode's
    /// `batch_interval`).
    pub epoch: SimDuration,
    /// Baseline Poisson mean per epoch before modulation.
    pub jobs_per_epoch: f64,
    /// Job-size distribution.
    pub bucket: SizeBucket,
    /// Time-of-day rate modulation.
    pub envelope: RateEnvelope,
    /// Optional heavy-tail flash-crowd modulation.
    pub burst: Option<BurstModel>,
}

impl Default for OpenArrivalConfig {
    fn default() -> Self {
        OpenArrivalConfig {
            epoch: SimDuration::from_mins(3),
            jobs_per_epoch: 15.0,
            bucket: SizeBucket::Uniform,
            envelope: RateEnvelope::Flat,
            burst: None,
        }
    }
}

impl OpenArrivalConfig {
    /// The serving-mode workload of EXPERIMENTS.md: diurnal ±80 % swing
    /// plus flash crowds — the "wildly fluctuating, periodical" demand the
    /// paper describes (Sec. I), run as an unbounded stream.
    pub fn diurnal_service() -> OpenArrivalConfig {
        OpenArrivalConfig {
            envelope: RateEnvelope::diurnal(0.8, 0.0),
            burst: Some(BurstModel::flash_crowds()),
            ..OpenArrivalConfig::default()
        }
    }

    /// The open config whose stream is draw-for-draw identical to the given
    /// closed config's: same epoch spacing, baseline rate and bucket, flat
    /// envelope, no bursts. The open generator reads no seasonal profile —
    /// its epoch rate is `jobs_per_epoch × envelope` — so a closed config
    /// with a `rate_profile` has no matching open config.
    ///
    /// # Panics
    ///
    /// If `closed.rate_profile` is set.
    pub fn matching_closed(closed: &ArrivalConfig) -> OpenArrivalConfig {
        assert!(
            closed.rate_profile.is_none(),
            "a seasonal rate_profile has no open-stream equivalent"
        );
        OpenArrivalConfig {
            epoch: closed.batch_interval,
            jobs_per_epoch: closed.jobs_per_batch,
            bucket: closed.bucket,
            envelope: RateEnvelope::Flat,
            burst: None,
        }
    }

    /// The envelope-modulated mean rate (jobs per epoch) at time `t`,
    /// before any flash-crowd multiplier.
    pub fn mean_rate_at(&self, t: SimTime) -> f64 {
        self.jobs_per_epoch * self.envelope.factor(t)
    }
}

/// The per-job draws both arrival generators share: the four `workload/*`
/// streams and the draw group per job (size, features, true service time,
/// output bytes). [`OpenArrivals`] and [`crate::arrival::BatchArrivals`]
/// both draw each batch through [`JobSampler::batch`], so a flat open
/// stream is draw-for-draw the closed one by construction.
#[derive(Clone, Debug)]
pub(crate) struct JobSampler {
    size_rng: StdRng,
    feat_rng: StdRng,
    /// The batch-count stream; the open generator also draws its
    /// flash-crowd multiplier from it, ahead of the count.
    pub(crate) count_rng: StdRng,
    truth_rng: StdRng,
}

impl JobSampler {
    /// The four streams derived from the experiment seed.
    pub(crate) fn new(rngs: &RngFactory) -> JobSampler {
        JobSampler {
            size_rng: rngs.stream("workload/sizes"),
            feat_rng: rngs.stream("workload/features"),
            count_rng: rngs.stream("workload/counts"),
            truth_rng: rngs.stream("workload/truth"),
        }
    }

    /// Draws batch `index`: a Poisson(`rate`) job count, at least one so
    /// every batch exercises the schedulers (a Poisson(15) zero is
    /// astronomically rare anyway), then one draw group per job. Job ids
    /// are provisional, `first_id` onwards in generation order.
    pub(crate) fn batch(
        &mut self,
        bucket: SizeBucket,
        truth: &GroundTruth,
        rate: f64,
        index: u32,
        arrival: SimTime,
        first_id: u64,
    ) -> Batch {
        let count = stats::poisson(&mut self.count_rng, rate).max(1);
        let mut jobs = Vec::with_capacity(count as usize);
        for id in first_id..first_id + count {
            let size = bucket.sample_bytes(&mut self.size_rng);
            let features = DocumentFeatures::sample_any_type(&mut self.feat_rng, size);
            let true_service_secs = truth.sample_secs(&mut self.truth_rng, &features);
            let output_bytes = truth.sample_output_bytes(&mut self.truth_rng, &features);
            jobs.push(Job {
                id: JobId(id),
                batch: index,
                arrival,
                features,
                true_service_secs,
                output_bytes,
                parent: ParentId::NONE,
            });
        }
        Batch { index, arrival, jobs }
    }
}

/// Lazy, unbounded batch generator: call [`OpenArrivals::next_batch`] once
/// per epoch. Holds only the RNG stream cursors and counters — state is
/// O(1) in the number of epochs generated.
#[derive(Clone, Debug)]
pub struct OpenArrivals {
    config: OpenArrivalConfig,
    truth: GroundTruth,
    sampler: JobSampler,
    next_epoch: u64,
    jobs_generated: u64,
}

impl OpenArrivals {
    /// Creates a generator seeded from the same `workload/*` streams the
    /// closed generator uses.
    pub fn new(config: OpenArrivalConfig, rngs: &RngFactory, truth: GroundTruth) -> OpenArrivals {
        OpenArrivals {
            config,
            truth,
            sampler: JobSampler::new(rngs),
            next_epoch: 0,
            jobs_generated: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OpenArrivalConfig {
        &self.config
    }

    /// Epochs generated so far; the next batch arrives at
    /// `epochs_generated() * epoch`.
    pub fn epochs_generated(&self) -> u64 {
        self.next_epoch
    }

    /// Jobs generated so far.
    pub fn jobs_generated(&self) -> u64 {
        self.jobs_generated
    }

    /// Arrival instant of the next batch.
    pub fn next_arrival(&self) -> SimTime {
        SimTime::ZERO + self.config.epoch * self.next_epoch
    }

    /// Generates the next epoch's batch. Every epoch yields at least one
    /// job (mirroring the closed generator, and keeping every epoch's
    /// admission path exercised even in the diurnal trough).
    ///
    /// Draw order per epoch — count stream: optional burst pair, then the
    /// Poisson count; size/feature/truth streams: one draw group per job.
    /// With no burst model this is exactly the closed generator's order.
    pub fn next_batch(&mut self) -> Batch {
        let e = self.next_epoch;
        let arrival = self.next_arrival();
        let burst_factor = match &self.config.burst {
            None => 1.0,
            Some(b) => b.sample_factor(&mut self.sampler.count_rng),
        };
        let rate = self.config.mean_rate_at(arrival) * burst_factor;
        // The epoch index is the batch index; it wraps at 2^32 epochs
        // (≈ 24k virtual years at 3-minute epochs) — far beyond any
        // configured horizon. Ids are provisional; the engine re-indexes
        // (and, in serve mode, recycles) at admission.
        let batch = self.sampler.batch(
            self.config.bucket,
            &self.truth,
            rate,
            e as u32,
            arrival,
            self.jobs_generated,
        );
        self.jobs_generated += batch.jobs.len() as u64;
        self.next_epoch = e + 1;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::BatchArrivals;

    #[test]
    fn flat_open_stream_matches_closed_generator_draw_for_draw() {
        // The equivalence keystone: with a flat envelope and no bursts, the
        // open stream reproduces the closed batches exactly — arrivals,
        // sizes, service times, output bytes, provisional ids.
        let closed_cfg = ArrivalConfig { n_batches: 12, ..ArrivalConfig::default() };
        let rngs = RngFactory::new(42);
        let truth = GroundTruth::default();
        let closed = BatchArrivals::new(closed_cfg.clone()).generate(&rngs, &truth);

        let mut open = OpenArrivals::new(
            OpenArrivalConfig::matching_closed(&closed_cfg),
            &RngFactory::new(42),
            truth,
        );
        for want in &closed {
            let got = open.next_batch();
            assert_eq!(got.index, want.index);
            assert_eq!(got.arrival, want.arrival);
            assert_eq!(got.jobs.len(), want.jobs.len());
            for (a, b) in got.jobs.iter().zip(&want.jobs) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.arrival, b.arrival);
                assert_eq!(a.features.size_bytes, b.features.size_bytes);
                assert_eq!(a.true_service_secs, b.true_service_secs);
                assert_eq!(a.output_bytes, b.output_bytes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no open-stream equivalent")]
    fn matching_closed_rejects_a_seasonal_profile() {
        let seasonal = ArrivalConfig::default().with_seasonal_cycle(4, 2.0);
        OpenArrivalConfig::matching_closed(&seasonal);
    }

    #[test]
    fn generation_is_deterministic_and_lazy_state_is_small() {
        let mk = || {
            OpenArrivals::new(
                OpenArrivalConfig::diurnal_service(),
                &RngFactory::new(7),
                GroundTruth::default(),
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..50 {
            let x = a.next_batch();
            let y = b.next_batch();
            assert_eq!(x.jobs.len(), y.jobs.len());
            for (p, q) in x.jobs.iter().zip(&y.jobs) {
                assert_eq!(p.true_service_secs, q.true_service_secs);
            }
        }
        assert_eq!(a.epochs_generated(), 50);
        assert_eq!(a.jobs_generated(), b.jobs_generated());
    }

    #[test]
    fn diurnal_envelope_modulates_epoch_sizes() {
        let cfg = OpenArrivalConfig {
            jobs_per_epoch: 100.0,
            envelope: RateEnvelope::diurnal(0.8, 0.0),
            ..OpenArrivalConfig::default()
        };
        // Peak (quarter-day) vs trough (three-quarter-day) mean rates.
        let peak = cfg.mean_rate_at(SimTime::from_secs(21_600));
        let trough = cfg.mean_rate_at(SimTime::from_secs(64_800));
        assert!((peak - 180.0).abs() < 1.0, "peak={peak}");
        assert!((trough - 20.0).abs() < 1.0, "trough={trough}");

        // Realized counts follow: generate one virtual day of 3-min epochs
        // and compare the quarter-day around the peak vs the trough.
        let mut gen = OpenArrivals::new(cfg, &RngFactory::new(3), GroundTruth::default());
        let day: Vec<usize> = (0..480).map(|_| gen.next_batch().jobs.len()).collect();
        let peak_mean: f64 = day[60..180].iter().sum::<usize>() as f64 / 120.0;
        let trough_mean: f64 = day[300..420].iter().sum::<usize>() as f64 / 120.0;
        assert!(
            peak_mean > 3.0 * trough_mean,
            "peak epochs {peak_mean} should dwarf trough epochs {trough_mean}"
        );
    }

    #[test]
    fn flash_crowds_fatten_the_tail() {
        let base = OpenArrivalConfig { jobs_per_epoch: 50.0, ..OpenArrivalConfig::default() };
        let bursty = OpenArrivalConfig {
            burst: Some(BurstModel { epoch_prob: 0.1, alpha: 1.2, max_factor: 10.0 }),
            ..base.clone()
        };
        let run = |cfg: OpenArrivalConfig| -> Vec<usize> {
            let mut g = OpenArrivals::new(cfg, &RngFactory::new(11), GroundTruth::default());
            (0..400).map(|_| g.next_batch().jobs.len()).collect()
        };
        let calm = run(base);
        let wild = run(bursty);
        let max_calm = *calm.iter().max().expect("nonempty");
        let max_wild = *wild.iter().max().expect("nonempty");
        assert!(
            max_wild as f64 > 2.0 * max_calm as f64,
            "flash crowds must spike: calm max {max_calm}, bursty max {max_wild}"
        );
    }

    #[test]
    fn burst_draws_keep_stream_position_epoch_aligned() {
        // The burst model draws a fixed number of uniforms per epoch, so
        // two bursty generators with different burst params stay aligned
        // on the count stream (same epochs spike or not per the gate draw).
        let mk = |p: f64| {
            OpenArrivals::new(
                OpenArrivalConfig {
                    burst: Some(BurstModel { epoch_prob: p, alpha: 1.5, max_factor: 4.0 }),
                    ..OpenArrivalConfig::default()
                },
                &RngFactory::new(5),
                GroundTruth::default(),
            )
        };
        // prob 0.0: gate never opens, factor 1.0 — but the tail uniform is
        // still consumed, so counts match a generator whose gate can open
        // on epochs where it happens not to.
        let mut never = mk(0.0);
        let mut tiny = mk(1.0e-12);
        for _ in 0..100 {
            assert_eq!(never.next_batch().jobs.len(), tiny.next_batch().jobs.len());
        }
    }
}
