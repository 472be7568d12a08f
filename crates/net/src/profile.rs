//! Ground-truth bandwidth models.
//!
//! A [`BandwidthModel`] maps virtual time to the raw link capacity in
//! bytes/second — what the pipe *actually* offers, which the estimator
//! (`crate::estimator`) only ever learns approximately. All models are pure
//! functions of time (jitter included), so the simulation stays
//! deterministic and any component can query the rate at any instant
//! without shared mutable state.

use serde::{Deserialize, Serialize};

use cloudburst_sim::{SimDuration, SimTime};

/// Seconds in a (virtual) day, used by the diurnal models.
pub const SECS_PER_DAY: f64 = 86_400.0;

/// The paper's average pipe: ≈ 250 KB/s (Sec. V-B-1; calibrated per
/// DESIGN.md so transfer time is of the order of processing time).
pub const DEFAULT_MEAN_BPS: f64 = 250_000.0;

/// Ground-truth capacity of one direction of the inter-cloud pipe.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum BandwidthModel {
    /// Fixed rate (bytes/sec).
    Constant(f64),
    /// Diurnal sinusoid: `base + amplitude·sin(2π(t − phase)/day)`, floored
    /// at 5 % of base. Models the time-of-day variation of Fig. 4(a).
    Diurnal {
        /// Mean rate in bytes/sec.
        base: f64,
        /// Peak deviation from the mean in bytes/sec.
        amplitude: f64,
        /// Time of the upward zero-crossing within the day, seconds.
        phase_secs: f64,
    },
    /// A 24-entry hour-of-day table (bytes/sec), repeating daily — the raw
    /// calibrated form the paper plots.
    Hourly {
        /// Rates for hours 0–23.
        rates: Vec<f64>,
    },
    /// A measured trace: `(offset_secs, bytes/sec)` step samples, held
    /// constant between samples and repeated with period `period_secs`
    /// (0 = hold the last sample forever). Lets experiments replay real
    /// bandwidth recordings.
    Trace {
        /// Step samples sorted by offset; the first offset should be 0.
        samples: Vec<(f64, f64)>,
        /// Wrap-around period in seconds (0 disables wrapping).
        period_secs: f64,
    },
    /// Multiplicative lognormal-ish jitter over an inner model, resampled
    /// every `slot` of virtual time. Deterministic: the factor for slot `i`
    /// is a pure hash of `(seed, i)`, so repeated queries agree.
    Jittered {
        /// The underlying model.
        inner: Box<BandwidthModel>,
        /// Jitter strength: factor spans roughly `[1/(1+sigma), 1+sigma]`.
        sigma: f64,
        /// Resampling quantum.
        slot: SimDuration,
        /// Jitter stream seed.
        seed: u64,
    },
}

impl BandwidthModel {
    /// A "high network variation" pipe (Fig. 9): diurnal swing plus ±40 %
    /// jitter resampled every 2 minutes.
    pub fn high_variation(seed: u64) -> BandwidthModel {
        BandwidthModel::Jittered {
            inner: Box::new(BandwidthModel::Diurnal {
                base: DEFAULT_MEAN_BPS,
                amplitude: 0.5 * DEFAULT_MEAN_BPS,
                phase_secs: 0.0,
            }),
            sigma: 0.4,
            slot: SimDuration::from_mins(2),
            seed,
        }
    }

    /// Instantaneous capacity in bytes/sec at virtual time `t` (≥ a small
    /// positive floor, so transfers always make progress).
    pub fn rate_bps(&self, t: SimTime) -> f64 {
        let raw = match self {
            BandwidthModel::Constant(r) => *r,
            BandwidthModel::Diurnal { base, amplitude, phase_secs } => {
                let x = 2.0 * std::f64::consts::PI * (t.as_secs_f64() - phase_secs) / SECS_PER_DAY;
                (base + amplitude * x.sin()).max(0.05 * base)
            }
            BandwidthModel::Hourly { rates } => {
                debug_assert_eq!(rates.len(), 24, "hourly table must have 24 entries");
                let hour = ((t.as_secs_f64() / 3600.0) as usize) % 24;
                rates[hour]
            }
            BandwidthModel::Trace { samples, period_secs } => {
                debug_assert!(!samples.is_empty(), "trace model needs samples");
                let mut secs = t.as_secs_f64();
                if *period_secs > 0.0 {
                    secs %= period_secs;
                }
                // Last sample at or before `secs`; before the first sample,
                // hold the first value. Samples are sorted by offset, so a
                // binary search replaces the per-call linear scan.
                let idx = samples.partition_point(|(at, _)| *at <= secs);
                if idx == 0 {
                    samples[0].1
                } else {
                    samples[idx - 1].1
                }
            }
            BandwidthModel::Jittered { inner, sigma, slot, seed } => {
                let slot_idx = t.as_micros() / slot.as_micros().max(1);
                let u = hash_unit(*seed, slot_idx);
                // Symmetric-in-log factor in [1/(1+σ), (1+σ)].
                let factor = (1.0 + sigma).powf(2.0 * u - 1.0);
                inner.rate_bps(t) * factor
            }
        };
        raw.max(1.0)
    }

    /// Mean rate over `[from, to)` sampled at `step` intervals — used by
    /// tests and by capacity-planning helpers.
    pub fn mean_rate_bps(&self, from: SimTime, to: SimTime, step: SimDuration) -> f64 {
        assert!(to > from && !step.is_zero());
        let mut t = from;
        let mut sum = 0.0;
        let mut n = 0u64;
        while t < to {
            sum += self.rate_bps(t);
            n += 1;
            t += step;
        }
        sum / n as f64
    }
}

/// Deterministic hash of `(seed, i)` to a unit float in `[0, 1)`.
fn hash_unit(seed: u64, i: u64) -> f64 {
    let mut z = seed ^ i.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = BandwidthModel::Constant(1000.0);
        assert_eq!(m.rate_bps(SimTime::ZERO), 1000.0);
        assert_eq!(m.rate_bps(SimTime::from_secs(99999)), 1000.0);
    }

    #[test]
    fn diurnal_oscillates_around_base() {
        let m = BandwidthModel::Diurnal { base: 1000.0, amplitude: 500.0, phase_secs: 0.0 };
        // Quarter day in: sin(π/2) = 1 → peak.
        let peak = m.rate_bps(SimTime::from_secs(21_600));
        let trough = m.rate_bps(SimTime::from_secs(64_800));
        assert!((peak - 1500.0).abs() < 1.0, "peak={peak}");
        assert!((trough - 500.0).abs() < 1.0, "trough={trough}");
        let mean = m.mean_rate_bps(
            SimTime::ZERO,
            SimTime::from_secs(86_400),
            SimDuration::from_secs(60),
        );
        assert!((mean - 1000.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn diurnal_floors_at_five_percent() {
        let m = BandwidthModel::Diurnal { base: 1000.0, amplitude: 5000.0, phase_secs: 0.0 };
        let trough = m.rate_bps(SimTime::from_secs(64_800));
        assert_eq!(trough, 50.0);
    }

    #[test]
    fn hourly_table_lookup_wraps_daily() {
        let mut rates = vec![100.0; 24];
        rates[3] = 777.0;
        let m = BandwidthModel::Hourly { rates };
        assert_eq!(m.rate_bps(SimTime::from_secs(3 * 3600 + 10)), 777.0);
        assert_eq!(m.rate_bps(SimTime::from_secs(27 * 3600 + 10)), 777.0);
        assert_eq!(m.rate_bps(SimTime::from_secs(4 * 3600)), 100.0);
    }

    #[test]
    fn jitter_is_deterministic_and_slotted() {
        let m = BandwidthModel::Jittered {
            inner: Box::new(BandwidthModel::Constant(1000.0)),
            sigma: 0.4,
            slot: SimDuration::from_mins(2),
            seed: 9,
        };
        let a = m.rate_bps(SimTime::from_secs(10));
        let b = m.rate_bps(SimTime::from_secs(100)); // same 2-min slot
        let c = m.rate_bps(SimTime::from_secs(130)); // next slot
        assert_eq!(a, b, "same slot, same factor");
        assert_ne!(a, c, "different slot, different factor");
        assert_eq!(a, m.rate_bps(SimTime::from_secs(10)), "repeat query agrees");
    }

    #[test]
    fn jitter_respects_bounds_and_keeps_mean_close() {
        let m = BandwidthModel::Jittered {
            inner: Box::new(BandwidthModel::Constant(1000.0)),
            sigma: 0.4,
            slot: SimDuration::from_secs(60),
            seed: 4,
        };
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for s in 0..2000 {
            let r = m.rate_bps(SimTime::from_secs(s * 60));
            min = min.min(r);
            max = max.max(r);
        }
        assert!(min >= 1000.0 / 1.4 - 1e-9, "min={min}");
        assert!(max <= 1400.0 + 1e-9, "max={max}");
        let mean = m.mean_rate_bps(
            SimTime::ZERO,
            SimTime::from_secs(2000 * 60),
            SimDuration::from_secs(60),
        );
        assert!((mean / 1000.0 - 1.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn trace_model_steps_and_wraps() {
        let m = BandwidthModel::Trace {
            samples: vec![(0.0, 100.0), (60.0, 500.0), (120.0, 200.0)],
            period_secs: 180.0,
        };
        assert_eq!(m.rate_bps(SimTime::from_secs(0)), 100.0);
        assert_eq!(m.rate_bps(SimTime::from_secs(59)), 100.0);
        assert_eq!(m.rate_bps(SimTime::from_secs(60)), 500.0);
        assert_eq!(m.rate_bps(SimTime::from_secs(130)), 200.0);
        // Wraps with the period.
        assert_eq!(m.rate_bps(SimTime::from_secs(180 + 61)), 500.0);
        // Non-wrapping trace holds the last sample.
        let hold = BandwidthModel::Trace {
            samples: vec![(0.0, 100.0), (60.0, 500.0)],
            period_secs: 0.0,
        };
        assert_eq!(hold.rate_bps(SimTime::from_secs(10_000)), 500.0);
    }

    #[test]
    fn trace_lookup_matches_linear_scan_at_every_offset_class() {
        // The binary-search lookup must be bitwise-identical to the old
        // take_while linear scan: before the first sample (samples that
        // don't start at 0), exactly on a sample, between samples, after
        // the last sample, and across the wrap point.
        let samples = vec![(10.0, 100.0), (60.0, 500.0), (120.0, 200.0)];
        for &period in &[0.0, 180.0] {
            let m = BandwidthModel::Trace { samples: samples.clone(), period_secs: period };
            for probe_secs in [0, 5, 10, 11, 59, 60, 61, 119, 120, 121, 500, 10_000] {
                let t = SimTime::from_secs(probe_secs);
                let mut secs = t.as_secs_f64();
                if period > 0.0 {
                    secs %= period;
                }
                let linear = samples
                    .iter()
                    .take_while(|(at, _)| *at <= secs)
                    .last()
                    .map(|(_, r)| *r)
                    .unwrap_or(samples[0].1)
                    .max(1.0);
                assert_eq!(
                    m.rate_bps(t).to_bits(),
                    linear.to_bits(),
                    "offset {probe_secs}s (period {period})"
                );
            }
        }
    }

    #[test]
    fn trace_floors_like_other_models() {
        let m = BandwidthModel::Trace { samples: vec![(0.0, 0.0)], period_secs: 0.0 };
        assert_eq!(m.rate_bps(SimTime::ZERO), 1.0);
    }

    #[test]
    fn rate_never_hits_zero() {
        let m = BandwidthModel::Constant(0.0);
        assert_eq!(m.rate_bps(SimTime::ZERO), 1.0);
    }

    #[test]
    fn high_variation_preset_varies() {
        let m = BandwidthModel::high_variation(7);
        let rates: Vec<f64> =
            (0..100).map(|i| m.rate_bps(SimTime::from_secs(i * 300))).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let sd =
            (rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / rates.len() as f64).sqrt();
        assert!(sd / mean > 0.15, "cv={} should be high", sd / mean);
    }
}
