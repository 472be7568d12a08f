//! The autonomic bandwidth estimation model (Sec. III-A-2).
//!
//! "The effective bandwidth is measured at different times of the day by
//! periodic test uploads/downloads … used in conjunction with the actual
//! values of the upload/download times observed during the experiment. The
//! network estimation model is updated according to
//! `S_n = α·Y_n + (1−α)·S_{n−1}`."
//!
//! We keep one EWMA per time-of-day slot (default: hourly, 24 slots) plus a
//! global EWMA as a cold-start fallback, giving exactly the paper's
//! "time-of-day dependent bandwidth predictor".

use serde::{Deserialize, Serialize};

use cloudburst_sim::SimTime;

/// Time-of-day EWMA bandwidth predictor.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BandwidthEstimator {
    /// EWMA weight α on the newest measurement.
    alpha: f64,
    /// Slot duration in seconds (day length / number of slots).
    slot_secs: f64,
    /// Per-slot EWMA state; `None` until a slot gets its first measurement.
    slots: Vec<Option<f64>>,
    /// Global EWMA across all slots (cold-start fallback).
    global: Option<f64>,
    /// Number of measurements ingested.
    n_obs: u64,
}

impl BandwidthEstimator {
    /// Creates an estimator with `n_slots` per (virtual) day and EWMA
    /// weight `alpha` (paper's α; 0 < α ≤ 1).
    pub fn new(n_slots: usize, alpha: f64) -> BandwidthEstimator {
        assert!(n_slots >= 1);
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        BandwidthEstimator {
            alpha,
            slot_secs: 86_400.0 / n_slots as f64,
            slots: vec![None; n_slots],
            global: None,
            n_obs: 0,
        }
    }

    /// The paper-style default: hourly slots, α = 0.3.
    pub fn hourly() -> BandwidthEstimator {
        BandwidthEstimator::new(24, 0.3)
    }

    /// An estimator preloaded with a prior mean rate — models the initial
    /// calibration run the paper performs before scheduling starts.
    pub fn with_prior(mut self, prior_bps: f64) -> BandwidthEstimator {
        self.global = Some(prior_bps);
        self
    }

    fn slot_of(&self, t: SimTime) -> usize {
        ((t.as_secs_f64() / self.slot_secs) as usize) % self.slots.len()
    }

    /// Ingests a measured rate (bytes/sec) observed at time `t` — from a
    /// probe transfer or a real upload/download completion.
    pub fn observe(&mut self, t: SimTime, measured_bps: f64) {
        assert!(measured_bps >= 0.0);
        let s = self.slot_of(t);
        self.slots[s] = Some(match self.slots[s] {
            None => measured_bps,
            Some(prev) => self.alpha * measured_bps + (1.0 - self.alpha) * prev,
        });
        self.global = Some(match self.global {
            None => measured_bps,
            Some(prev) => self.alpha * measured_bps + (1.0 - self.alpha) * prev,
        });
        self.n_obs += 1;
    }

    /// Predicted rate (bytes/sec) at time `t`: the slot EWMA if the slot has
    /// been observed, else the global EWMA, else a conservative 1 B/s (an
    /// un-calibrated system should not assume a fast pipe).
    pub fn predict(&self, t: SimTime) -> f64 {
        self.slots[self.slot_of(t)].or(self.global).unwrap_or(1.0)
    }

    /// Predicted seconds to move `bytes` at time `t` with `threads` parallel
    /// streams under the saturation law with constant `kappa`.
    pub fn predict_transfer_secs(&self, t: SimTime, bytes: u64, threads: u32, kappa: f64) -> f64 {
        bytes as f64 / self.predict_transfer_rate(t, threads, kappa)
    }

    /// The divisor of [`BandwidthEstimator::predict_transfer_secs`]: the
    /// predicted effective rate (bytes/sec, at least 1) at time `t`. A
    /// caller that moves many sizes at one instant reads it once.
    pub fn predict_transfer_rate(&self, t: SimTime, threads: u32, kappa: f64) -> f64 {
        crate::link::Link::effective_rate(self.predict(t), threads.max(1), kappa).max(1.0)
    }

    /// Number of measurements ingested so far.
    pub fn observations(&self) -> u64 {
        self.n_obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_is_conservative() {
        let e = BandwidthEstimator::hourly();
        assert_eq!(e.predict(SimTime::ZERO), 1.0);
    }

    #[test]
    fn prior_seeds_global() {
        let e = BandwidthEstimator::hourly().with_prior(250_000.0);
        assert_eq!(e.predict(SimTime::from_secs(7 * 3600)), 250_000.0);
    }

    #[test]
    fn ewma_formula_matches_paper() {
        let mut e = BandwidthEstimator::new(1, 0.25);
        e.observe(SimTime::ZERO, 1000.0);
        e.observe(SimTime::ZERO, 2000.0);
        // S2 = 0.25·2000 + 0.75·1000 = 1250
        assert!((e.predict(SimTime::ZERO) - 1250.0).abs() < 1e-9);
        e.observe(SimTime::ZERO, 1250.0);
        assert!((e.predict(SimTime::ZERO) - 1250.0).abs() < 1e-9, "fixed point");
    }

    #[test]
    fn slots_are_independent() {
        let mut e = BandwidthEstimator::hourly();
        e.observe(SimTime::from_secs(2 * 3600), 111.0); // hour 2
        e.observe(SimTime::from_secs(9 * 3600), 999.0); // hour 9
        assert_eq!(e.predict(SimTime::from_secs(2 * 3600 + 60)), 111.0);
        assert_eq!(e.predict(SimTime::from_secs(9 * 3600 + 60)), 999.0);
        // Unobserved hour falls back to the global EWMA, not 1.0.
        let global = e.predict(SimTime::from_secs(15 * 3600));
        assert!(global > 111.0 && global < 999.0);
    }

    #[test]
    fn slots_wrap_across_days() {
        let mut e = BandwidthEstimator::hourly();
        e.observe(SimTime::from_secs(3 * 3600), 500.0);
        // Same hour the next day hits the same slot.
        assert_eq!(e.predict(SimTime::from_secs(27 * 3600)), 500.0);
    }

    #[test]
    fn converges_to_stationary_rate() {
        let mut e = BandwidthEstimator::new(24, 0.3);
        for day in 0..5u64 {
            for hour in 0..24u64 {
                let t = SimTime::from_secs(day * 86_400 + hour * 3600);
                e.observe(t, 300_000.0);
            }
        }
        for hour in 0..24u64 {
            let t = SimTime::from_secs(5 * 86_400 + hour * 3600);
            assert!((e.predict(t) - 300_000.0).abs() < 1.0);
        }
        assert_eq!(e.observations(), 120);
    }

    #[test]
    fn transfer_time_prediction_uses_saturation_law() {
        let e = BandwidthEstimator::new(1, 0.5).with_prior(1000.0);
        // 4 threads, κ=1.5 → effective 1000·4/5.5 ≈ 727 B/s.
        let secs = e.predict_transfer_secs(SimTime::ZERO, 7272, 4, 1.5);
        assert!((secs - 10.0).abs() < 0.05, "secs={secs}");
        // More threads → faster prediction.
        assert!(
            e.predict_transfer_secs(SimTime::ZERO, 7272, 8, 1.5) < secs
        );
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        BandwidthEstimator::new(24, 0.0);
    }
}
