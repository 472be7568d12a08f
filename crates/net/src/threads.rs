//! Hill-climbing thread-count tuner (Fig. 4(b)).
//!
//! "The process varies the number of download/upload threads and converges
//! upon the optimum number of threads to be used for that time-period"
//! (Sec. V-A). Throughput gains from extra threads are concave
//! (`k/(k+κ)`) while each thread carries fixed overhead (connection setup,
//! scheduling, memory), so the net utility peaks at a finite `k` that moves
//! with the offered bandwidth. The tuner hill-climbs on measured throughput
//! minus the overhead penalty, one probe per adjustment epoch, per
//! time-of-day slot.

use serde::{Deserialize, Serialize};

use cloudburst_sim::SimTime;

/// Per-time-slot thread-count tuner.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThreadTuner {
    /// Current best-known thread count per slot.
    best: Vec<u32>,
    /// Best observed utility per slot (`None` until first measurement).
    utility: Vec<Option<f64>>,
    /// Direction of the next probe per slot: +1 or −1.
    direction: Vec<i32>,
    /// Pending probe (slot, candidate) awaiting its measurement.
    pending: Option<(usize, u32)>,
    /// Slot length in seconds.
    slot_secs: f64,
    /// Bounds on the thread count.
    min_threads: u32,
    max_threads: u32,
    /// Per-thread overhead subtracted from measured throughput (bytes/sec
    /// equivalent) — makes the utility peak interior.
    per_thread_cost_bps: f64,
}

impl ThreadTuner {
    /// Creates a tuner with `n_slots` per day and the given bounds.
    pub fn new(n_slots: usize, min_threads: u32, max_threads: u32, per_thread_cost_bps: f64) -> Self {
        assert!(n_slots >= 1 && min_threads >= 1 && max_threads >= min_threads);
        let start = (min_threads + max_threads) / 2;
        ThreadTuner {
            best: vec![start; n_slots],
            utility: vec![None; n_slots],
            direction: vec![1; n_slots],
            pending: None,
            slot_secs: 86_400.0 / n_slots as f64,
            min_threads,
            max_threads,
            per_thread_cost_bps,
        }
    }

    /// Default: hourly slots, 1–32 threads, 4 KB/s-equivalent cost per thread.
    pub fn hourly() -> ThreadTuner {
        ThreadTuner::new(24, 1, 32, 4_000.0)
    }

    fn slot_of(&self, t: SimTime) -> usize {
        ((t.as_secs_f64() / self.slot_secs) as usize) % self.best.len()
    }

    /// The thread count to use for a transfer starting at `t`. If a probe is
    /// due for this slot, returns the probe candidate (one step off the
    /// current best) and remembers it for [`ThreadTuner::report`].
    pub fn threads_for(&mut self, t: SimTime) -> u32 {
        let s = self.slot_of(t);
        if self.pending.is_some() {
            return self.best[s];
        }
        let cand = (self.best[s] as i64 + self.direction[s] as i64)
            .clamp(self.min_threads as i64, self.max_threads as i64) as u32;
        if cand == self.best[s] {
            // At a bound; flip and try the other way next time.
            self.direction[s] = -self.direction[s];
            return self.best[s];
        }
        self.pending = Some((s, cand));
        cand
    }

    /// Current best thread count for the slot containing `t`, without
    /// probing.
    pub fn current_best(&self, t: SimTime) -> u32 {
        self.best[self.slot_of(t)]
    }

    /// Reports the measured aggregate throughput (bytes/sec) achieved by a
    /// transfer that used `threads` streams in the slot containing `t`.
    /// Updates the hill-climbing state.
    pub fn report(&mut self, t: SimTime, threads: u32, measured_bps: f64) {
        let s = self.slot_of(t);
        let u = measured_bps - self.per_thread_cost_bps * threads as f64;
        match self.pending {
            Some((ps, cand)) if ps == s && cand == threads => {
                self.pending = None;
                match self.utility[s] {
                    Some(best_u) if u <= best_u => {
                        // Probe failed: reverse direction for the next probe,
                        // and blend the remembered utility toward the fresh
                        // measurement so a shifted optimum (bandwidth
                        // changed) can still be re-found.
                        self.direction[s] = -self.direction[s];
                        self.utility[s] = Some(0.9 * best_u + 0.1 * u);
                    }
                    _ => {
                        self.best[s] = cand;
                        self.utility[s] = Some(u);
                    }
                }
            }
            _ => {
                // A regular (non-probe) measurement at the current best:
                // refresh its utility.
                if threads == self.best[s] {
                    self.utility[s] = Some(match self.utility[s] {
                        None => u,
                        Some(prev) => 0.5 * u + 0.5 * prev,
                    });
                }
            }
        }
    }
}

/// The analytically optimal thread count for raw capacity `b_bps` under the
/// saturation law `b·k/(k+κ)` minus `cost · k`: maximize over integer `k`.
/// Used by tests and by the Fig. 4(b) experiment as ground truth.
pub fn optimal_threads(b_bps: f64, kappa: f64, cost_bps: f64, max_threads: u32) -> u32 {
    let mut best_k = 1;
    let mut best_u = f64::NEG_INFINITY;
    for k in 1..=max_threads {
        let u = b_bps * k as f64 / (k as f64 + kappa) - cost_bps * k as f64;
        if u > best_u {
            best_u = u;
            best_k = k;
        }
    }
    best_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;

    #[test]
    fn optimal_grows_with_bandwidth() {
        let k_slow = optimal_threads(50_000.0, 1.5, 4_000.0, 32);
        let k_fast = optimal_threads(500_000.0, 1.5, 4_000.0, 32);
        assert!(k_fast > k_slow, "{k_fast} vs {k_slow}");
        assert!(k_slow >= 1);
        assert!(k_fast <= 32);
    }

    #[test]
    fn tuner_converges_to_analytic_optimum() {
        let b = 250_000.0;
        let kappa = 1.5;
        let cost = 4_000.0;
        let target = optimal_threads(b, kappa, cost, 32);
        let mut tuner = ThreadTuner::new(1, 1, 32, cost);
        let t = SimTime::ZERO;
        for _ in 0..200 {
            let k = tuner.threads_for(t);
            let measured = Link::effective_rate(b, k, kappa);
            tuner.report(t, k, measured);
        }
        let got = tuner.current_best(t);
        assert!(
            (got as i64 - target as i64).abs() <= 1,
            "tuner got {got}, analytic optimum {target}"
        );
    }

    #[test]
    fn tuner_tracks_bandwidth_change() {
        let kappa = 1.5;
        let cost = 4_000.0;
        let mut tuner = ThreadTuner::new(1, 1, 32, cost);
        let t = SimTime::ZERO;
        for _ in 0..200 {
            let k = tuner.threads_for(t);
            tuner.report(t, k, Link::effective_rate(400_000.0, k, kappa));
        }
        let high = tuner.current_best(t);
        for _ in 0..400 {
            let k = tuner.threads_for(t);
            tuner.report(t, k, Link::effective_rate(40_000.0, k, kappa));
        }
        let low = tuner.current_best(t);
        assert!(low < high, "fewer threads pay off on a slow pipe: {low} vs {high}");
    }

    #[test]
    fn slots_are_tuned_independently() {
        let mut tuner = ThreadTuner::new(24, 1, 32, 4_000.0);
        let morning = SimTime::from_secs(8 * 3600);
        let night = SimTime::from_secs(23 * 3600);
        for _ in 0..200 {
            let k = tuner.threads_for(morning);
            tuner.report(morning, k, Link::effective_rate(500_000.0, k, 1.5));
            let k = tuner.threads_for(night);
            tuner.report(night, k, Link::effective_rate(30_000.0, k, 1.5));
        }
        assert!(tuner.current_best(morning) > tuner.current_best(night));
        assert_eq!(tuner.best.len(), 24);
        assert_eq!(tuner.best[8], tuner.current_best(morning));
    }

    #[test]
    fn bounds_are_respected() {
        let mut tuner = ThreadTuner::new(1, 2, 4, 0.0);
        let t = SimTime::ZERO;
        for _ in 0..100 {
            let k = tuner.threads_for(t);
            assert!((2..=4).contains(&k));
            tuner.report(t, k, Link::effective_rate(1e9, k, 1.5));
        }
        // Unbounded utility growth pushes to the max.
        assert_eq!(tuner.current_best(t), 4);
    }
}
