//! Depth-flat FCFS drain: fluid prefix, exact tail window.
//!
//! [`FreeTimeIndex`](crate::FreeTimeIndex) made one drain *commit* cheap
//! (`O(log machines)`), but a decision still replayed the whole queue —
//! `O(queue × log machines)` — so decision throughput fell linearly with
//! backlog. An *exact* incremental drain cannot exist under the engine's
//! semantics: the per-machine bases shift every decision as `now` advances
//! (and f64 drain arithmetic does not commute with that shift), and a
//! mid-queue removal re-routes every later job's argmin assignment. What
//! can be flat is a *hybrid*:
//!
//! * the first `queue − DRAIN_WINDOW` jobs — work so far ahead that its
//!   machine-level granularity cannot matter to any decision — drain as a
//!   **fluid**: their total estimated cost (an integer-tick aggregate the
//!   [`Cloud`](../../cloudburst_cluster/struct.Cloud.html) maintains in
//!   O(1) per queue mutation) water-fills the live machines up to one
//!   common level λ;
//! * the last [`DRAIN_WINDOW`] jobs replay **exactly** as before, on top
//!   of the filled bases, through the tournament index.
//!
//! At or below the window the hybrid *is* the original full replay,
//! bit for bit — every paper-scale run, golden fixture, and repro
//! experiment is untouched. Beyond it, one decision costs
//! `O(machines log machines + DRAIN_WINDOW log machines)`, independent of
//! queue depth.
//!
//! λ is also the Eq. 1 anchor re-base: the push-out slack anchor
//! `ahead_max` of the whole (depth-unbounded) prefix collapses into the
//! single scalar `max(live base max, λ)`, so the anchor moving is an O(1)
//! re-base instead of a re-key of every queued entry.
//!
//! **Determinism.** The fill sorts base *values* via `f64::total_cmp`
//! (free-times are never NaN, and equal values contribute identically to
//! the prefix sums regardless of tie order), and the level itself is the
//! pure left-to-right fold [`fluid_fill_level`] — shared verbatim by the
//! engine's production path and its `#[cfg(test)]` rescan oracles so the
//! two cannot drift.

/// Number of queue-tail jobs the hybrid drain replays exactly. Sized an
/// order of magnitude above every paper-scale scenario (≈ 15–60 jobs per
/// batch over 7 batches, ≲ 450 queued even with chunking), so behaviour
/// below megascale is bit-identical to the pre-windowed engine.
pub const DRAIN_WINDOW: usize = 512;

/// The water-fill level λ: the smallest level with
/// `Σ_i max(0, λ − base_i) = total_secs` over `sorted_bases` (ascending).
/// Pure left-to-right fold — one shared arithmetic sequence for the
/// production fill and the rescan oracles. `sorted_bases` must be
/// non-empty, sorted, and NaN-free.
#[inline]
pub fn fluid_fill_level(sorted_bases: &[f64], total_secs: f64) -> f64 {
    debug_assert!(!sorted_bases.is_empty(), "water-fill needs a live machine");
    let n = sorted_bases.len();
    let mut prefix = 0.0f64;
    let mut k = 0;
    loop {
        debug_assert!(k == 0 || sorted_bases[k - 1] <= sorted_bases[k], "bases must be sorted");
        prefix += sorted_bases[k];
        // Level if exactly machines 0..=k fill: valid once it no longer
        // spills over the next base (or there is no next base).
        let level = (total_secs + prefix) / (k + 1) as f64;
        if k + 1 == n || level <= sorted_bases[k + 1] {
            return level;
        }
        k += 1;
    }
}

/// Reusable scratch for the fluid prefix fill — persistent on the engine
/// world so steady-state decisions stay allocation-free once warm.
#[derive(Clone, Debug, Default)]
pub struct FluidScratch {
    /// Live base values, sorted ascending for the level sweep.
    bases: Vec<f64>,
}

impl FluidScratch {
    /// An empty scratch.
    pub fn new() -> FluidScratch {
        FluidScratch::default()
    }

    /// Water-fills `total_secs` of fluid work onto the live entries of
    /// `free` (those `< dead_threshold`): every live entry below the
    /// resulting level λ is raised to exactly λ; entries at or above λ,
    /// and dead sentinels, are untouched. Returns `Some(λ)`, or `None` —
    /// with `free` unmodified — when no live entry exists (the caller
    /// falls back to the exact replay). `O(live log live)` from the sort;
    /// allocation-free once the scratch has warmed to the pool size.
    ///
    /// A pathological `total_secs` can push λ past `dead_threshold`, at
    /// which point filled machines read as dead to live-max filters —
    /// conservative (no cushion is claimed from them), never unsound.
    // conform::hot_root
    pub fn fill(&mut self, free: &mut [f64], total_secs: f64, dead_threshold: f64) -> Option<f64> {
        self.bases.clear();
        self.bases.extend(free.iter().copied().filter(|v| *v < dead_threshold));
        if self.bases.is_empty() {
            return None;
        }
        self.bases.sort_unstable_by(f64::total_cmp);
        let level = fluid_fill_level(&self.bases, total_secs);
        for v in free.iter_mut() {
            if *v < dead_threshold && *v < level {
                *v = level;
            }
        }
        Some(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bisection reference for the water-fill level.
    fn level_by_bisection(bases: &[f64], total: f64) -> f64 {
        let poured = |level: f64| -> f64 {
            bases.iter().map(|b| (level - b).max(0.0)).sum()
        };
        let (mut lo, mut hi) = (bases[0], bases[bases.len() - 1] + total + 1.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if poured(mid) < total {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn level_matches_hand_cases() {
        // One machine: all fluid lands on it.
        assert_eq!(fluid_fill_level(&[3.0], 5.0), 8.0);
        // Fill the low machine up to the next base, then share.
        assert_eq!(fluid_fill_level(&[0.0, 10.0], 1.0), 1.0);
        assert_eq!(fluid_fill_level(&[0.0, 1.0], 5.0), 3.0);
        // Zero fluid: the level sits at the lowest base (a no-op fill).
        assert_eq!(fluid_fill_level(&[2.0, 7.0], 0.0), 2.0);
        assert_eq!(fluid_fill_level(&[2.0, 2.0], 0.0), 2.0);
    }

    #[test]
    fn fill_raises_only_live_entries_below_level() {
        const DEAD: f64 = 1e9;
        let mut free = vec![1.0, DEAD, 4.0, 0.0];
        let mut fs = FluidScratch::new();
        let level = fs.fill(&mut free, 7.0, DEAD).expect("live machines exist");
        assert_eq!(level, 4.0);
        assert_eq!(free, vec![4.0, DEAD, 4.0, 4.0]);
        // Entries above the level are untouched.
        let mut free2 = vec![0.0, 9.0];
        let l2 = fs.fill(&mut free2, 2.0, DEAD).unwrap();
        assert_eq!(l2, 2.0);
        assert_eq!(free2, vec![2.0, 9.0]);
    }

    #[test]
    fn fill_with_no_live_machines_is_none_and_untouched() {
        const DEAD: f64 = 1e9;
        let mut free = vec![DEAD, DEAD];
        assert_eq!(FluidScratch::new().fill(&mut free, 100.0, DEAD), None);
        assert_eq!(free, vec![DEAD, DEAD]);
    }

    #[test]
    fn fill_is_deterministic_bitwise() {
        const DEAD: f64 = 1e9;
        let base = vec![0.3, 1.7, DEAD, 0.3, 22.1, 5.5];
        let mut a = base.clone();
        let mut b = base.clone();
        let la = FluidScratch::new().fill(&mut a, 123.456, DEAD);
        let lb = FluidScratch::new().fill(&mut b, 123.456, DEAD);
        assert_eq!(la.map(f64::to_bits), lb.map(f64::to_bits));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    proptest! {
        #[test]
        fn level_conserves_fluid_and_matches_bisection(
            mut bases in proptest::collection::vec(0.0f64..1000.0, 1..40),
            total in 0.0f64..10_000.0,
        ) {
            bases.sort_unstable_by(f64::total_cmp);
            let level = fluid_fill_level(&bases, total);
            // Conservation: the poured volume equals the total.
            let poured: f64 = bases.iter().map(|b| (level - b).max(0.0)).sum();
            prop_assert!((poured - total).abs() <= 1e-6 * total.max(1.0),
                "poured {poured} vs total {total}");
            // And the closed form agrees with a bisection solve.
            let reference = level_by_bisection(&bases, total);
            prop_assert!((level - reference).abs() <= 1e-6 * level.abs().max(1.0),
                "level {level} vs bisection {reference}");
            // The level never sits below the lowest base.
            prop_assert!(level >= bases[0]);
        }
    }
}
