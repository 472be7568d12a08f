//! Per-class response-surface models.
//!
//! The paper's conclusion names "the extension of the scheduler techniques
//! … to multiple job classes" as the step that generalizes cloud bursting
//! beyond one workload. Different job classes (newspaper rasterization vs
//! image personalization) run genuinely different pipelines, and the class
//! label is categorical — it does not belong in a quadratic polynomial.
//! A [`ClassedModel`] therefore keeps one [`QrsModel`] per class with
//! enough training data, falling back to a pooled model for rare classes,
//! and keeps both tuned online.
//!
//! Every constituent [`QrsModel`] owns its sliding-window ring storage and
//! its refit scratch (Cholesky workspace + solve buffer), allocated once at
//! fit time — so routing observations through a [`ClassedModel`] stays
//! allocation-free per observe and `O(terms²)`/`O(terms³)` per up-date/refit
//! regardless of how many class specializations exist.

use std::collections::BTreeMap;

use crate::fit::{FitError, Method};
use crate::model::QrsModel;

/// One observation: class key, raw features, response.
pub type ClassedSample = (u64, Vec<f64>, f64);

/// A pooled model plus per-class specializations.
#[derive(Clone, Debug)]
pub struct ClassedModel {
    pooled: QrsModel,
    per_class: BTreeMap<u64, QrsModel>,
    min_samples: usize,
}

impl ClassedModel {
    /// Fits from classed samples. Classes with at least `min_samples`
    /// observations get their own model; everything trains the pooled
    /// fallback. `min_samples` is floored at twice the basis size so
    /// per-class fits are never degenerate.
    pub fn fit(
        samples: &[ClassedSample],
        method: Method,
        min_samples: usize,
    ) -> Result<ClassedModel, FitError> {
        if samples.is_empty() {
            return Err(FitError::TooFewObservations);
        }
        let xs: Vec<Vec<f64>> = samples.iter().map(|(_, x, _)| x.clone()).collect();
        let ys: Vec<f64> = samples.iter().map(|(_, _, y)| *y).collect();
        let pooled = QrsModel::fit(&xs, &ys, method)?;
        let floor = 2 * pooled.design().n_terms();
        let min_samples = min_samples.max(floor);

        let mut by_class: BTreeMap<u64, (Vec<Vec<f64>>, Vec<f64>)> = BTreeMap::new();
        for (c, x, y) in samples {
            let e = by_class.entry(*c).or_default();
            e.0.push(x.clone());
            e.1.push(*y);
        }
        let mut per_class = BTreeMap::new();
        for (c, (cx, cy)) in by_class {
            if cx.len() >= min_samples {
                // A class fit can still be singular (degenerate feature
                // spread); such classes stay on the pooled fallback.
                if let Ok(m) = QrsModel::fit(&cx, &cy, method) {
                    per_class.insert(c, m);
                }
            }
        }
        Ok(ClassedModel { pooled, per_class, min_samples })
    }

    /// Sets the auto-refit interval on the pooled model and every class
    /// specialization (see [`QrsModel::with_refit_every`]).
    pub fn with_refit_every(mut self, every: usize) -> ClassedModel {
        self.pooled = self.pooled.with_refit_every(every);
        for m in self.per_class.values_mut() {
            let tuned = m.clone().with_refit_every(every);
            *m = tuned;
        }
        self
    }

    /// Predicts for a job of class `class`; specializes when a class model
    /// exists, else uses the pooled fit.
    pub fn predict(&self, class: u64, x: &[f64]) -> f64 {
        self.model_for(class).predict(x)
    }

    /// Conservative prediction (see [`QrsModel::predict_upper`]).
    pub fn predict_upper(&self, class: u64, x: &[f64], k: f64) -> f64 {
        self.model_for(class).predict_upper(x, k)
    }

    /// Training RMSE of the model that would serve this class.
    pub fn rmse_for(&self, class: u64) -> f64 {
        self.model_for(class).rmse()
    }

    /// Routes an observation to the class model (if any) and the pooled
    /// fallback; both refit on their own schedules.
    pub fn observe(&mut self, class: u64, x: &[f64], y: f64) {
        if let Some(m) = self.per_class.get_mut(&class) {
            m.observe(x, y);
        }
        self.pooled.observe(x, y);
    }

    /// Routes an observation like [`ClassedModel::observe`] but defers the
    /// refits to the next [`ClassedModel::flush_refits`] — the rank-1
    /// window updates land now, the coefficient solves run once at the
    /// barrier where predictions are next read (see
    /// [`QrsModel::observe_queued`] for why the result is bitwise
    /// identical to eager per-observation refits at that point).
    pub fn observe_queued(&mut self, class: u64, x: &[f64], y: f64) {
        if let Some(m) = self.per_class.get_mut(&class) {
            m.observe_queued(x, y);
        }
        self.pooled.observe_queued(x, y);
    }

    /// Flushes pending refits on the pooled model and every class
    /// specialization. Cheap when nothing is pending (one branch per
    /// model). Returns `true` if any refit ran.
    pub fn flush_refits(&mut self) -> bool {
        let mut any = false;
        for m in self.per_class.values_mut() {
            any |= m.flush_refit();
        }
        any | self.pooled.flush_refit()
    }

    /// The classes with specialized models.
    pub fn specialized_classes(&self) -> Vec<u64> {
        let mut c: Vec<u64> = self.per_class.keys().copied().collect();
        c.sort_unstable();
        c
    }

    /// The pooled fallback model.
    pub fn pooled(&self) -> &QrsModel {
        &self.pooled
    }

    /// The per-class sample threshold in effect.
    pub fn min_samples(&self) -> usize {
        self.min_samples
    }

    fn model_for(&self, class: u64) -> &QrsModel {
        self.per_class.get(&class).unwrap_or(&self.pooled)
    }

    /// Whether `other` has the same threshold, the same specialized
    /// classes, and bitwise the same pooled and per-class models (see
    /// [`QrsModel::same_bits`]). Test and debug builds only.
    #[cfg(any(test, debug_assertions))]
    pub fn same_bits(&self, other: &ClassedModel) -> bool {
        self.min_samples == other.min_samples
            && self.pooled.same_bits(&other.pooled)
            && self.per_class.len() == other.per_class.len()
            && self
                .per_class
                .iter()
                .zip(&other.per_class)
                .all(|((ca, a), (cb, b))| ca == cb && a.same_bits(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Class 0: y = 10 + x; class 1: y = 2·(10 + x). The class is not a
    /// regressor, so a pooled model averages the two regimes.
    fn two_regime_samples(n_per_class: usize) -> Vec<ClassedSample> {
        let mut s = Vec::new();
        for i in 0..n_per_class {
            let x = (i % 23) as f64 + 0.5 * ((i * 7) % 5) as f64;
            s.push((0, vec![x], 10.0 + x));
            s.push((1, vec![x], 2.0 * (10.0 + x)));
        }
        s
    }

    #[test]
    fn per_class_models_separate_regimes() {
        let samples = two_regime_samples(40);
        let m = ClassedModel::fit(&samples, Method::Ols, 8)
            .expect("two-regime corpus is full rank");
        assert_eq!(m.specialized_classes(), vec![0, 1]);
        let x = [7.0];
        assert!((m.predict(0, &x) - 17.0).abs() < 1e-6);
        assert!((m.predict(1, &x) - 34.0).abs() < 1e-6);
        // The pooled model splits the difference — and an unknown class
        // falls back to it.
        let fallback = m.predict(99, &x);
        assert!(fallback > 17.0 + 2.0 && fallback < 34.0 - 2.0, "fallback={fallback}");
    }

    #[test]
    fn rare_classes_fall_back_to_pooled() {
        let mut samples = two_regime_samples(40);
        // Class 7 has only three observations.
        samples.push((7, vec![1.0], 100.0));
        samples.push((7, vec![2.0], 110.0));
        samples.push((7, vec![3.0], 120.0));
        let m = ClassedModel::fit(&samples, Method::Ols, 8)
            .expect("two-regime corpus is full rank");
        assert!(!m.specialized_classes().contains(&7));
        assert_eq!(m.predict(7, &[5.0]), m.pooled().predict(&[5.0]));
    }

    #[test]
    fn min_samples_is_floored_at_twice_basis() {
        let samples = two_regime_samples(40);
        let m = ClassedModel::fit(&samples, Method::Ols, 0)
            .expect("two-regime corpus is full rank");
        // 1 raw feature → 3 basis terms → floor 6.
        assert_eq!(m.min_samples(), 6);
    }

    #[test]
    fn same_bits_covers_the_pooled_model_and_every_class() {
        let samples = two_regime_samples(40);
        let fit = |min| ClassedModel::fit(&samples, Method::Ols, min).expect("full rank");
        let m = fit(8);
        assert!(m.same_bits(&fit(8)));
        assert!(!m.same_bits(&fit(60)), "different specializations");
        let mut class_only = m.clone();
        class_only.per_class.get_mut(&1).expect("class 1 is specialized").observe(&[7.0], 1.0);
        assert!(!m.same_bits(&class_only), "a per-class window is compared");
        let mut pooled_only = m.clone();
        pooled_only.pooled.observe(&[7.0], 1.0);
        assert!(!m.same_bits(&pooled_only), "the pooled window is compared");
    }

    #[test]
    fn observe_routes_to_class_and_pooled() {
        let samples = two_regime_samples(40);
        let mut m = ClassedModel::fit(&samples, Method::Ols, 8)
            .expect("two-regime corpus is full rank");
        let before = m.predict(0, &[7.0]);
        // Feed a shifted regime into class 0 until its window refits.
        for i in 0..120 {
            let x = (i % 23) as f64;
            m.observe(0, &[x], 3.0 * (10.0 + x));
        }
        let after = m.predict(0, &[7.0]);
        assert!(after > before * 1.5, "class 0 should adapt: {before} → {after}");
        // Class 1 keeps its own regime.
        assert!((m.predict(1, &[7.0]) - 34.0).abs() < 5.0);
    }

    #[test]
    fn empty_fit_is_rejected() {
        assert!(ClassedModel::fit(&[], Method::Ols, 8).is_err());
    }

    #[test]
    fn wrong_arity_sample_is_rejected() {
        let mut samples = two_regime_samples(40);
        samples[11].1 = vec![1.0, 2.0];
        assert_eq!(
            ClassedModel::fit(&samples, Method::Ols, 8).unwrap_err(),
            FitError::DimensionMismatch
        );
    }

    #[test]
    fn queued_flush_matches_eager_routing_bitwise() {
        let samples = two_regime_samples(40);
        let fresh = || {
            ClassedModel::fit(&samples, Method::Ols, 8)
                .expect("two-regime corpus is full rank")
                .with_refit_every(1)
        };
        let mut eager = fresh();
        let mut deferred = fresh();
        for round in 0..20u64 {
            for i in 0..(1 + round % 5) {
                let class = (round + i) % 3; // classes 0, 1 specialized; 2 pooled-only
                let x = [((round * 3 + i) % 23) as f64];
                let y = (class + 1) as f64 * (10.0 + x[0]) + (i % 2) as f64;
                eager.observe(class, &x, y);
                deferred.observe_queued(class, &x, y);
            }
            assert!(deferred.flush_refits());
            assert!(!deferred.flush_refits(), "second flush must be a no-op");
            for class in [0u64, 1, 2, 99] {
                assert_eq!(
                    deferred.predict(class, &[7.0]).to_bits(),
                    eager.predict(class, &[7.0]).to_bits(),
                    "class {class} prediction bytes diverged at round {round}"
                );
                assert_eq!(
                    deferred.rmse_for(class).to_bits(),
                    eager.rmse_for(class).to_bits(),
                );
            }
        }
    }

    #[test]
    fn rmse_for_reports_the_serving_model() {
        let samples = two_regime_samples(40);
        let m = ClassedModel::fit(&samples, Method::Ols, 8)
            .expect("two-regime corpus is full rank");
        // Exact per-class fits → tiny RMSE; pooled straddles both regimes.
        assert!(m.rmse_for(0) < 1e-6);
        assert!(m.rmse_for(99) > 1.0, "pooled rmse {}", m.rmse_for(99));
    }
}
