//! The initial QRSM, trained once per seed.
//!
//! Sec. III-A-1 trains the processing-time model once, "based on a
//! standard set of production data", and every scheduler then reads that
//! model. The fit is a pure function of a handful of config fields — the
//! seed's `qrsm/training` stream, the ground truth, the corpus size, the
//! per-class switch and the fit method — collected in a [`TrainingKey`].
//! Runs that share a key (a sweep's scheduler × bucket configs of one seed)
//! therefore share one trained model: a one-entry, thread-local memo keeps
//! the last key's model and every engine set-up takes a clone of it.
//!
//! * Keys compare field by field, floats by bit pattern; never by hash.
//! * A miss drops the stale entry *before* training, so a thread never
//!   holds two trained models and the set-up's heap peak stays that of a
//!   memo-free fit.
//! * In debug builds every hit re-trains and asserts the cached model is
//!   bitwise the fresh one (`same_bits` in `cloudburst-qrsm`).
//!
//! A run is single-threaded, and a thread-local memo is only ever read by
//! the thread that runs the engine: runs on other threads (the bench
//! crate's shard pool) each keep their own entry, and no lock or ordering
//! between threads can reach a report.

use std::cell::RefCell;

use cloudburst_qrsm::{ClassedModel, QrsModel};
use cloudburst_sched::ProcTimeModel;
use cloudburst_sim::RngFactory;
use cloudburst_workload::arrival::training_corpus;
use cloudburst_workload::GroundTruth;

use crate::config::{ExperimentConfig, FitKind};

/// The smallest training corpus: `training_docs` below it is raised to it.
const MIN_TRAINING_DOCS: usize = 64;

/// Every input the training fit reads.
#[derive(Clone, Debug)]
struct TrainingKey {
    seed: u64,
    truth: GroundTruth,
    /// The effective corpus size, `training_docs.max(64)`.
    docs: usize,
    per_class: bool,
    fit: FitKind,
}

impl TrainingKey {
    /// The training inputs of `cfg`.
    fn of(cfg: &ExperimentConfig) -> TrainingKey {
        TrainingKey {
            seed: cfg.seed,
            truth: cfg.truth.clone(),
            docs: cfg.training_docs.max(MIN_TRAINING_DOCS),
            per_class: cfg.per_class_qrsm,
            fit: cfg.fit,
        }
    }

    /// Every ground-truth float, as bits. The destructuring names every
    /// field, so a new one fails to compile here instead of silently
    /// dropping out of the key.
    fn truth_bits(&self) -> [u64; 13] {
        let GroundTruth {
            base_secs,
            per_mb,
            per_page,
            per_image,
            per_mb2,
            color_res_per_mb,
            noise_sigma,
            class_factors,
        } = &self.truth;
        let mut bits = [0; 13];
        let scalars = [
            base_secs,
            per_mb,
            per_page,
            per_image,
            per_mb2,
            color_res_per_mb,
            noise_sigma,
        ];
        for (b, v) in bits
            .iter_mut()
            .zip(scalars.into_iter().chain(class_factors))
        {
            *b = v.to_bits();
        }
        bits
    }

    /// The fit method, its ridge penalty as bits.
    fn fit_bits(&self) -> (u8, u64) {
        match self.fit {
            FitKind::Ols => (0, 0),
            FitKind::Ridge(l) => (1, l.to_bits()),
            FitKind::Lad => (2, 0),
        }
    }
}

impl PartialEq for TrainingKey {
    fn eq(&self, other: &TrainingKey) -> bool {
        (self.seed, self.docs, self.per_class) == (other.seed, other.docs, other.per_class)
            && self.fit_bits() == other.fit_bits()
            && self.truth_bits() == other.truth_bits()
    }
}

/// The initial QRSM for `key`, before any observation: the corpus drawn
/// from the seed's `qrsm/training` stream, then the pooled (or per-class)
/// fit, refitting on every observation.
fn train(key: &TrainingKey) -> ProcTimeModel {
    let mut train_rng = RngFactory::new(key.seed).stream("qrsm/training");
    let corpus = training_corpus(&mut train_rng, &key.truth, key.docs);
    if key.per_class {
        let samples: Vec<(u64, Vec<f64>, f64)> = corpus
            .iter()
            .map(|(f, t)| (f.job_type.code() as u64, f.regressors(), *t))
            .collect();
        ProcTimeModel::PerClass(
            ClassedModel::fit(&samples, key.fit.to_method(), 60)
                .expect("training corpus must support a quadratic fit")
                .with_refit_every(1),
        )
    } else {
        // Sliding-window RLS makes refits O(terms³) instead of
        // O(window·terms²), so the model re-solves on every observation
        // instead of batching 25 of them — estimate error tracks drift
        // as tightly as the window allows.
        let xs: Vec<Vec<f64>> = corpus.iter().map(|(f, _)| f.regressors()).collect();
        let ys: Vec<f64> = corpus.iter().map(|(_, t)| *t).collect();
        ProcTimeModel::Pooled(
            QrsModel::fit(&xs, &ys, key.fit.to_method())
                .expect("training corpus must support a quadratic fit")
                .with_refit_every(1),
        )
    }
}

thread_local! {
    /// The last key trained on this thread and its untouched model.
    static MEMO: RefCell<Option<(TrainingKey, ProcTimeModel)>> = const { RefCell::new(None) };
}

/// The initial QRSM for `cfg`: a clone of the memoised model when the key
/// matches, else a fresh fit that replaces the memo entry.
pub(crate) fn trained_model(cfg: &ExperimentConfig) -> ProcTimeModel {
    memoised(TrainingKey::of(cfg)).0
}

/// [`trained_model`] by key, also saying whether the memo hit.
fn memoised(key: TrainingKey) -> (ProcTimeModel, bool) {
    MEMO.with_borrow_mut(|memo| {
        if let Some((cached, model)) = memo.as_ref() {
            if *cached == key {
                #[cfg(debug_assertions)]
                assert!(
                    same_bits(model, &train(&key)),
                    "memoised QRSM differs from a fresh fit of its key"
                );
                return (model.clone(), true);
            }
        }
        // Drop the stale model before training: never two at once.
        *memo = None;
        let model = train(&key);
        let run_model = model.clone();
        *memo = Some((key, model));
        (run_model, false)
    })
}

/// Bitwise equality of two trained models (same variant, same state).
#[cfg(debug_assertions)]
fn same_bits(a: &ProcTimeModel, b: &ProcTimeModel) -> bool {
    match (a, b) {
        (ProcTimeModel::Pooled(a), ProcTimeModel::Pooled(b)) => a.same_bits(b),
        (ProcTimeModel::PerClass(a), ProcTimeModel::PerClass(b)) => a.same_bits(b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use crate::engine::run_experiment;
    use cloudburst_workload::SizeBucket;

    fn cold_memo() {
        MEMO.with_borrow_mut(|memo| *memo = None);
    }

    fn memo_key() -> Option<TrainingKey> {
        MEMO.with_borrow(|memo| memo.as_ref().map(|(k, _)| k.clone()))
    }

    fn base() -> ExperimentConfig {
        ExperimentConfig::paper(SchedulerKind::OrderPreserving, SizeBucket::Uniform, 7)
    }

    /// Every ground-truth float, by mutable reference, in key order.
    fn truth_floats(t: &mut GroundTruth) -> Vec<&mut f64> {
        let GroundTruth {
            base_secs,
            per_mb,
            per_page,
            per_image,
            per_mb2,
            color_res_per_mb,
            noise_sigma,
            class_factors,
        } = t;
        let scalars = [
            base_secs,
            per_mb,
            per_page,
            per_image,
            per_mb2,
            color_res_per_mb,
            noise_sigma,
        ];
        scalars
            .into_iter()
            .chain(class_factors.iter_mut())
            .collect()
    }

    /// With the memo holding `held`'s key, `probe`'s set-up misses.
    fn assert_miss_after(held: &ExperimentConfig, probe: &ExperimentConfig, what: &str) {
        cold_memo();
        assert!(!memoised(TrainingKey::of(held)).1);
        assert!(
            memoised(TrainingKey::of(held)).1,
            "{what}: the same key must hit"
        );
        assert!(
            TrainingKey::of(held) != TrainingKey::of(probe),
            "{what}: keys must differ"
        );
        assert!(!memoised(TrainingKey::of(probe)).1, "{what}: must miss");
        assert_eq!(
            memo_key(),
            Some(TrainingKey::of(probe)),
            "{what}: the miss replaces the entry"
        );
    }

    #[test]
    fn changing_any_one_key_field_forces_a_miss() {
        let cfg = base();
        assert_miss_after(
            &cfg,
            &ExperimentConfig {
                seed: 8,
                ..cfg.clone()
            },
            "seed",
        );
        for i in 0..13 {
            let mut probe = cfg.clone();
            let f = truth_floats(&mut probe.truth).swap_remove(i);
            *f = f.next_up();
            assert_miss_after(&cfg, &probe, &format!("truth float {i} one ulp up"));
        }
        let signed = |z: f64| {
            let mut c = cfg.clone();
            c.truth.per_mb2 = z;
            c
        };
        assert_miss_after(&signed(0.0), &signed(-0.0), "per_mb2 0.0 vs -0.0");
        let docs = |n| ExperimentConfig {
            training_docs: n,
            ..cfg.clone()
        };
        assert_miss_after(&docs(64), &docs(65), "training_docs 64 vs 65");
        let classed = ExperimentConfig {
            per_class_qrsm: true,
            ..cfg.clone()
        };
        assert_miss_after(&cfg, &classed, "per_class_qrsm");
        let fit = |fit| ExperimentConfig { fit, ..cfg.clone() };
        assert_miss_after(&cfg, &fit(FitKind::Ridge(0.5)), "fit Ols vs Ridge");
        assert_miss_after(
            &fit(FitKind::Ridge(0.5)),
            &fit(FitKind::Ridge(0.25)),
            "ridge penalty",
        );
        assert_miss_after(
            &fit(FitKind::Ridge(0.0)),
            &fit(FitKind::Ridge(-0.0)),
            "ridge 0.0 vs -0.0",
        );
        assert_miss_after(&cfg, &fit(FitKind::Lad), "fit Ols vs Lad");
    }

    #[test]
    fn corpus_sizes_below_the_floor_share_one_entry() {
        let docs = |n| {
            TrainingKey::of(&ExperimentConfig {
                training_docs: n,
                ..base()
            })
        };
        cold_memo();
        assert!(!memoised(docs(0)).1);
        assert!(memoised(docs(10)).1, "10 docs train on 64");
        assert!(memoised(docs(64)).1, "64 docs is the effective count of 0");
        assert!(!memoised(docs(65)).1);
    }

    #[test]
    fn a_hit_is_bitwise_a_fresh_fit_pooled_and_per_class() {
        for per_class in [false, true] {
            let cfg = ExperimentConfig {
                per_class_qrsm: per_class,
                truth: GroundTruth::class_varied(),
                ..base()
            };
            let key = TrainingKey::of(&cfg);
            cold_memo();
            assert!(!memoised(key.clone()).1);
            let (hit, was_hit) = memoised(key.clone());
            assert!(was_hit);
            let fresh = train(&key);
            match &hit {
                ProcTimeModel::PerClass(m) => {
                    assert!(
                        per_class && !m.specialized_classes().is_empty(),
                        "classes specialize"
                    )
                }
                ProcTimeModel::Pooled(_) => assert!(!per_class),
            }
            // `{:?}` prints every field, each float round-trip exact.
            assert_eq!(
                format!("{hit:?}"),
                format!("{fresh:?}"),
                "per_class {per_class}"
            );
            #[cfg(debug_assertions)]
            assert!(same_bits(&hit, &fresh), "per_class {per_class}");
        }
    }

    #[test]
    fn a_run_on_a_hit_reports_the_bytes_of_a_cold_run() {
        let small = |kind, per_class| {
            let mut cfg = ExperimentConfig::paper(kind, SizeBucket::LargeBiased, 11);
            cfg.arrivals.n_batches = 2;
            cfg.per_class_qrsm = per_class;
            cfg
        };
        for per_class in [false, true] {
            let first = small(SchedulerKind::Greedy, per_class);
            let second = small(SchedulerKind::Sibs, per_class);
            let json = |cfg: &ExperimentConfig| {
                serde_json::to_string(&run_experiment(cfg)).expect("reports serialize")
            };
            cold_memo();
            let cold = json(&second);
            cold_memo();
            json(&first);
            assert_eq!(
                memo_key(),
                Some(TrainingKey::of(&second)),
                "the next set-up hits"
            );
            assert_eq!(json(&second), cold, "per_class {per_class}");
        }
    }
}
