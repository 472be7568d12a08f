//! The estimate provider: every quantity a scheduler is allowed to see.
//!
//! Bundles the QRSM processing-time model (Sec. III-A-1) with the upload and
//! download bandwidth predictors and thread tuners (Sec. III-A-2). The
//! engine updates it from observations (completed executions feed the QRSM
//! window; completed transfers feed the EWMAs); schedulers query it.

use cloudburst_net::link::DEFAULT_KAPPA;
use cloudburst_net::{BandwidthEstimator, ThreadTuner};
use cloudburst_qrsm::{ClassedModel, QrsModel};
use cloudburst_sim::SimTime;
use cloudburst_workload::Job;

/// The processing-time model behind the provider: one pooled QRSM, or the
/// multi-job-class extension (per-class models with a pooled fallback).
#[derive(Clone, Debug)]
pub enum ProcTimeModel {
    /// A single response surface for all classes (the paper's evaluation).
    Pooled(QrsModel),
    /// Per-class specializations (conclusion / future work).
    PerClass(ClassedModel),
}

impl ProcTimeModel {
    /// Predicted standard-machine seconds for a job of `class`.
    pub fn predict(&self, class: u64, x: &[f64]) -> f64 {
        match self {
            ProcTimeModel::Pooled(m) => m.predict(x),
            ProcTimeModel::PerClass(m) => m.predict(class, x),
        }
    }

    /// Routes an observed `(class, features, seconds)` into the model(s),
    /// deferring the coefficient refit to the next
    /// [`ProcTimeModel::flush_refits`]. The sliding-window rank-1 update
    /// lands immediately; the `O(terms³)` solve runs once at the barrier
    /// where predictions are next read, bitwise identical to eager
    /// per-observation refits at that point (see `QrsModel::observe_queued`).
    pub fn observe_queued(&mut self, class: u64, x: &[f64], y: f64) {
        match self {
            ProcTimeModel::Pooled(m) => m.observe_queued(x, y),
            ProcTimeModel::PerClass(m) => m.observe_queued(class, x, y),
        }
    }

    /// Flushes any refits deferred by [`ProcTimeModel::observe_queued`].
    /// One branch when nothing is pending. Returns `true` if a refit ran.
    pub fn flush_refits(&mut self) -> bool {
        match self {
            ProcTimeModel::Pooled(m) => m.flush_refit(),
            ProcTimeModel::PerClass(m) => m.flush_refits(),
        }
    }

    /// Training RMSE of the model that serves `class` (ticket margins).
    pub fn rmse_for(&self, class: u64) -> f64 {
        match self {
            ProcTimeModel::Pooled(m) => m.rmse(),
            ProcTimeModel::PerClass(m) => m.rmse_for(class),
        }
    }
}

/// Scheduler-visible estimation models.
#[derive(Clone, Debug)]
pub struct EstimateProvider {
    /// Processing-time response surface (standard-machine seconds).
    pub qrsm: ProcTimeModel,
    /// Upload-direction bandwidth predictor.
    pub up: BandwidthEstimator,
    /// Download-direction bandwidth predictor.
    pub down: BandwidthEstimator,
    /// Upload thread tuner.
    pub up_tuner: ThreadTuner,
    /// Download thread tuner.
    pub down_tuner: ThreadTuner,
    /// Thread-saturation constant of the pipe model.
    pub kappa: f64,
    /// Assumed output/input size ratio for jobs that have not run yet (the
    /// true output size is only known at completion).
    pub output_ratio: f64,
}

impl EstimateProvider {
    /// Builds a provider around a trained pooled QRSM with paper-style
    /// defaults.
    pub fn new(qrsm: QrsModel) -> EstimateProvider {
        Self::with_model(ProcTimeModel::Pooled(qrsm))
    }

    /// Builds a provider around any processing-time model.
    pub fn with_model(qrsm: ProcTimeModel) -> EstimateProvider {
        EstimateProvider {
            qrsm,
            up: BandwidthEstimator::hourly(),
            down: BandwidthEstimator::hourly(),
            up_tuner: ThreadTuner::hourly(),
            down_tuner: ThreadTuner::hourly(),
            kappa: DEFAULT_KAPPA,
            output_ratio: 0.5,
        }
    }

    /// Seeds both bandwidth predictors with a prior mean rate (models the
    /// pre-run calibration probes).
    pub fn with_bandwidth_prior(mut self, bps: f64) -> EstimateProvider {
        self.up = self.up.with_prior(bps);
        self.down = self.down.with_prior(bps);
        self
    }

    /// Flushes deferred QRSM refits (see [`ProcTimeModel::flush_refits`]).
    /// Call before any prediction read that must see observations queued
    /// via [`ProcTimeModel::observe_queued`]; a no-op branch otherwise.
    pub fn flush_refits(&mut self) -> bool {
        self.qrsm.flush_refits()
    }

    /// Estimated execution seconds for `job` on a standard machine.
    /// Heap-allocation-free: the regressors live on the stack and the model
    /// evaluates term-by-term without materializing a design row. A pool
    /// of machine speed `s` runs it in `exec_secs(job) / s` seconds; the
    /// speeds belong to the pools (see `LoadModel::ic_speed`), not to the
    /// provider.
    pub fn exec_secs(&self, job: &Job) -> f64 {
        self.qrsm.predict(job.features.job_type.code() as u64, &job.features.regressors_arr())
    }

    /// Estimated output size for a job that has not run.
    pub fn output_bytes(&self, job: &Job) -> u64 {
        (job.input_bytes() as f64 * self.output_ratio) as u64
    }

    /// Estimated seconds to upload `bytes` starting around `t`, at the
    /// currently tuned thread count (`s_i / l(t_i)` of Eq. 2).
    pub fn upload_secs(&self, t: SimTime, bytes: u64) -> f64 {
        let threads = self.up_tuner.current_best(t);
        self.up.predict_transfer_secs(t, bytes, threads, self.kappa)
    }

    /// The upload rate behind [`EstimateProvider::upload_secs`] at `t`:
    /// `upload_secs(t, b)` is `b as f64 / upload_rate(t)` bit for bit.
    pub fn upload_rate(&self, t: SimTime) -> f64 {
        self.up.predict_transfer_rate(t, self.up_tuner.current_best(t), self.kappa)
    }

    /// Estimated seconds to download `bytes` starting around `t`
    /// (`o_i / l(t_i + t')` of Eq. 2).
    pub fn download_secs(&self, t: SimTime, bytes: u64) -> f64 {
        let threads = self.down_tuner.current_best(t);
        self.down.predict_transfer_secs(t, bytes, threads, self.kappa)
    }

    /// The full estimated EC round trip for a job estimated at `est_secs`
    /// standard-machine seconds ([`EstimateProvider::exec_secs`]) on an EC
    /// site of machine speed `ec_speed`, if its upload started at `t` with
    /// `upload_backlog_secs` of queued work ahead of it:
    /// `(upload_wait, upload, exec, download)` seconds. `upload_rate` is
    /// [`EstimateProvider::upload_rate`] at `t`, read once by the caller:
    /// the planner fixes `t` for a whole batch, so it divides by the same
    /// rate for every job.
    pub fn round_trip_parts(
        &self,
        t: SimTime,
        job: &Job,
        est_secs: f64,
        ec_speed: f64,
        upload_backlog_secs: f64,
        upload_rate: f64,
    ) -> (f64, f64, f64, f64) {
        let (up, exec) = upload_exec_at_rate(job, est_secs, ec_speed, upload_rate);
        // Download is predicted at the time it will plausibly start.
        let dl_at = t + cloudburst_sim::SimDuration::from_secs_f64(upload_backlog_secs + up + exec);
        let down = self.download_secs(dl_at, self.output_bytes(job));
        (upload_backlog_secs, up, exec, down)
    }
}

/// The upload and EC execution legs of
/// [`EstimateProvider::round_trip_parts`], bit for bit: the part of
/// a round trip that needs no download prediction.
pub(crate) fn upload_exec_at_rate(
    job: &Job,
    est_secs: f64,
    ec_speed: f64,
    upload_rate: f64,
) -> (f64, f64) {
    (job.input_bytes() as f64 / upload_rate, est_secs / ec_speed)
}

/// Test-only fixtures shared across this crate's unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use cloudburst_qrsm::Method;
    use cloudburst_sim::RngFactory;
    use cloudburst_workload::arrival::training_corpus;
    use cloudburst_workload::{DocumentFeatures, GroundTruth, JobId, ParentId};

    /// An estimate provider with an accurate QRSM (trained on noiseless
    /// data) and a 250 KB/s bandwidth prior.
    pub(crate) fn provider() -> EstimateProvider {
        let rngs = RngFactory::new(99);
        let truth = GroundTruth::noiseless();
        let corpus = training_corpus(&mut rngs.stream("train"), &truth, 400);
        let xs: Vec<Vec<f64>> = corpus.iter().map(|(f, _)| f.regressors()).collect();
        let ys: Vec<f64> = corpus.iter().map(|(_, t)| *t).collect();
        let qrsm = QrsModel::fit(&xs, &ys, Method::Ols).unwrap();
        EstimateProvider::new(qrsm).with_bandwidth_prior(250_000.0)
    }

    /// A deterministic job of the given size (noiseless ground truth).
    pub(crate) fn job(size_mb: u64) -> Job {
        job_with_id(0, size_mb)
    }

    /// As [`job`], with an explicit id.
    pub(crate) fn job_with_id(id: u64, size_mb: u64) -> Job {
        job_with_bytes(id, size_mb * 1_000_000)
    }

    /// A deterministic job of exactly `bytes` input bytes.
    pub(crate) fn job_with_bytes(id: u64, bytes: u64) -> Job {
        let rngs = RngFactory::new(5 + id);
        let mut rng = rngs.stream("j");
        let f = DocumentFeatures::sample_any_type(&mut rng, bytes);
        Job {
            id: JobId(id),
            batch: 0,
            arrival: SimTime::ZERO,
            features: f,
            true_service_secs: GroundTruth::noiseless().mean_secs(&f),
            output_bytes: bytes / 2,
            parent: ParentId::NONE,
        }
    }

    /// A provider plus jobs of the given sizes (ids 0..n).
    pub(crate) fn provider_and_jobs(sizes_mb: &[u64]) -> (EstimateProvider, Vec<Job>) {
        let jobs = sizes_mb
            .iter()
            .enumerate()
            .map(|(i, &mb)| job_with_id(i as u64, mb))
            .collect();
        (provider(), jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimates::tests_support::{job, provider};

    #[test]
    fn exec_estimate_tracks_truth_on_noiseless_data() {
        let p = provider();
        let j = job(120);
        let est = p.exec_secs(&j);
        let truth = j.true_service_secs;
        assert!(
            (est / truth - 1.0).abs() < 0.05,
            "QRSM trained on noiseless quadratic data should be accurate: est={est} truth={truth}"
        );
    }

    #[test]
    fn transfer_estimates_scale_with_size() {
        let p = provider();
        let t = SimTime::ZERO;
        let up_small = p.upload_secs(t, 10_000_000);
        let up_large = p.upload_secs(t, 100_000_000);
        assert!((up_large / up_small - 10.0).abs() < 0.01);
        assert!(p.download_secs(t, 10_000_000) > 0.0);
    }

    #[test]
    fn round_trip_parts_compose() {
        let p = provider();
        let j = job(50);
        let t = SimTime::ZERO;
        let (wait, up, exec, down) =
            p.round_trip_parts(t, &j, p.exec_secs(&j), 1.0, 120.0, p.upload_rate(t));
        assert_eq!(exec.to_bits(), p.exec_secs(&j).to_bits());
        assert_eq!(wait, 120.0);
        assert!(up > 0.0 && exec > 0.0 && down > 0.0);
        // Download of half the bytes at equal rates is about half the upload.
        assert!((down / up - 0.5).abs() < 0.1, "up={up} down={down}");
    }

    #[test]
    fn upload_secs_divides_by_upload_rate() {
        let p = provider();
        for (t, bytes) in [(0u64, 0u64), (0, 1), (3_599, 10_000_000), (40_000, 123_456_789)] {
            let t = SimTime::from_secs(t);
            let want = p.upload_secs(t, bytes);
            assert_eq!((bytes as f64 / p.upload_rate(t)).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn ec_speed_scales_remote_exec() {
        let p = provider();
        let j = job(80);
        let est = p.exec_secs(&j);
        let t = SimTime::ZERO;
        let exec_at = |speed| p.round_trip_parts(t, &j, est, speed, 0.0, p.upload_rate(t)).2;
        assert_eq!(exec_at(1.0).to_bits(), est.to_bits());
        assert_eq!(exec_at(2.0).to_bits(), (est / 2.0).to_bits());
    }
}
