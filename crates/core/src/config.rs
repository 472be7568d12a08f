//! Experiment configuration.
//!
//! Defaults reproduce the paper's test-bed (Sec. V-A): 8 internal machines,
//! 2 external instances, ≈ 250 KB/s average pipe, batches of Poisson(15)
//! jobs every 3 minutes, 2-minute OO sampling.

use serde::{Deserialize, Serialize};

use cloudburst_econ::{EconConfig, PriceModel};
use cloudburst_net::profile::DEFAULT_MEAN_BPS;
use cloudburst_net::BandwidthModel;
use cloudburst_sim::SimDuration;
use cloudburst_sla::{OoConfig, WindowConfig};
use cloudburst_workload::{ArrivalConfig, ChunkPolicy, GroundTruth, OpenArrivalConfig, SizeBucket};

/// Which scheduler drives the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Baseline: never burst.
    IcOnly,
    /// Algorithm 1.
    Greedy,
    /// Algorithm 2.
    OrderPreserving,
    /// Algorithm 2 without the chunking phase (ablation).
    OrderPreservingNoChunk,
    /// Algorithm 2 + Algorithm 3 upload routing.
    Sibs,
}

impl SchedulerKind {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::IcOnly => "ic-only",
            SchedulerKind::Greedy => "greedy",
            SchedulerKind::OrderPreserving => "op",
            SchedulerKind::OrderPreservingNoChunk => "op-nochunk",
            SchedulerKind::Sibs => "op+sibs",
        }
    }

    /// The scheduler line-up compared in Fig. 6.
    pub const FIG6: [SchedulerKind; 3] =
        [SchedulerKind::IcOnly, SchedulerKind::Greedy, SchedulerKind::OrderPreserving];
}

/// QRSM fitting method selector (mirrors `cloudburst_qrsm::Method`, kept
/// separate so configs serialize without foreign types).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FitKind {
    /// Ordinary least squares.
    Ols,
    /// Ridge with the given penalty.
    Ridge(f64),
    /// Least absolute deviations (LP-equivalent robust fit).
    Lad,
}

impl FitKind {
    /// Converts to the qrsm crate's method type.
    pub fn to_method(self) -> cloudburst_qrsm::Method {
        match self {
            FitKind::Ols => cloudburst_qrsm::Method::Ols,
            FitKind::Ridge(l) => cloudburst_qrsm::Method::Ridge(l),
            FitKind::Lad => cloudburst_qrsm::Method::Lad,
        }
    }
}

/// Elastic-EC scaling policy (extension; see `crate::scaling`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScalingPolicy {
    /// Smallest EC pool size.
    pub min_instances: usize,
    /// Largest EC pool size.
    pub max_instances: usize,
    /// Evaluation period.
    pub period: SimDuration,
}

/// Open-system serving section (`crate::engine::serve_experiment` and the
/// `cloudburst serve` subcommand): the arrival stream's shape, the virtual
/// horizon it runs to, and the windowed-report granularity. Every field
/// has a default, so configs written before serving existed still decode
/// (the engine treats a missing section as "closed-batch mode").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Open arrival process: epoch length, baseline rate, size bucket,
    /// diurnal envelope and optional flash-crowd bursts.
    pub arrivals: OpenArrivalConfig,
    /// Virtual horizon: the last epoch released starts strictly before
    /// this instant; the pipeline then drains to empty.
    pub horizon: SimDuration,
    /// Windowed-aggregate granularity of the [`cloudburst_sla::ServeReport`].
    pub window: WindowConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arrivals: OpenArrivalConfig::default(),
            // One virtual day: long enough to cover a full diurnal cycle.
            horizon: SimDuration::from_secs(86_400),
            window: WindowConfig::default(),
        }
    }
}

impl ServeConfig {
    /// The EXPERIMENTS.md serving scenario: a full virtual day of diurnal
    /// demand (±80 % swing) with flash crowds.
    pub fn diurnal_day() -> ServeConfig {
        ServeConfig { arrivals: OpenArrivalConfig::diurnal_service(), ..ServeConfig::default() }
    }
}

/// Configuration of one additional external-cloud site (the multi-EC
/// extension; the primary EC comes from `n_ec`/`ec_speed` and the main
/// bandwidth models).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EcSiteConfig {
    /// Machines at this site.
    pub n_machines: usize,
    /// Machine speed relative to a standard machine.
    pub speed: f64,
    /// Upload pipe to this site.
    pub upload_model: BandwidthModel,
    /// Download pipe from this site.
    pub download_model: BandwidthModel,
    /// Price model of this site (econ extension). `None` — also what
    /// configs serialized before the econ layer existed decode to — means
    /// the site is free, and cost accounting for it stays dormant.
    pub price: Option<PriceModel>,
}

/// Full description of one experiment run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Scheduler under test.
    pub scheduler: SchedulerKind,
    /// Arrival process (batches, λ, bucket).
    pub arrivals: ArrivalConfig,
    /// Internal-cloud machine count (paper: 8).
    pub n_ic: usize,
    /// External-cloud machine count (paper: max 2).
    pub n_ec: usize,
    /// IC machine speed relative to a standard machine.
    pub ic_speed: f64,
    /// EC machine speed relative to a standard machine.
    pub ec_speed: f64,
    /// Ground-truth upload pipe.
    pub upload_model: BandwidthModel,
    /// Ground-truth download pipe.
    pub download_model: BandwidthModel,
    /// Thread-saturation constant κ.
    pub kappa: f64,
    /// Link rate-revaluation slot.
    pub link_slot: SimDuration,
    /// Last-hop/connection-setup latency per transfer (both directions).
    pub last_hop_latency: SimDuration,
    /// Ground-truth processing-time law.
    pub truth: GroundTruth,
    /// Size of the initial QRSM training corpus.
    pub training_docs: usize,
    /// QRSM fitting method.
    pub fit: FitKind,
    /// Fit one QRSM per job class (with a pooled fallback) instead of a
    /// single pooled model — the multi-job-class extension (Sec. VII).
    pub per_class_qrsm: bool,
    /// Chunking policy for the Op/SIBS schedulers.
    pub chunk_policy: ChunkPolicy,
    /// Slack safety margin τ, seconds.
    pub tau_secs: f64,
    /// Ticket quoting margin: the completion promise issued at admission is
    /// the scheduler's estimate plus `k` training-RMSEs of the QRSM
    /// (`k ≈ 1` ⇒ roughly 84 % single-job coverage under normal residuals).
    pub ticket_margin_k: f64,
    /// OO-metric sampling.
    pub oo: OoConfig,
    /// EWMA weight α of the bandwidth predictor (paper's `S_n` update).
    pub ewma_alpha: f64,
    /// Time-of-day slots per day in the bandwidth predictor (1 = a single
    /// global EWMA, i.e. no time-of-day model — the `ablate-ewma` case).
    pub ewma_slots: usize,
    /// Bandwidth-probe interval (None disables autonomic probing).
    pub probe_interval: Option<SimDuration>,
    /// Enable the Sec. IV-D pull-back/push-out rescheduling extension.
    pub rescheduling: bool,
    /// Elastic-EC scaling extension.
    pub scaling: Option<ScalingPolicy>,
    /// Additional external-cloud sites (multi-EC extension); the engine's
    /// broker picks the site with the earliest estimated round trip per
    /// bursted job.
    pub extra_ec_sites: Vec<EcSiteConfig>,
    /// Fault-injection profile (chaos extension). `None` — and a profile
    /// that [`cloudburst_chaos::FaultProfile::is_dormant`] — leave the run
    /// byte-identical to a fault-free one.
    pub faults: Option<cloudburst_chaos::FaultProfile>,
    /// Ignored: a run is single-threaded, so no value reaches a byte of
    /// its report or its wall-clock time. The field stays so configs and
    /// callers that set it (saved JSON configs, the end-to-end benchmark's
    /// `Some(1)`) still deserialize and compile; `Option` because configs
    /// serialized before the knob existed decode the missing field as
    /// null.
    pub shard_workers: Option<usize>,
    /// Open-system serving section. `None` (also what configs serialized
    /// before the mode existed decode to) runs the classic closed-batch
    /// experiment; `Some` arms `serve_experiment` / `cloudburst serve`.
    pub serve: Option<ServeConfig>,
    /// Economics section (pricing, penalties, commitments, cost-aware
    /// brokering). `None` — what legacy configs decode to — and a section
    /// that [`cloudburst_econ::EconConfig::is_dormant`] (with no per-site
    /// prices) leave the run byte-identical to an econ-free one.
    pub econ: Option<EconConfig>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 42,
            scheduler: SchedulerKind::OrderPreserving,
            arrivals: ArrivalConfig::default(),
            n_ic: 8,
            n_ec: 2,
            ic_speed: 1.0,
            ec_speed: 1.0,
            upload_model: BandwidthModel::Constant(DEFAULT_MEAN_BPS),
            download_model: BandwidthModel::Constant(DEFAULT_MEAN_BPS),
            kappa: cloudburst_net::link::DEFAULT_KAPPA,
            link_slot: SimDuration::from_secs(30),
            last_hop_latency: SimDuration::from_secs(2),
            truth: GroundTruth::default(),
            training_docs: 400,
            fit: FitKind::Ols,
            per_class_qrsm: false,
            chunk_policy: ChunkPolicy::default(),
            tau_secs: 0.0,
            ticket_margin_k: 1.0,
            oo: OoConfig::default(),
            ewma_alpha: 0.3,
            ewma_slots: 24,
            probe_interval: Some(SimDuration::from_mins(10)),
            rescheduling: false,
            scaling: None,
            extra_ec_sites: Vec::new(),
            faults: None,
            shard_workers: None,
            serve: None,
            econ: None,
        }
    }
}

impl ExperimentConfig {
    /// The paper's set-up for a given scheduler, bucket and seed.
    pub fn paper(scheduler: SchedulerKind, bucket: SizeBucket, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            scheduler,
            arrivals: ArrivalConfig { bucket, ..ArrivalConfig::default() },
            ..ExperimentConfig::default()
        }
    }

    /// A megascale stress configuration: ≈ `total_jobs` jobs (batches of
    /// ≈ 10 000) against a 256 + 64 machine estate — an estate sized for a
    /// million-job backlog, not the paper's 8-host cluster. Used by the
    /// `perfscale` probes to measure decision-loop and end-to-end
    /// throughput far beyond the paper's ≈ 105-job runs. Autonomic probing
    /// is off so the run measures the scheduler/engine path, not the probe
    /// cadence.
    pub fn megascale(scheduler: SchedulerKind, total_jobs: u64, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            scheduler,
            arrivals: ArrivalConfig::megascale(total_jobs),
            n_ic: 256,
            n_ec: 64,
            probe_interval: None,
            ..ExperimentConfig::default()
        }
    }

    /// Same, under the Fig. 9 "high network variation" pipe.
    pub fn paper_high_variation(
        scheduler: SchedulerKind,
        bucket: SizeBucket,
        seed: u64,
    ) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper(scheduler, bucket, seed);
        cfg.upload_model = BandwidthModel::high_variation(seed ^ 0x5eed_0001);
        cfg.download_model = BandwidthModel::high_variation(seed ^ 0x5eed_0002);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = ExperimentConfig::default();
        assert_eq!(c.n_ic, 8);
        assert_eq!(c.n_ec, 2);
        assert_eq!(c.arrivals.jobs_per_batch, 15.0);
        assert_eq!(c.arrivals.batch_interval, SimDuration::from_mins(3));
        assert_eq!(c.oo.sample_interval, SimDuration::from_mins(2));
    }

    #[test]
    fn labels() {
        assert_eq!(SchedulerKind::Sibs.label(), "op+sibs");
        assert_eq!(SchedulerKind::FIG6.len(), 3);
    }

    #[test]
    fn round_trips_through_json() {
        let c = ExperimentConfig::paper(SchedulerKind::Greedy, SizeBucket::LargeBiased, 7);
        let js = serde_json::to_string(&c).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back.scheduler, SchedulerKind::Greedy);
        assert_eq!(back.seed, 7);
    }

    #[test]
    fn shard_workers_defaults_for_legacy_configs() {
        // Configs serialized before the (now ignored) knob existed must
        // still deserialize.
        let c = ExperimentConfig::default();
        let mut js = serde_json::to_string(&c).unwrap();
        js = js.replace(",\"shard_workers\":null", "");
        assert!(!js.contains("shard_workers"), "field should be stripped for the test");
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back.shard_workers, None);
    }

    #[test]
    fn serve_section_defaults_for_legacy_configs() {
        // Configs serialized before serving existed must still decode —
        // and decode to closed-batch mode.
        let c = ExperimentConfig::default();
        let mut js = serde_json::to_string(&c).unwrap();
        js = js.replace(",\"serve\":null", "");
        assert!(!js.contains("\"serve\""), "field should be stripped for the test");
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert!(back.serve.is_none());
        // And an armed section round-trips field-for-field.
        let armed =
            ExperimentConfig { serve: Some(ServeConfig::diurnal_day()), ..Default::default() };
        let js = serde_json::to_string(&armed).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        let s = back.serve.expect("section survives the round trip");
        assert_eq!(s.horizon, SimDuration::from_secs(86_400));
        assert!(s.arrivals.burst.is_some());
    }

    #[test]
    fn econ_section_defaults_for_legacy_configs() {
        // Configs serialized before the econ layer existed must still
        // decode — to no economics at all.
        let c = ExperimentConfig::default();
        let mut js = serde_json::to_string(&c).unwrap();
        js = js.replace(",\"econ\":null", "");
        assert!(!js.contains("\"econ\""), "field should be stripped for the test");
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert!(back.econ.is_none());
        // And an armed section round-trips field-for-field.
        let armed = ExperimentConfig {
            econ: Some(EconConfig {
                primary_price: Some(PriceModel::flat(cloudburst_econ::Money::from_cents(20))),
                ..EconConfig::dormant()
            }),
            ..Default::default()
        };
        let js = serde_json::to_string(&armed).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back.econ, armed.econ);
    }

    #[test]
    fn ec_site_price_defaults_for_legacy_configs() {
        // EcSiteConfig round trip with the new per-site `price` field:
        // a site serialized before the field existed decodes to a free
        // site, same pattern as `shard_workers`/`serve`.
        let site = EcSiteConfig {
            n_machines: 4,
            speed: 1.5,
            upload_model: BandwidthModel::Constant(1e5),
            download_model: BandwidthModel::Constant(2e5),
            price: None,
        };
        let mut js = serde_json::to_string(&site).unwrap();
        assert!(js.contains("\"price\":null"));
        js = js.replace(",\"price\":null", "");
        assert!(!js.contains("\"price\""), "field should be stripped for the test");
        let back: EcSiteConfig = serde_json::from_str(&js).unwrap();
        assert!(back.price.is_none(), "legacy sites decode as free");
        assert_eq!(back.n_machines, 4);
        assert_eq!(back.speed, 1.5);
        // A priced site round-trips exactly, spot trace and all.
        let priced = EcSiteConfig {
            price: Some(PriceModel::Spot {
                base_usd_per_machine_hour: cloudburst_econ::Money::from_cents(35),
                usd_per_gb_transfer: cloudburst_econ::Money::from_cents(2),
                multipliers: vec![(0.0, 700), (43_200.0, 1400)],
                period_secs: 86_400.0,
                revocation: Some(cloudburst_chaos::CrashLaw {
                    mean_uptime_secs: 7200.0,
                    mean_downtime_secs: 300.0,
                    max_faults_per_machine: 3,
                }),
            }),
            ..site
        };
        let js = serde_json::to_string(&priced).unwrap();
        let back: EcSiteConfig = serde_json::from_str(&js).unwrap();
        assert_eq!(back.price, priced.price);
    }

    #[test]
    fn fit_kind_converts() {
        assert_eq!(FitKind::Ols.to_method(), cloudburst_qrsm::Method::Ols);
        assert_eq!(FitKind::Ridge(0.5).to_method(), cloudburst_qrsm::Method::Ridge(0.5));
        assert_eq!(FitKind::Lad.to_method(), cloudburst_qrsm::Method::Lad);
    }

    #[test]
    fn megascale_targets_the_requested_job_count() {
        let c = ExperimentConfig::megascale(SchedulerKind::Greedy, 100_000, 1);
        let expected: f64 = (0..c.arrivals.n_batches).map(|b| c.arrivals.rate_for_batch(b)).sum();
        assert!((expected - 100_000.0).abs() < 1e-6);
        assert_eq!(c.n_ic, 256);
        assert_eq!(c.n_ec, 64);
        assert!(c.probe_interval.is_none());
        // One-job edge case still produces a single batch.
        let tiny = ExperimentConfig::megascale(SchedulerKind::Greedy, 1, 1);
        assert_eq!(tiny.arrivals.n_batches, 1);
    }

    #[test]
    fn high_variation_uses_jittered_models() {
        let c = ExperimentConfig::paper_high_variation(
            SchedulerKind::OrderPreserving,
            SizeBucket::LargeBiased,
            3,
        );
        assert!(matches!(c.upload_model, BandwidthModel::Jittered { .. }));
        assert!(matches!(c.download_model, BandwidthModel::Jittered { .. }));
    }
}
