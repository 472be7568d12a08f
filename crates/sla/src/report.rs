//! Per-run SLA report — everything a scheduler comparison needs, in one
//! serializable record.

use cloudburst_econ::CostMetrics;
use cloudburst_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::metrics;
use crate::ooo::OoSample;

/// The consolidated SLA outcomes of one simulation run.
///
/// Serialization is hand-written (not derived) for one reason: the `econ`
/// member must be *absent* from the JSON when the run carried no economics
/// layer, so reports from econ-free configs — including every checked-in
/// golden fixture — stay byte-identical to the pre-econ format.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Scheduler label ("greedy", "op", "op+sibs", "ic-only", …).
    pub scheduler: String,
    /// Workload bucket label ("small", "uniform", "large").
    pub bucket: String,
    /// Experiment seed (reports are reproducible artifacts).
    pub seed: u64,
    /// Number of (post-chunking) jobs in the run.
    pub n_jobs: usize,
    /// Eq. 7, seconds.
    pub makespan_secs: f64,
    /// Eq. 10: sequential standard-machine time over makespan.
    pub speedup: f64,
    /// Sum of true standard-machine service times (the speed-up numerator).
    pub sequential_secs: f64,
    /// Eq. 9 over the internal pool, `[0, 1]`.
    pub ic_utilization: f64,
    /// Eq. 9 over the external pool, `[0, 1]`.
    pub ec_utilization: f64,
    /// Eq. 12 over the whole run.
    pub burst_ratio: f64,
    /// Eq. 11 per batch.
    pub burst_ratio_per_batch: Vec<f64>,
    /// Per-batch turnaround (arrival → last completion), seconds — the
    /// "speed-up of the initial batches" check.
    pub batch_turnaround_secs: Vec<f64>,
    /// Completion instant per job id.
    pub completion_times: Vec<SimTime>,
    /// Figs. 7–8 series: completion delay vs in-order requirement, seconds.
    pub completion_delays: Vec<f64>,
    /// OO-metric series (Eq. 6) at the configured sampling interval.
    pub oo_series: Vec<OoSample>,
    /// Upload/download bytes actually moved (0 for IC-only runs).
    pub uploaded_bytes: u64,
    /// Result bytes downloaded from the EC.
    pub downloaded_bytes: u64,
    /// Completion tickets issued at admission and how each fared.
    pub tickets: Vec<crate::ticket::TicketOutcome>,
    /// Fault and recovery accounting (all-zero on fault-free runs).
    pub faults: crate::faults::FaultMetrics,
    /// Economics accounting — `None` when the run had no econ layer armed
    /// (the key is then omitted from the serialized report entirely).
    pub econ: Option<CostMetrics>,
}

impl Serialize for RunReport {
    fn to_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert(String::from("scheduler"), self.scheduler.to_value());
        m.insert(String::from("bucket"), self.bucket.to_value());
        m.insert(String::from("seed"), self.seed.to_value());
        m.insert(String::from("n_jobs"), self.n_jobs.to_value());
        m.insert(String::from("makespan_secs"), self.makespan_secs.to_value());
        m.insert(String::from("speedup"), self.speedup.to_value());
        m.insert(String::from("sequential_secs"), self.sequential_secs.to_value());
        m.insert(String::from("ic_utilization"), self.ic_utilization.to_value());
        m.insert(String::from("ec_utilization"), self.ec_utilization.to_value());
        m.insert(String::from("burst_ratio"), self.burst_ratio.to_value());
        m.insert(String::from("burst_ratio_per_batch"), self.burst_ratio_per_batch.to_value());
        m.insert(String::from("batch_turnaround_secs"), self.batch_turnaround_secs.to_value());
        m.insert(String::from("completion_times"), self.completion_times.to_value());
        m.insert(String::from("completion_delays"), self.completion_delays.to_value());
        m.insert(String::from("oo_series"), self.oo_series.to_value());
        m.insert(String::from("uploaded_bytes"), self.uploaded_bytes.to_value());
        m.insert(String::from("downloaded_bytes"), self.downloaded_bytes.to_value());
        m.insert(String::from("tickets"), self.tickets.to_value());
        m.insert(String::from("faults"), self.faults.to_value());
        if let Some(e) = &self.econ {
            m.insert(String::from("econ"), e.to_value());
        }
        serde::Value::Object(m)
    }
}

impl Deserialize for RunReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom(format!("RunReport: expected object, got {v}")))?;
        fn field<T: Deserialize>(obj: &serde::Map, name: &str) -> Result<T, serde::Error> {
            T::from_value(obj.get(name).unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::Error::custom(format!("RunReport.{name}: {e}")))
        }
        Ok(RunReport {
            scheduler: field(obj, "scheduler")?,
            bucket: field(obj, "bucket")?,
            seed: field(obj, "seed")?,
            n_jobs: field(obj, "n_jobs")?,
            makespan_secs: field(obj, "makespan_secs")?,
            speedup: field(obj, "speedup")?,
            sequential_secs: field(obj, "sequential_secs")?,
            ic_utilization: field(obj, "ic_utilization")?,
            ec_utilization: field(obj, "ec_utilization")?,
            burst_ratio: field(obj, "burst_ratio")?,
            burst_ratio_per_batch: field(obj, "burst_ratio_per_batch")?,
            batch_turnaround_secs: field(obj, "batch_turnaround_secs")?,
            completion_times: field(obj, "completion_times")?,
            completion_delays: field(obj, "completion_delays")?,
            oo_series: field(obj, "oo_series")?,
            uploaded_bytes: field(obj, "uploaded_bytes")?,
            downloaded_bytes: field(obj, "downloaded_bytes")?,
            tickets: field(obj, "tickets")?,
            faults: field(obj, "faults")?,
            econ: field(obj, "econ")?,
        })
    }
}

impl RunReport {
    /// Peak statistics of the completion-delay series: `(count, total
    /// seconds)` of positive delays above `threshold_secs`.
    pub fn peaks(&self, threshold_secs: f64) -> (usize, f64) {
        metrics::peak_stats(&self.completion_delays, threshold_secs)
    }

    /// Valley count: jobs whose output was ready before its in-order turn.
    pub fn valleys(&self) -> usize {
        self.completion_delays.iter().filter(|&&d| d < 0.0).count()
    }

    /// Final ordered-output availability (last `o_t`), bytes.
    pub fn final_ordered_bytes(&self) -> u64 {
        crate::ooo::final_ordered_bytes(&self.oo_series)
    }

    /// Time-averaged `o_t` in bytes — a scalar summary of Figs. 9–10: higher
    /// means ordered data was available *earlier*.
    pub fn mean_ordered_bytes(&self) -> f64 {
        if self.oo_series.is_empty() {
            return 0.0;
        }
        self.oo_series.iter().map(|s| s.o_t as f64).sum::<f64>() / self.oo_series.len() as f64
    }

    /// Relative OO difference against a baseline run (Fig. 10):
    /// `(o_t − o_t^base) / o_t^base` per common sample index. Samples where
    /// the baseline has produced no ordered data yet are skipped — a ratio
    /// against zero is meaningless (early in a run the IC-only baseline has
    /// completed nothing).
    pub fn oo_relative_to(&self, baseline: &RunReport) -> Vec<f64> {
        self.oo_series
            .iter()
            .zip(&baseline.oo_series)
            .filter(|(_, b)| b.o_t > 0)
            .map(|(a, b)| (a.o_t as f64 - b.o_t as f64) / b.o_t as f64)
            .collect()
    }

    /// Aggregate ticket statistics (attainment, lateness).
    pub fn ticket_report(&self) -> crate::ticket::TicketReport {
        crate::ticket::ticket_report(&self.tickets)
    }

    /// One-line human summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:>8} {:>8}: makespan={:>8.1}s speedup={:>5.2} ic={:>5.1}% ec={:>5.1}% burst={:>4.2} peaks={}",
            self.scheduler,
            self.bucket,
            self.makespan_secs,
            self.speedup,
            self.ic_utilization * 100.0,
            self.ec_utilization * 100.0,
            self.burst_ratio,
            self.peaks(0.0).0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooo::OoSample;

    fn sample(at_secs: u64, o_t: u64) -> OoSample {
        OoSample { at: SimTime::from_secs(at_secs), m_t: Some(0), o_t, completed: 1 }
    }

    fn report(delays: Vec<f64>, oo: Vec<OoSample>) -> RunReport {
        RunReport {
            scheduler: "test".into(),
            bucket: "uniform".into(),
            seed: 1,
            n_jobs: delays.len(),
            makespan_secs: 100.0,
            speedup: 5.0,
            sequential_secs: 500.0,
            ic_utilization: 0.8,
            ec_utilization: 0.4,
            burst_ratio: 0.2,
            burst_ratio_per_batch: vec![0.2],
            batch_turnaround_secs: vec![100.0],
            completion_times: vec![],
            completion_delays: delays,
            oo_series: oo,
            uploaded_bytes: 0,
            downloaded_bytes: 0,
            tickets: vec![],
            faults: crate::faults::FaultMetrics::default(),
            econ: None,
        }
    }

    #[test]
    fn peaks_and_valleys() {
        let r = report(vec![10.0, -5.0, 30.0, -1.0, 0.0], vec![]);
        assert_eq!(r.peaks(0.0), (2, 40.0));
        assert_eq!(r.peaks(15.0), (1, 30.0));
        assert_eq!(r.valleys(), 2);
    }

    #[test]
    fn oo_summaries() {
        let r = report(vec![], vec![sample(60, 100), sample(120, 300), sample(180, 500)]);
        assert_eq!(r.final_ordered_bytes(), 500);
        assert!((r.mean_ordered_bytes() - 300.0).abs() < 1e-12);
        let base = report(vec![], vec![sample(60, 100), sample(120, 100), sample(180, 500)]);
        let rel = r.oo_relative_to(&base);
        assert_eq!(rel.len(), 3);
        assert!((rel[0] - 0.0).abs() < 1e-12);
        assert!((rel[1] - 2.0).abs() < 1e-12);
        assert!((rel[2] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn empty_oo_series() {
        let r = report(vec![], vec![]);
        assert_eq!(r.final_ordered_bytes(), 0);
        assert_eq!(r.mean_ordered_bytes(), 0.0);
    }

    #[test]
    fn serializes_to_json() {
        let r = report(vec![1.0], vec![sample(60, 10)]);
        let js = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&js).unwrap();
        assert_eq!(back.scheduler, "test");
        assert_eq!(back.oo_series.len(), 1);
    }

    #[test]
    fn econ_key_absent_without_econ_layer_present_with_one() {
        let r = report(vec![], vec![]);
        let js = serde_json::to_string(&r).unwrap();
        assert!(!js.contains("\"econ\""), "econ-free report must omit the key: {js}");
        let back: RunReport = serde_json::from_str(&js).unwrap();
        assert!(back.econ.is_none());

        let mut priced = report(vec![], vec![]);
        let mut costs = cloudburst_econ::CostMetrics::with_sites(1);
        costs.add_compute(0, cloudburst_econ::Money::from_usd(2));
        costs.jobs_committed = 3;
        priced.econ = Some(costs);
        let js = serde_json::to_string(&priced).unwrap();
        assert!(js.contains("\"econ\""), "{js}");
        let back: RunReport = serde_json::from_str(&js).unwrap();
        let econ = back.econ.expect("econ survives the round trip");
        assert_eq!(econ.compute, cloudburst_econ::Money::from_usd(2));
        assert_eq!(econ.jobs_committed, 3);
        assert_eq!(econ.per_site.len(), 1);
    }

    #[test]
    fn summary_line_contains_key_numbers() {
        let line = report(vec![], vec![]).summary_line();
        assert!(line.contains("speedup= 5.00"), "{line}");
        assert!(line.contains("ic= 80.0%"), "{line}");
    }
}
