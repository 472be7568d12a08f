//! Windowed (streaming) SLA aggregates for open-system serving.
//!
//! The whole-run [`crate::report::RunReport`] assumes every job's record is
//! held until the end — O(total jobs) memory, impossible for an unbounded
//! stream. This module is its **windowed variant**: completions fold into
//! fixed-duration windows as they happen, each closed window emits one
//! [`WindowStats`] row (per-window OO frontier, makespan-rate, turnaround,
//! ticket and fault aggregates), and nothing per-job survives the fold.
//! Memory is O(live jobs + out-of-order backlog + closed windows), and the
//! closed-window rows can be drained incrementally, so a 100M-job stream
//! holds only live state.
//!
//! The ordered-output frontier reuses the streaming invariants of
//! [`crate::ooo`] (frontier / missing ≤ tolerance / running `o_t`) but
//! replaces the dense `complete[total_jobs]` table with a min-heap of
//! completed-above-frontier sequence numbers — the *arrival sequence*, a
//! dense never-recycled numbering that survives engine job-id recycling.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use cloudburst_econ::{CostMetrics, EconWindow};
use cloudburst_sim::{SimDuration, SimTime};

use crate::faults::FaultMetrics;

/// Configuration of the windowed aggregation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Window length (default 15 minutes: five closed-mode batch epochs).
    pub window: SimDuration,
    /// OO tolerance `t_l` for the ordered frontier (Eq. 5); 0 = strict
    /// in-order consumption.
    pub oo_tolerance: u64,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig { window: SimDuration::from_mins(15), oo_tolerance: 0 }
    }
}

/// One closed window's aggregates — a row of the deterministic series.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// 0-based window index; the window spans
    /// `[index·window, (index+1)·window)`.
    pub index: u64,
    /// Jobs admitted during the window.
    pub arrivals: u64,
    /// Jobs completed during the window.
    pub completions: u64,
    /// Output bytes of the jobs completed during the window.
    pub completed_bytes: u64,
    /// Cumulative ordered output `o_t` (Eq. 6) at window close.
    pub ordered_bytes: u64,
    /// Qualified in-order prefix length (`m_t + 1`) at window close.
    pub ordered_prefix: u64,
    /// Completion rate over the window, jobs/sec — the makespan-rate: a
    /// closed batch's `n / makespan` restated per window.
    pub completion_rate_per_sec: f64,
    /// Mean turnaround (arrival → completion) of the window's completions,
    /// seconds; 0 when none completed.
    pub mean_turnaround_secs: f64,
    /// Worst turnaround of the window's completions, seconds.
    pub max_turnaround_secs: f64,
    /// Completion tickets resolved in-window and met.
    pub tickets_met: u64,
    /// Completion tickets resolved in-window and missed.
    pub tickets_missed: u64,
    /// Fault counters realized during the window (cumulative snapshot
    /// delta, at heartbeat granularity).
    pub faults: FaultMetrics,
    /// Live (admitted, not yet completed) jobs at window close.
    pub live_at_close: u64,
    /// Peak live jobs observed during the window.
    pub live_high_water: u64,
    /// Economics realized during the window (cumulative snapshot delta, at
    /// heartbeat granularity); `None` when no econ layer is armed.
    pub econ: Option<EconWindow>,
}

/// Streaming ordered-output frontier over a dense, never-recycled arrival
/// sequence. Same math as [`crate::ooo`]'s single pass; memory is the
/// out-of-order backlog instead of a dense per-job table.
#[derive(Clone, Debug, Default)]
struct OrderedFrontier {
    /// One past the highest sequence number qualified under the tolerance.
    frontier: u64,
    /// Incomplete sequence numbers below the frontier (`≤ tolerance`).
    missing: u64,
    /// Completed-but-unqualified `(seq, bytes)` pairs above the frontier.
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    /// Ordered bytes `o_t`: bytes of completed seqs `≤ m_t`.
    ordered_bytes: u64,
    /// `m_t + 1`: length of the qualified in-order prefix.
    ordered_prefix: u64,
}

impl OrderedFrontier {
    /// Folds one completion in. `seq` values must be unique; arrival order
    /// (density) is what makes the frontier walk terminate.
    fn on_complete(&mut self, seq: u64, bytes: u64, tolerance: u64) {
        if seq < self.frontier {
            // A straggler the tolerance already stepped over: its bytes
            // join o_t, the missing count drops, m_t max-updates — the
            // same three moves as the closed-form single pass.
            debug_assert!(self.missing > 0, "straggler below frontier with no gap");
            self.missing -= 1;
            self.ordered_bytes += bytes;
            self.ordered_prefix = self.ordered_prefix.max(seq + 1);
            // No return: the freed missing budget may qualify pending
            // completions, so fall through to the advance walk.
        } else {
            self.pending.push(Reverse((seq, bytes)));
        }
        // Advance: step over completed seqs at the frontier for free, and
        // over gaps while the missing budget (tolerance) allows.
        while let Some(&Reverse((s, b))) = self.pending.peek() {
            let gap = s - self.frontier;
            if self.missing + gap > tolerance {
                break;
            }
            self.missing += gap;
            self.ordered_bytes += b;
            self.ordered_prefix = s + 1;
            self.frontier = s + 1;
            self.pending.pop();
        }
    }
}

/// Open-window accumulator.
#[derive(Clone, Debug, Default)]
struct WindowAccum {
    index: u64,
    arrivals: u64,
    completions: u64,
    completed_bytes: u64,
    turnaround_sum: f64,
    turnaround_max: f64,
    tickets_met: u64,
    tickets_missed: u64,
    live_high_water: u64,
}

/// The streaming aggregator: feed admissions, completions and heartbeats
/// in simulation-time order; closed windows accumulate in an internal
/// series that can be inspected or drained.
///
/// Fault attribution is heartbeat-granular: the per-window fault delta is
/// taken between the cumulative snapshots seen at the last heartbeat
/// before each window boundary, so counters bumped between heartbeats land
/// in the window whose heartbeat next observes them.
#[derive(Clone, Debug)]
pub struct WindowSeries {
    cfg: WindowConfig,
    frontier: OrderedFrontier,
    current: WindowAccum,
    closed: Vec<WindowStats>,
    drained: u64,
    live: u64,
    latest_faults: FaultMetrics,
    faults_at_open: FaultMetrics,
    latest_econ: Option<EconWindow>,
    econ_at_open: EconWindow,
    total_admitted: u64,
    total_completed: u64,
}

impl WindowSeries {
    /// An empty series with window 0 open at `t = 0`.
    pub fn new(cfg: WindowConfig) -> WindowSeries {
        assert!(!cfg.window.is_zero(), "window length must be positive");
        WindowSeries {
            cfg,
            frontier: OrderedFrontier::default(),
            current: WindowAccum::default(),
            closed: Vec::new(),
            drained: 0,
            live: 0,
            latest_faults: FaultMetrics::default(),
            faults_at_open: FaultMetrics::default(),
            latest_econ: None,
            econ_at_open: EconWindow::default(),
            total_admitted: 0,
            total_completed: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Closes every window whose span ends at or before `t`. An event at
    /// exactly a boundary therefore belongs to the *next* window.
    fn advance_to(&mut self, t: SimTime) {
        loop {
            let end = self.cfg.window * (self.current.index + 1);
            if t < SimTime::ZERO + end {
                return;
            }
            let w = std::mem::take(&mut self.current);
            let secs = self.cfg.window.as_secs_f64();
            self.closed.push(WindowStats {
                index: w.index,
                arrivals: w.arrivals,
                completions: w.completions,
                completed_bytes: w.completed_bytes,
                ordered_bytes: self.frontier.ordered_bytes,
                ordered_prefix: self.frontier.ordered_prefix,
                completion_rate_per_sec: w.completions as f64 / secs,
                mean_turnaround_secs: if w.completions > 0 {
                    w.turnaround_sum / w.completions as f64
                } else {
                    0.0
                },
                max_turnaround_secs: w.turnaround_max,
                tickets_met: w.tickets_met,
                tickets_missed: w.tickets_missed,
                faults: self.latest_faults.delta_since(&self.faults_at_open),
                live_at_close: self.live,
                live_high_water: w.live_high_water.max(self.live),
                econ: self.latest_econ.map(|e| e.delta_since(&self.econ_at_open)),
            });
            self.faults_at_open = self.latest_faults.clone();
            if let Some(e) = self.latest_econ {
                self.econ_at_open = e;
            }
            self.current.index = w.index + 1;
            self.current.live_high_water = self.live;
        }
    }

    /// Folds in one admission: `seq` is the dense arrival sequence number
    /// (order of admission, never recycled).
    pub fn on_admit(&mut self, seq: u64, t: SimTime) {
        debug_assert_eq!(seq, self.total_admitted, "arrival seqs must be dense");
        self.advance_to(t);
        self.total_admitted += 1;
        self.live += 1;
        self.current.arrivals += 1;
        self.current.live_high_water = self.current.live_high_water.max(self.live);
    }

    /// Folds in one completion. `ticket`: `Some(true)` met, `Some(false)`
    /// missed, `None` when the job carried no ticket.
    pub fn on_complete(
        &mut self,
        seq: u64,
        t: SimTime,
        output_bytes: u64,
        turnaround_secs: f64,
        ticket: Option<bool>,
    ) {
        self.advance_to(t);
        self.total_completed += 1;
        debug_assert!(self.live > 0, "completion with no live jobs");
        self.live -= 1;
        self.current.completions += 1;
        self.current.completed_bytes += output_bytes;
        self.current.turnaround_sum += turnaround_secs;
        self.current.turnaround_max = self.current.turnaround_max.max(turnaround_secs);
        match ticket {
            Some(true) => self.current.tickets_met += 1,
            Some(false) => self.current.tickets_missed += 1,
            None => {}
        }
        self.frontier.on_complete(seq, output_bytes, self.cfg.oo_tolerance);
    }

    /// Observes the cumulative fault counters at time `t` (heartbeat).
    pub fn heartbeat(&mut self, t: SimTime, faults: &FaultMetrics) {
        self.advance_to(t);
        self.latest_faults = faults.clone();
    }

    /// Observes the cumulative economics counters at time `t` — the econ
    /// twin of [`WindowSeries::heartbeat`]. Once called, every window
    /// closed from then on carries `Some` econ delta (all-zero in idle
    /// windows); never called (no econ layer armed) means every window's
    /// `econ` stays `None`.
    pub fn observe_econ(&mut self, t: SimTime, econ: EconWindow) {
        self.advance_to(t);
        self.latest_econ = Some(econ);
    }

    /// Closes every window ending at or before `t` (end-of-run flush; also
    /// folds the final fault snapshot first so the last windows carry it).
    pub fn finish(&mut self, t: SimTime, faults: &FaultMetrics) {
        self.latest_faults = faults.clone();
        self.advance_to(t);
    }

    /// Takes the buffered closed windows, leaving the series running — the
    /// long-run probes use this to keep the buffer O(1).
    pub fn drain_closed(&mut self) -> Vec<WindowStats> {
        self.drained += self.closed.len() as u64;
        std::mem::take(&mut self.closed)
    }

    /// Jobs admitted so far (also the next arrival sequence number).
    pub fn total_admitted(&self) -> u64 {
        self.total_admitted
    }

    /// Jobs completed so far.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    /// Live jobs right now.
    pub fn live(&self) -> u64 {
        self.live
    }
}

/// The windowed variant of [`crate::report::RunReport`]: totals plus the
/// deterministic per-window series. Everything here is O(windows); no
/// per-job vector exists anywhere in it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Scheduler name (mirrors `RunReport::scheduler`).
    pub scheduler: String,
    /// Experiment seed.
    pub seed: u64,
    /// Virtual horizon the serve ran to (arrival generation stops here;
    /// the pipeline then drains).
    pub horizon_secs: f64,
    /// Virtual instant the last job completed (≥ horizon on busy tails).
    pub drained_at_secs: f64,
    /// Total jobs admitted.
    pub jobs_admitted: u64,
    /// Total jobs completed (= admitted once drained).
    pub jobs_completed: u64,
    /// Total output bytes delivered.
    pub output_bytes: u64,
    /// Mean completion rate over the active span, jobs/sec.
    pub mean_completion_rate_per_sec: f64,
    /// Peak live jobs across the run.
    pub live_high_water: u64,
    /// Final cumulative fault counters.
    pub faults: FaultMetrics,
    /// The per-window series.
    pub windows: Vec<WindowStats>,
    /// Final cumulative economics accounting; `None` when the serve ran
    /// without an econ layer.
    pub econ: Option<CostMetrics>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooo::{oo_series, CompletionRecord, OoConfig};

    fn mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    /// Batch-mode oracle: replay per-job records through the closed-form
    /// whole-run machinery and compare against the streaming fold.
    #[test]
    fn frontier_matches_closed_form_oo_series() {
        // Completions deliberately out of order with stragglers.
        let recs = [
            (2u64, 2u64, 20u64),
            (0, 3, 10),
            (4, 4, 40),
            (1, 6, 15),
            (3, 8, 35),
            (5, 9, 50),
        ];
        for tolerance in [0u64, 1, 2] {
            let mut f = OrderedFrontier::default();
            let completions: Vec<CompletionRecord> = recs
                .iter()
                .map(|&(seq, at_min, bytes)| CompletionRecord {
                    id: seq,
                    at: mins(at_min),
                    bytes,
                })
                .collect();
            let closed = oo_series(
                &completions,
                6,
                mins(10),
                OoConfig { tolerance, sample_interval: SimDuration::from_mins(1) },
            );
            let mut sorted = recs;
            sorted.sort_by_key(|&(_, at, _)| at);
            let mut next = 0usize;
            for sample in &closed {
                while next < sorted.len() && mins(sorted[next].1) <= sample.at {
                    let (seq, _, bytes) = sorted[next];
                    f.on_complete(seq, bytes, tolerance);
                    next += 1;
                }
                assert_eq!(
                    f.ordered_bytes, sample.o_t,
                    "tolerance {tolerance} at {:?}",
                    sample.at
                );
                let m = f.ordered_prefix.checked_sub(1);
                assert_eq!(m, sample.m_t, "tolerance {tolerance} at {:?}", sample.at);
            }
        }
    }

    #[test]
    fn windows_partition_events_and_preserve_totals() {
        let cfg = WindowConfig { window: SimDuration::from_mins(10), oo_tolerance: 0 };
        let mut ws = WindowSeries::new(cfg);
        // Window 0: two admits, one completion. Window 1: one admit, two
        // completions (one a boundary event at t=20min → window 2 opens).
        ws.on_admit(0, mins(1));
        ws.on_admit(1, mins(2));
        ws.on_complete(0, mins(5), 100, 240.0, Some(true));
        ws.on_admit(2, mins(11));
        ws.on_complete(2, mins(14), 300, 180.0, None);
        ws.on_complete(1, mins(20), 200, 1080.0, Some(false));
        ws.finish(mins(30), &FaultMetrics::default());

        let rows = &ws.closed;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].arrivals, 2);
        assert_eq!(rows[0].completions, 1);
        assert_eq!(rows[0].ordered_bytes, 100);
        assert_eq!(rows[0].ordered_prefix, 1);
        assert_eq!(rows[0].live_at_close, 1);
        assert_eq!(rows[0].tickets_met, 1);
        assert_eq!(rows[1].arrivals, 1);
        assert_eq!(rows[1].completions, 1, "seq 2 completes, seq 1 still missing");
        assert_eq!(rows[1].ordered_bytes, 100, "strict order: frontier stuck at 1");
        // Window 2 carries the boundary completion of seq 1, which unlocks
        // the pending seq 2 too.
        assert_eq!(rows[2].completions, 1);
        assert_eq!(rows[2].ordered_bytes, 600);
        assert_eq!(rows[2].ordered_prefix, 3);
        assert_eq!(rows[2].tickets_missed, 1);
        assert_eq!(rows[2].live_at_close, 0);

        let total_arr: u64 = rows.iter().map(|w| w.arrivals).sum();
        let total_done: u64 = rows.iter().map(|w| w.completions).sum();
        assert_eq!(total_arr, ws.total_admitted());
        assert_eq!(total_done, ws.total_completed());
    }

    #[test]
    fn empty_windows_between_activity_are_emitted() {
        let mut ws = WindowSeries::new(WindowConfig {
            window: SimDuration::from_mins(1),
            oo_tolerance: 0,
        });
        ws.on_admit(0, mins(0));
        ws.on_complete(0, mins(5), 10, 300.0, None);
        ws.finish(mins(6), &FaultMetrics::default());
        assert_eq!(ws.closed.len(), 6);
        assert!(ws.closed[1..5].iter().all(|w| w.arrivals == 0 && w.completions == 0));
        assert!(
            ws.closed[1..5].iter().all(|w| w.live_at_close == 1 && w.live_high_water == 1),
            "live gauge persists through idle windows"
        );
    }

    #[test]
    fn fault_deltas_are_per_window() {
        let mut ws = WindowSeries::new(WindowConfig {
            window: SimDuration::from_mins(1),
            oo_tolerance: 0,
        });
        let snap = |n: u64| FaultMetrics { exec_failures: n, ..FaultMetrics::default() };
        ws.heartbeat(mins(0), &snap(0));
        ws.heartbeat(mins(1), &snap(2)); // closes w0 with latest-before = 0? No: heartbeat at boundary closes w0 first, then records 2.
        ws.heartbeat(mins(2), &snap(5));
        ws.finish(mins(3), &snap(5));
        let rows = &ws.closed;
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].faults.exec_failures, 0, "snapshot 2 arrives after w0 closes");
        assert_eq!(rows[1].faults.exec_failures, 2);
        assert_eq!(rows[2].faults.exec_failures, 3);
        let sum: u64 = rows.iter().map(|w| w.faults.exec_failures).sum();
        assert_eq!(sum, 5, "deltas must telescope to the cumulative count");
    }

    #[test]
    fn econ_deltas_are_per_window_and_none_until_observed() {
        use cloudburst_econ::Money;
        let mut ws = WindowSeries::new(WindowConfig {
            window: SimDuration::from_mins(1),
            oo_tolerance: 0,
        });
        let snap = |usd: i64, rejected: u64| EconWindow {
            compute: Money::from_usd(usd),
            rejected,
            ..EconWindow::default()
        };
        // Window 0 closes before any econ observation → None.
        ws.heartbeat(mins(1), &FaultMetrics::default());
        ws.observe_econ(mins(1), snap(2, 1));
        ws.observe_econ(mins(2), snap(5, 1));
        ws.finish(mins(3), &FaultMetrics::default());
        let rows = &ws.closed;
        assert_eq!(rows.len(), 3);
        assert!(rows[0].econ.is_none(), "no econ observed while window 0 was open");
        let w1 = rows[1].econ.expect("window 1 carries the first snapshot");
        assert_eq!(w1.compute, Money::from_usd(2));
        assert_eq!(w1.rejected, 1);
        let w2 = rows[2].econ.expect("window 2 carries the delta");
        assert_eq!(w2.compute, Money::from_usd(3));
        assert_eq!(w2.rejected, 0, "deltas, not cumulative counts");
    }

    #[test]
    fn drain_keeps_series_running() {
        let mut ws = WindowSeries::new(WindowConfig {
            window: SimDuration::from_mins(1),
            oo_tolerance: 0,
        });
        for i in 0..10u64 {
            ws.on_admit(i, mins(i));
            ws.on_complete(i, mins(i), 1, 0.0, None);
        }
        let first = ws.drain_closed();
        assert_eq!(first.len(), 9);
        assert!(ws.closed.is_empty());
        ws.finish(mins(11), &FaultMetrics::default());
        let rest = ws.drain_closed();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].index, 9, "indices continue across drains");
        assert_eq!(ws.total_completed(), 10);
    }

    #[test]
    fn backlog_tracks_out_of_order_completions() {
        let mut ws = WindowSeries::new(WindowConfig::default());
        for i in 0..5u64 {
            ws.on_admit(i, mins(0));
        }
        for i in (1..5u64).rev() {
            ws.on_complete(i, mins(1), 1, 60.0, None);
        }
        assert_eq!(ws.frontier.pending.len(), 4, "everything waits on seq 0");
        ws.on_complete(0, mins(2), 1, 120.0, None);
        assert_eq!(ws.frontier.pending.len(), 0, "straggler unlocks the whole prefix");
    }
}
