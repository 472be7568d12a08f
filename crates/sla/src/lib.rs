//! `cloudburst-sla` — service-level-agreement metrics.
//!
//! Implements the metrics of Sec. II of the paper (the slackness constraint,
//! Eq. 1–2, is a scheduling decision and lives in `cloudburst-sched`):
//!
//! * [`ooo`] — the Out-of-Order metric (Eq. 3–6): how much *ordered* output
//!   is available to the downstream consumer at each sampling instant, under
//!   a tolerance limit.
//! * [`metrics`] — makespan (Eq. 7), machine/pool utilization (Eq. 8–9),
//!   speed-up (Eq. 10) and burst ratio (Eq. 11–12).
//! * [`report`] — a serializable per-run SLA report aggregating all of the
//!   above, plus the completion-delay series used by Figs. 7 and 8.
//! * [`ticket`] — completion tickets ("your job will finish by t") and the
//!   empirical probabilistic-guarantee machinery of the paper's abstract.
//! * [`faults`] — fault-attributed accounting for chaos-injected runs:
//!   retry/re-dispatch counters and makespan/OO degradation versus the
//!   fault-free twin run.
//! * [`window`] — the windowed (streaming) variant of the report for
//!   open-system serving: per-window OO, completion-rate, turnaround,
//!   ticket and fault aggregates with O(live + windows) memory.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod faults;
pub mod metrics;
pub mod ooo;
pub mod report;
pub mod ticket;
pub mod window;

pub use faults::{fault_attribution, FaultAttribution, FaultMetrics};
pub use metrics::{burst_ratio, makespan, speedup};
pub use ooo::{oo_series, CompletionRecord, OoConfig, OoSample};
pub use report::RunReport;
pub use window::{ServeReport, WindowConfig, WindowSeries, WindowStats};
pub use ticket::{ticket_report, TicketOutcome, TicketReport};
