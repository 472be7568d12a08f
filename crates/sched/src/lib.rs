//! `cloudburst-sched` — the three autonomic cloud-bursting schedulers
//! (Sec. IV of the paper) plus the IC-only baseline and the rescheduling
//! extensions sketched in Sec. IV-D.
//!
//! Schedulers are *traffic-oblivious*: they see only the current system
//! state (machine availability, queue backlogs) through estimated
//! quantities — QRSM execution-time predictions and time-of-day bandwidth
//! predictions — never the ground truth the simulation engine executes.
//!
//! * [`api`] — placement decisions, the [`LoadModel`] snapshot the engine
//!   hands to the scheduler, and the [`api::Planner`] every kind plans with.
//! * [`scheduler`] — [`SchedulerKind`] and [`BatchPlan`], the one batch
//!   planner for all five kinds, fed one job at a time from [`batch_jobs`]
//!   (the engine admits each job as it is placed; [`schedule_batch`]
//!   collects the same stream): Algorithm 1 (Greedy: place each job where
//!   it finishes earliest), Algorithm 2 (Op: chunk for variance reduction,
//!   then burst only jobs whose EC round trip fits their slack, Eq. 2), Op
//!   without the chunk pass, Algorithm 3 (SIBS: Op plus size-interval
//!   bandwidth splitting) and the IC-only baseline that never bursts.
//! * [`estimates`] — the [`EstimateProvider`] bundling the QRSM and the
//!   bandwidth predictors into per-job estimates.
//! * [`freetime`] — the indexed free-time tracker and incremental
//!   outstanding-completions pool backing the engine's sub-linear
//!   decision loop.
//! * [`drain`] — the depth-flat hybrid FCFS drain: fluid water-fill of
//!   the deep queue prefix, exact tail-window replay on top.
//! * [`resched`] — pull-back / push-out rescheduling triggered on idle
//!   events (the paper's Sec. IV-D mitigation for estimation errors).

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod api;
pub mod drain;
pub mod estimates;
pub mod freetime;
pub mod resched;
pub mod scheduler;

pub use api::{BatchSchedule, LoadModel, LoadModelBuf, Placement, ScheduledJob};
pub use drain::{fluid_fill_level, FluidScratch, DRAIN_WINDOW};
pub use freetime::{FreeTimeIndex, OutstandingSet};
pub use resched::eq1_slack;
pub use estimates::{EstimateProvider, ProcTimeModel};
pub use scheduler::{batch_jobs, schedule_batch, scheduled_len, BatchPlan, SchedulerKind};
