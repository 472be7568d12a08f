//! `cloudburst-workload` — synthetic document-processing workload generation.
//!
//! The paper evaluates its schedulers on proprietary production documents
//! (newspapers, books, mail campaigns, …) varying from 1 MB to 300 MB. This
//! crate is the substitution substrate (see DESIGN.md §2): it generates
//! synthetic documents whose *feature distributions* match what the paper
//! reports — three size buckets (small-biased, uniform, large-biased),
//! Poisson batch arrivals (λ = 15 per batch, one batch every 3 minutes), and
//! a quadratic ground-truth processing-time law with heavy-tailed noise so
//! that the learned QRSM has realistic, non-zero estimation error.
//!
//! Modules:
//!
//! * [`document`] — document feature vectors and job types.
//! * [`truth`] — the ground-truth processing-time law (what the simulated
//!   machines actually take; schedulers never see this directly).
//! * [`job`] — the `Job` record flowing through queues and schedulers.
//! * [`bucket`] — the three job-size distributions of Sec. V-A.
//! * [`arrival`] — the Poisson batch arrival process.
//! * [`open`] — the open-system (unbounded, lazily generated) variant with
//!   diurnal rate envelope and flash-crowd bursts.
//! * [`chunk`] — `pdfchunk` splitting used by the Order-Preserving scheduler
//!   (Algorithm 2, lines 3–10).
//! * [`stats`] — dependency-free samplers (normal, lognormal, Poisson) and
//!   the sliding-window σ of Algorithm 2.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod arrival;
pub mod bucket;
pub mod chunk;
pub mod document;
pub mod job;
pub mod open;
pub mod stats;
pub mod trace;
pub mod truth;

pub use arrival::{ArrivalConfig, Batch, BatchArrivals};
pub use open::{BurstModel, OpenArrivalConfig, OpenArrivals, RateEnvelope};
pub use bucket::SizeBucket;
pub use trace::WorkloadTrace;
pub use chunk::{chunk_job, chunked_len, ChunkPolicy, ChunkStream};
pub use document::{DocumentFeatures, JobType};
pub use job::{Job, JobId, ParentId};
pub use truth::GroundTruth;
