//! `cloudburst-bench` — the experiment harness.
//!
//! One function per table/figure of the paper (plus the ablations and
//! extensions listed in DESIGN.md §4), each returning an [`ExpOutput`] with
//! the rendered rows/series and a machine-readable JSON summary. The
//! `repro` binary dispatches on experiment id:
//!
//! ```text
//! cargo run --release -p cloudburst-bench --bin repro -- fig6
//! cargo run --release -p cloudburst-bench --bin repro -- all
//! ```
//!
//! Criterion micro-benchmarks for the hot components live in `benches/`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod econ_sweep;
pub mod experiments;
pub mod runner;
pub mod svg;

pub use econ_sweep::{econ_sweep_table, price_regimes};
pub use experiments::{all_ids, run_experiment_by_id, ExpOutput};
pub use runner::{mean_of, run_replications};
pub use svg::{Chart, Series};
