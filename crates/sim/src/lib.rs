//! `cloudburst-sim` — a small, deterministic discrete-event simulation (DES)
//! kernel used by every other crate in the cloudburst workspace.
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time with
//!   total ordering (no floating-point time comparisons anywhere in the hot
//!   path).
//! * [`Sim`] — an event queue with a stable FIFO tie-break for simultaneous
//!   events, cancellation tokens, and `run`/`run_until`/`step` drivers. The
//!   kernel is generic over a user-supplied world state `W`, so higher layers
//!   (network, cluster, full pipeline) plug their own state in without any
//!   dynamic downcasting.
//! * [`rng`] — reproducible per-component random streams derived from a single
//!   experiment seed, so every figure in the paper regenerates byte-identically.
//!
//! # Example
//!
//! ```
//! use cloudburst_sim::{Sim, SimDuration, SimTime};
//!
//! let mut sim: Sim<Vec<u64>> = Sim::new();
//! sim.schedule_in(SimDuration::from_secs(5), |w: &mut Vec<u64>, sim| {
//!     w.push(sim.now().as_micros());
//! });
//! let mut world = Vec::new();
//! sim.run(&mut world);
//! assert_eq!(world, vec![5_000_000]);
//! assert_eq!(sim.now(), SimTime::from_secs(5));
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod event;
pub mod fxhash;
pub mod rng;
pub mod time;

pub use event::{EventId, Sim};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use rng::RngFactory;
pub use time::{SimDuration, SimTime};
