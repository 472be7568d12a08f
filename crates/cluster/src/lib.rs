//! `cloudburst-cluster` — simulated compute clouds.
//!
//! Stands in for the paper's prototype infrastructure (8-VM Hadoop cluster
//! in the internal cloud, Amazon Elastic MapReduce in the external cloud —
//! Sec. III-B / V-A). Because the workload is embarrassingly parallel and
//! modelled at job/chunk granularity, a cloud reduces to a pool of machines
//! with an FCFS wait queue: exactly the state the paper's schedulers
//! observe. See DESIGN.md §2 for the substitution argument.
//!
//! The cloud is a passive component in the same style as
//! `cloudburst_net::Link`: the engine calls [`Cloud::advance_into`] to collect
//! completions up to the current instant and [`Cloud::next_wake`] to learn
//! when the next machine frees up.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cloud;
pub mod machine;

pub use cloud::{Cloud, ExecCompletion, PoolBoundary};
pub use machine::{Machine, MachineId};
