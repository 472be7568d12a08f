//! The host gauge: a fixed reference workload, timed in short slices
//! between stretches of engine work, that states the end-to-end times at
//! one reference host speed.
//!
//! The baseline host is a VM whose cores are shared with other tenants.
//! Its speed drifts by up to 1.7x over seconds to minutes, and no
//! statistic over one invocation's own reps removes a drift that lasts the
//! whole invocation. The gauge slows with the engine because it does the
//! same kind of work: hashing into a map, sorting, and popping and pushing
//! a binary heap, all within the core's own caches. Across the reps of
//! three 40-run sets, its mean slice time tracked the rep time with
//! correlation 0.74–0.85 on `closed-op` and 0.88–0.98 on the other three
//! workloads. Independent floating-point and integer lanes, random reads
//! and a pointer chase over an 8 MB table, and a stream over 64 MB each
//! tracked worse alone. Mixed in beside it with fitted weights, they moved
//! the spreads by 0.03 at most, and not the same way from one set to the
//! next (README, "Baseline and bounds").
//!
//! Work with a small working set slows harder than the gauge. Over five
//! 10-seed sets, log host seconds per job rose 1.3–1.4 times as fast as
//! log slice time on the `serve-diurnal` and `paper-sweep` runs, 1.1–1.6
//! times as fast on set-up, and 1.06 times as fast on the heap-heavy
//! `closed-op` and `chaos-econ` runs. [`at_reference`] takes that
//! elasticity, rounded to 1.5 or 1.
//!
//! The gauge's own time is paused out of [`Gauge::clock`], so engine
//! timings never include it. A slice reuses buffers made up front and
//! allocates nothing, so it leaves the heap high-water mark alone.

// The gauge must not run the program's own code, or a change to, say, the
// workspace hasher would move the gauge with the engine and cancel out.
// So it keeps std's map, with a fixed-key hasher in place of the random
// one the ban is about.
#![allow(clippy::disallowed_types)]

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// A slice runs once this many seconds have passed since the last one.
const SLICE_EVERY_SECS: f64 = 0.005;

/// Keys hashed into the map per slice, drawn from twice as many values.
const MAP_INSERTS: u64 = 2_000;
/// Entries kept in the event-queue-like heap; each slice pops and pushes
/// [`HEAP_OPS`] of them.
const HEAP_LEN: usize = 4_096;
const HEAP_OPS: usize = 512;

/// About the median slice time of the baseline host while the baseline
/// was recorded. Changing it rescales every recorded baseline.
pub const REFERENCE_SLICE_SECS: f64 = 145e-6;

/// `secs` measured while the gauge's mean slice took `slice_secs`, stated
/// at the reference host speed: `secs × (REFERENCE_SLICE_SECS ÷
/// slice_secs)^elasticity`. The elasticity says how much harder than the
/// gauge the timed work slows under contention (see README).
pub fn at_reference(secs: f64, slice_secs: f64, elasticity: f64) -> f64 {
    secs * (REFERENCE_SLICE_SECS / slice_secs).powf(elasticity)
}

/// Deterministic SipHash (fixed zero keys), so every process hashes the
/// same keys into the same buckets.
type Map = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

#[derive(Debug)]
pub struct Gauge {
    on: bool,
    map: Map,
    values: Vec<u64>,
    heap: BinaryHeap<Reverse<u64>>,
    rng: u64,
    origin: Instant,
    last: Instant,
    /// Seconds spent in slices since `origin`.
    paused: f64,
    /// Slice seconds and count since [`Gauge::restart`].
    slice_secs: f64,
    slices: u64,
}

impl Gauge {
    /// A gauge whose [`tick`](Gauge::tick) runs slices.
    pub fn on() -> Gauge {
        let mut rng = 0x9e37_79b9_7f4a_7c15;
        let heap = (0..HEAP_LEN).map(|_| Reverse(xorshift(&mut rng))).collect();
        let now = Instant::now();
        Gauge {
            on: true,
            map: Map::with_capacity_and_hasher(2 * MAP_INSERTS as usize, Default::default()),
            values: Vec::with_capacity(2 * MAP_INSERTS as usize),
            heap,
            rng,
            origin: now,
            last: now,
            paused: 0.0,
            slice_secs: 0.0,
            slices: 0,
        }
    }

    /// A gauge that never runs a slice; its clock is the wall clock.
    pub fn off() -> Gauge {
        Gauge {
            on: false,
            ..Gauge::on()
        }
    }

    /// Seconds since the gauge was made, not counting its slices.
    pub fn clock(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.paused
    }

    /// Starts a new count of slices with one slice, so every count holds at
    /// least one.
    pub fn restart(&mut self) {
        (self.slice_secs, self.slices) = (0.0, 0);
        if self.on {
            self.timed_slice();
        }
    }

    /// Runs one slice if [`SLICE_EVERY_SECS`] have passed since the last.
    pub fn tick(&mut self) {
        if self.on && self.last.elapsed().as_secs_f64() >= SLICE_EVERY_SECS {
            self.timed_slice();
        }
    }

    /// Mean seconds per slice since [`Gauge::restart`]; 0 when off.
    pub fn mean_slice_secs(&self) -> f64 {
        self.slice_secs / self.slices.max(1) as f64
    }

    fn timed_slice(&mut self) {
        let start = Instant::now();
        black_box(self.slice());
        self.last = Instant::now();
        let secs = (self.last - start).as_secs_f64();
        self.paused += secs;
        self.slice_secs += secs;
        self.slices += 1;
    }

    /// The reference work: fill a map from random keys, look half the key
    /// space up, sort the map's values, and churn the heap.
    fn slice(&mut self) -> u64 {
        self.map.clear();
        for i in 0..MAP_INSERTS {
            let key = xorshift(&mut self.rng) % (2 * MAP_INSERTS);
            *self.map.entry(key).or_insert(0) += i;
        }
        let mut acc = (0..MAP_INSERTS).fold(0u64, |a, k| {
            a.wrapping_add(self.map.get(&k).copied().unwrap_or(0))
        });
        self.values.clear();
        self.values.extend(self.map.values().copied());
        self.values.sort_unstable();
        acc ^= self.values[self.values.len() / 2];
        for _ in 0..HEAP_OPS {
            let Reverse(at) = self.heap.pop().expect("the heap is never empty");
            let next = at + xorshift(&mut self.rng) % 1_000_000;
            self.heap.push(Reverse(next));
            acc = acc.wrapping_add(at);
        }
        acc
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slices reuse the buffers made up front. (Counting allocations
    /// directly would race with the tests running beside this one.)
    #[test]
    fn slices_never_grow_their_buffers() {
        let mut g = Gauge::on();
        let capacities = |g: &Gauge| (g.map.capacity(), g.values.capacity(), g.heap.capacity());
        let before = capacities(&g);
        for _ in 0..100 {
            g.slice();
        }
        assert_eq!(capacities(&g), before);
    }

    #[test]
    fn reference_scaling_follows_the_gauge() {
        let r = REFERENCE_SLICE_SECS;
        assert_eq!(at_reference(3.0, r, 1.5), 3.0);
        // A gauge twice as slow as its reference halves the stated time at
        // elasticity 1, and divides it by 2^1.5 at 1.5.
        assert_eq!(at_reference(3.0, 2.0 * r, 1.0), 1.5);
        assert!((at_reference(2f64.powf(1.5), 2.0 * r, 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slices_are_paused_out_of_the_clock() {
        let mut g = Gauge::on();
        g.restart();
        let wall = g.origin.elapsed().as_secs_f64();
        assert!(g.slices == 1 && g.mean_slice_secs() > 0.0);
        assert!(g.clock() <= wall - g.slice_secs + 1e-3);
        let mut off = Gauge::off();
        off.restart();
        off.tick();
        assert_eq!((off.slices, off.mean_slice_secs()), (0, 0.0));
    }
}
