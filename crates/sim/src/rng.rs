//! Deterministic per-component random streams.
//!
//! Each stochastic component of an experiment (arrival process, job sizes,
//! bandwidth jitter, service noise, …) draws from its own RNG derived from
//! the experiment's master seed plus a stable component label. Adding a new
//! component therefore never perturbs the streams of existing components,
//! which keeps regression comparisons between code versions meaningful.
//!
//! The derivation is FNV-1a over the label folded into the seed through a
//! few rounds of splitmix64 — dependency-free and stable across platforms and
//! compiler versions (unlike `std::hash::DefaultHasher`, whose algorithm is
//! unspecified).

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent, reproducible [`StdRng`] streams from one master seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RngFactory {
    seed: u64,
}

impl RngFactory {
    /// Creates a factory for the given experiment seed.
    pub fn new(seed: u64) -> Self {
        RngFactory { seed }
    }

    /// Returns the RNG stream for a component label, e.g. `"arrivals"` or
    /// `"bandwidth/jitter"`. The same `(seed, label)` pair always yields the
    /// same stream.
    pub fn stream(&self, label: &str) -> StdRng {
        let mut state = splitmix64(self.seed ^ fnv1a(label.as_bytes()));
        let mut key = [0u8; 32];
        for chunk in key.chunks_mut(8) {
            state = splitmix64(state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        StdRng::from_seed(key)
    }

    /// Convenience for per-entity streams: `stream` with a numeric suffix.
    pub fn stream_indexed(&self, label: &str, index: u64) -> StdRng {
        let mut state = splitmix64(self.seed ^ fnv1a(label.as_bytes()) ^ splitmix64(index));
        let mut key = [0u8; 32];
        for chunk in key.chunks_mut(8) {
            state = splitmix64(state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        StdRng::from_seed(key)
    }
}

/// FNV-1a 64-bit hash (stable, public-domain constants).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One round of splitmix64 (Steele, Lea, Flood 2014) — a strong, cheap
/// bit-mixing finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = f.stream("x").sample_iter(rand::distributions::Standard).take(8).collect();
        let b: Vec<u64> = f.stream("x").sample_iter(rand::distributions::Standard).take(8).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(42);
        let a: u64 = f.stream("x").gen();
        let b: u64 = f.stream("y").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngFactory::new(1).stream("x").gen();
        let b: u64 = RngFactory::new(2).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_independent() {
        let f = RngFactory::new(7);
        let a: u64 = f.stream_indexed("m", 0).gen();
        let b: u64 = f.stream_indexed("m", 1).gen();
        assert_ne!(a, b);
        let a2: u64 = f.stream_indexed("m", 0).gen();
        assert_eq!(a, a2);
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
