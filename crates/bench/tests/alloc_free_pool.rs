//! Allocation discipline of the multi-run map (own binary, own
//! process-global counter, mirroring `crates/core/tests/alloc_free.rs`):
//!
//! * the `ShardPool` inline path is allocation-free once its output
//!   buffer has warmed up;
//! * the parallel path allocates per worker spawned, measured identical
//!   for a 1 000-item and a 10 000-item map — never per item.

use cloudburst_bench::ShardPool;
use cloudburst_testsupport::{allocations, CountingAlloc};

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

// One test function: the counter is process-global, so concurrent tests in
// this binary would pollute each other's deltas.
#[test]
fn pool_allocations_do_not_scale_with_items() {
    // --- Inline path: allocation-free once warm. ---
    let items: Vec<u64> = (0..10_000).collect();
    let inline = ShardPool::new(1);
    let mut out: Vec<u64> = Vec::new();
    inline.map_ordered_into(&items, &mut out, |_, &x| x.wrapping_mul(2_654_435_761));
    let (n, _) = allocations(|| {
        for _ in 0..50 {
            inline.map_ordered_into(&items, &mut out, |_, &x| x.wrapping_mul(2_654_435_761));
        }
    });
    assert_eq!(n, 0, "warm inline fan-out must not allocate");

    // --- Parallel path: per-call overhead, independent of item count. ---
    let pool = ShardPool::new(4);
    let small = &items[..1_000];
    let warm = |items: &[u64], out: &mut Vec<u64>| {
        pool.map_ordered_into(items, out, |_, &x| x.wrapping_mul(2_654_435_761));
    };
    let mut out_small: Vec<u64> = Vec::new();
    let mut out_large: Vec<u64> = Vec::new();
    warm(small, &mut out_small);
    warm(&items, &mut out_large);
    let (n_small, _) = allocations(|| warm(small, &mut out_small));
    let (n_large, _) = allocations(|| warm(&items, &mut out_large));
    assert_eq!(
        n_small, n_large,
        "parallel fan-out allocations must not scale with item count"
    );
}
