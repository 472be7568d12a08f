// Violates determinism/thread-spawn: std scoped workers are still OS
// threads — a deterministic crate must stay single-threaded, however the
// workers are joined.
pub fn fan_out(items: &[u64], f: impl Fn(u64) + Sync) {
    std::thread::scope(|s| {
        for &it in items {
            let f = &f;
            s.spawn(move || f(it));
        }
    });
}
