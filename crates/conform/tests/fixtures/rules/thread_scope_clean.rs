// Clean: the per-item work runs inline, in input order, on the caller's
// thread; a fan-out across runs lives in the orchestration layer.
pub fn fan_out(items: &[u64], f: impl Fn(u64)) {
    for &it in items {
        f(it);
    }
}
