// Clean: the per-item work runs inline, in input order; parallel fan-out
// across runs lives in the orchestration layer, not in ad-hoc scoped
// threads.
pub fn fan_out_inline(items: &[u64], f: impl Fn(u64)) {
    for &it in items {
        f(it);
    }
}
