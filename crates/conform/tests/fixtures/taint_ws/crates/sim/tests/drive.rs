//! Fixture: the integration test that reaches both library fns, so the
//! taint pair carries no dead/unreached-fn finding.

#[test]
fn merges() {
    cloudburst_sim::merge::merge_all();
}
