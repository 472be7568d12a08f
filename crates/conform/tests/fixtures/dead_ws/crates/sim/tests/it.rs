#[test]
fn integration() {
    assert_eq!(cloudburst_sim::cases::from_integration_test(), 4);
}
