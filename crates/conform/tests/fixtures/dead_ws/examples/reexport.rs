fn main() {
    let _ = cloudburst_repro::sim::cases::via_reexport();
}
