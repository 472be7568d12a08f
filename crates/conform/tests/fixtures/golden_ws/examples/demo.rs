fn main() {
    let hits = std::collections::HashMap::new();
    let _ = cloudburst_sim::clock::stamp(&hits);
    let _ = cloudburst_bench::run::run(&[cloudburst_repro::id(1)]);
}
