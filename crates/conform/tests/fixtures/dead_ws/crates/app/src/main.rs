use cloudburst_sim::cases::{self, renamed as alias};

fn main() {
    let named = vec![cases::passed_to_macro];
    let total = cases::from_bin() + cases::run(cases::passed_as_value) + alias() + named.len() as u64;
    let _ = (total, cases::Gadget::build());
}
