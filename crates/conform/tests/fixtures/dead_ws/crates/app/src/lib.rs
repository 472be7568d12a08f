#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![deny(missing_debug_implementations)]

#[cfg(test)]
mod tests {
    #[test]
    fn reaches_into_sim() {
        assert_eq!(cloudburst_sim::cases::from_other_crate_test(), 3);
    }
}
