use std::collections::HashMap;
use std::time::Instant;

pub fn stamp(m: &HashMap<u32, u32>) -> Instant {
    let _ = m.len();
    Instant::now()
}

pub fn drift() -> u64 {
    0
}
