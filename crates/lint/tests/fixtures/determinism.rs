//! Seeded determinism violation (lint fixture — never compiled). Wall
//! clock and unseeded randomness are clippy's (root `clippy.toml`); the
//! hash-order rule stays here.

use std::collections::HashMap;

pub struct Telemetry {
    samples: HashMap<u64, u64>,
}

pub fn total(t: &Telemetry) -> u64 {
    let mut total = 0;
    for (_, v) in &t.samples {
        total += v;
    }
    total
}
