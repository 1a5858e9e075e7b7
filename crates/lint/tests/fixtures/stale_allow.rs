// Fixture: stale-allow detection. Linted under the synthetic path
// crates/sim/src/fixture_stale_allow.rs. An allow that suppresses a
// real violation is consumed; one sitting on a clean line — or naming
// a rule id no rule consumes — is itself flagged.

use std::collections::HashMap;

pub struct Tallies {
    counts: HashMap<u64, u64>,
}

pub fn total(t: &Tallies) -> u64 {
    let mut total = 0;
    for (_, v) in &t.counts { // lint:allow(hash-iteration) — order-free sum
        total += v;
    }
    total // lint:allow(hash-iteration) — suppresses nothing, stale
}

pub fn untouched(x: u64) -> u64 {
    x + 1 // lint:allow(mix-ordering) — unknown rule id, always stale
}

pub fn constant_pin(x: u64) -> u64 {
    x + 1 // lint:allow(paper-constants) — manifest checks never consume allows
}

pub fn spec_pin(x: u64) -> u64 {
    x + 1 // lint:allow(explore-specs) — spec findings sit on JSON files
}
