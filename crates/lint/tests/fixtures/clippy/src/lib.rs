//! Seeded violations of the workspace clippy configuration (root
//! `clippy.toml` plus `[workspace.lints.clippy]`). Compiles under rustc;
//! clippy must reject it. Every line that must fire ends in a
//! `// fires: <lint>[, <lint>..]` marker, and `scripts/verify.sh` checks
//! that clippy reports exactly those (line, lint) pairs and no others.

use std::hash::BuildHasher;

pub fn host_elapsed_ns() -> u128 {
    std::time::Instant::now().elapsed().as_nanos() // fires: clippy::disallowed_methods, clippy::disallowed_types
}

pub fn host_epoch_s() -> u64 {
    std::time::SystemTime::now() // fires: clippy::disallowed_methods, clippy::disallowed_types
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

// The lints resolve types, so an alias does not hide the clock.
type HostClock = std::time::Instant; // fires: clippy::disallowed_types

pub fn aliased_elapsed_ns() -> u128 {
    HostClock::now().elapsed().as_nanos() // fires: clippy::disallowed_methods
}

pub fn unseeded_hash(x: u64) -> u64 {
    std::hash::RandomState::new().hash_one(x) // fires: clippy::disallowed_methods
}

pub fn first(x: Option<u32>) -> u32 {
    x.unwrap() // fires: clippy::unwrap_used
}

pub fn second(x: Option<u32>) -> u32 {
    x.expect("second is set") // fires: clippy::expect_used
}

pub fn ordered(a: u32, b: u32) -> u32 {
    if a > b {
        panic!("a exceeds b"); // fires: clippy::panic
    }
    b - a
}

pub fn parity(x: u32) -> u32 {
    match x % 2 {
        0 => 0,
        1 => 1,
        _ => unreachable!(), // fires: clippy::unreachable
    }
}

pub fn later() -> u32 {
    todo!() // fires: clippy::todo
}

#[expect(clippy::unwrap_used, reason = "a fulfilled expectation stays silent")]
pub fn audited(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "nothing below expects: stale")] // fires: unfulfilled_lint_expectations
pub fn clean(x: u32) -> u32 {
    x.saturating_add(1)
}
