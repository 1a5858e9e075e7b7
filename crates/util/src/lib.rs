//! `uvm-util`: the hermetic utility layer for the HPE workspace.
//!
//! Every crate in this workspace builds with **zero external dependencies**
//! so the tier-1 verify (`cargo build --release && cargo test -q`) runs
//! fully offline. This crate supplies the small, deterministic replacements
//! for what the seed previously pulled from crates.io:
//!
//! - [`rng`] — a seeded SplitMix64/xoshiro256** PRNG (replaces `rand`).
//! - [`json`] — a JSON value type, serializer, parser and derive-style
//!   macros (replaces `serde`/`serde_json`).
//! - [`prop`] — a deterministic, seed-reporting property-test harness
//!   (replaces `proptest`).
//! - [`bench`] — a micro-benchmark timer with a criterion-shaped API
//!   (replaces `criterion`).
//! - [`hist`] — a fixed-bucket [`Histogram`] for the tracing layer's
//!   distribution series (no external dependency ever existed for this;
//!   it lives here so every crate can record and serialize one).
//! - [`fnv1a`] — the 64-bit digest behind every spec and mix fingerprint.
//!
//! Determinism contract: the PRNG algorithm and the property-harness seed
//! derivation are frozen. Changing either invalidates every golden-trace
//! snapshot in the workspace, so treat them as ABI.

#![forbid(unsafe_code)]

pub mod bench;
pub mod hist;
pub mod json;
pub mod prop;
pub mod rng;
pub mod strict;

pub use hist::Histogram;
pub use json::{FromJson, Json, JsonError, ToJson};
pub use rng::Rng;
pub use strict::check_unknown_fields;

/// FNV-1a, 64-bit: a tiny deterministic digest for spec and mix
/// fingerprints. Collision resistance is not a goal; catching accidental
/// input drift across a kill/resume is.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv1a;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
