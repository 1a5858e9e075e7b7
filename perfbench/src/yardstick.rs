//! A fixed workload, independent of the simulator, that tracks the host's
//! current speed.
//!
//! Shared hosts change speed by up to 2x over seconds to minutes. The
//! end-to-end figures divide each pass's host time by the yardstick timed
//! next to it and report it at [`NOMINAL_NS`] per yardstick, so a slow
//! stretch of the host does not read as a slow simulator. The yardstick
//! updates a small `std` `HashMap`, the same kind of work as the
//! simulator's per-page tables, so both slow down alike. It stays small so
//! that its memory does not show in the peak resident set of a pass.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::thread;
use std::time::Instant;

use crate::stats::median;

/// Map keys: 16k, like the per-page tables of a registry app.
const KEYS: u64 = 1 << 14;
/// Map updates per measurement.
const STEPS: u64 = 300_000;
/// Measurements per sample; the median is kept.
const REPS: usize = 5;

/// Host nanoseconds of one yardstick on the reference host: figures are
/// reported as if every yardstick had taken this long.
pub const NOMINAL_NS: f64 = 5.0e6;

/// Runs the fixed workload once and returns its host nanoseconds. The map
/// is filled before the clock starts, so the timed part allocates nothing
/// and touches no fresh memory: page-fault costs stay out of it. Its hasher
/// has fixed keys, so every process probes the same buckets.
fn measure_ns() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        (0..KEYS).map(|k| (k, 0)).collect();
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x & (KEYS - 1)).or_insert(0) += i;
    }
    black_box(&map);
    start.elapsed().as_nanos() as u64
}

/// The median of [`REPS`] yardstick runs, in host nanoseconds. Each run
/// executes on `threads` threads at once, as many as the workload uses,
/// and counts their mean time.
pub fn sample_ns(threads: usize) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let times: Vec<u64> = thread::scope(|s| {
                let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(measure_ns)).collect();
                handles.into_iter().map(|h| h.join().unwrap_or(0)).collect()
            });
            times.iter().sum::<u64>() as f64 / times.len() as f64
        })
        .collect();
    median(&runs)
}

/// Scales `host_ns` measured while the yardstick took `yardstick_ns` to
/// the reference host.
pub fn normalize(host_ns: f64, yardstick_ns: f64) -> f64 {
    host_ns * NOMINAL_NS / yardstick_ns
}
