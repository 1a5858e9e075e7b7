//! Start-up calibration of the hook timer.
//!
//! Each timed hook call reads the clock twice. Part of that cost lands
//! inside the measured interval (the *bias*: what a hook doing nothing
//! records) and all of it lands on the run (the *pair* cost). Both are
//! measured here through the real [`Timed`] wrapper around a policy whose
//! hooks are empty, so the figures match the code path being measured.

use std::hint::black_box;
use std::time::Instant;

use uvm_policies::{EvictionPolicy, FaultOutcome};
use uvm_types::PageId;

use crate::stats::median;
use crate::timed::{HookTally, Timed};

/// Calls per calibration round.
const CALLS: u64 = 200_000;
/// Calibration rounds; the median round is kept.
const ROUNDS: usize = 7;

/// A policy whose hooks do nothing.
#[derive(Debug)]
struct Empty;

impl EvictionPolicy for Empty {
    fn name(&self) -> String {
        "empty".to_string()
    }
    fn on_fault(&mut self, _page: PageId, _fault_num: u64) -> FaultOutcome {
        FaultOutcome::default()
    }
    fn select_victim(&mut self) -> Option<PageId> {
        None
    }
}

/// Measured cost of the hook timer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockCal {
    /// Nanoseconds an empty timed hook records.
    pub bias_ns: f64,
    /// Host nanoseconds one timed empty hook call takes.
    pub pair_ns: f64,
}

impl ClockCal {
    /// Times [`CALLS`] empty hook calls [`ROUNDS`] times and keeps the
    /// median round.
    pub fn measure() -> ClockCal {
        let mut bias = Vec::with_capacity(ROUNDS);
        let mut pair = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let mut policy = Timed::new(Empty);
            let start = Instant::now();
            for i in 0..CALLS {
                policy.on_access(black_box(PageId(i)));
            }
            let wall = start.elapsed().as_nanos() as f64;
            bias.push(policy.tally().raw_ns() as f64 / CALLS as f64);
            pair.push(wall / CALLS as f64);
        }
        ClockCal {
            bias_ns: median(&bias),
            pair_ns: median(&pair),
        }
    }

    /// Hook nanoseconds in `tally` with the timer's bias removed.
    pub fn hook_ns(&self, tally: &HookTally) -> f64 {
        (tally.raw_ns() as f64 - tally.total_calls() as f64 * self.bias_ns).max(0.0)
    }

    /// Whether a per-call figure of `ns` is above the timer's own cost,
    /// i.e. resolvable by it.
    pub fn resolves(&self, ns: f64) -> bool {
        ns >= self.pair_ns
    }
}
