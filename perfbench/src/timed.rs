//! [`Timed`]: a forwarding [`EvictionPolicy`] wrapper that counts and
//! times every hook call, with static dispatch.
//!
//! The wrapper changes no decision: every hook and every read-only
//! accessor forwards to the inner policy, so a wrapped run's `SimStats`
//! equal the unwrapped run's (see `tests/wrapper_fidelity.rs`). Hook time
//! is accumulated per run, not recorded per call; it includes the clock's
//! own cost, which [`crate::clock::ClockCal`] measures and subtracts.

use std::time::Instant;

use uvm_policies::{EvictionPolicy, FaultOutcome};
use uvm_types::{PageId, PolicyEvent, PolicyStats, SignalDisruption};

/// The timed policy hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    /// [`EvictionPolicy::on_access`].
    OnAccess,
    /// [`EvictionPolicy::on_walk_hit`].
    OnWalkHit,
    /// [`EvictionPolicy::on_fault`].
    OnFault,
    /// [`EvictionPolicy::select_victim`].
    SelectVictim,
    /// [`EvictionPolicy::on_memory_full`].
    OnMemoryFull,
    /// [`EvictionPolicy::on_disruption`].
    OnDisruption,
}

impl Hook {
    /// Every hook, in report order.
    pub const ALL: [Hook; 6] = [
        Hook::OnAccess,
        Hook::OnWalkHit,
        Hook::OnFault,
        Hook::SelectVictim,
        Hook::OnMemoryFull,
        Hook::OnDisruption,
    ];

    /// The hook's method name.
    pub fn label(self) -> &'static str {
        match self {
            Hook::OnAccess => "on_access",
            Hook::OnWalkHit => "on_walk_hit",
            Hook::OnFault => "on_fault",
            Hook::SelectVictim => "select_victim",
            Hook::OnMemoryFull => "on_memory_full",
            Hook::OnDisruption => "on_disruption",
        }
    }
}

/// Call counts and raw (uncalibrated) nanoseconds per hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTally {
    calls: [u64; 6],
    ns: [u64; 6],
}

impl HookTally {
    fn record(&mut self, hook: Hook, start: Instant) {
        let i = hook as usize;
        self.calls[i] += 1;
        self.ns[i] += start.elapsed().as_nanos() as u64;
    }

    /// Calls of `hook`.
    pub fn calls(&self, hook: Hook) -> u64 {
        self.calls[hook as usize]
    }

    /// Calls of every hook.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Raw nanoseconds measured inside every hook, clock cost included.
    pub fn raw_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds `other`'s counts and times to this tally.
    pub fn merge(&mut self, other: &HookTally) {
        for i in 0..self.calls.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
    }
}

/// Wraps a policy, counting and timing its hooks.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    tally: HookTally,
}

impl<P> Timed<P> {
    /// Wraps `inner` with an empty tally.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            tally: HookTally::default(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The hooks counted and timed so far.
    pub fn tally(&self) -> HookTally {
        self.tally
    }
}

impl<P: EvictionPolicy> EvictionPolicy for Timed<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_access(&mut self, page: PageId) {
        let start = Instant::now();
        self.inner.on_access(page);
        self.tally.record(Hook::OnAccess, start);
    }

    fn on_walk_hit(&mut self, page: PageId) {
        let start = Instant::now();
        self.inner.on_walk_hit(page);
        self.tally.record(Hook::OnWalkHit, start);
    }

    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        let start = Instant::now();
        let outcome = self.inner.on_fault(page, fault_num);
        self.tally.record(Hook::OnFault, start);
        outcome
    }

    fn on_memory_full(&mut self) {
        let start = Instant::now();
        self.inner.on_memory_full();
        self.tally.record(Hook::OnMemoryFull, start);
    }

    fn select_victim(&mut self) -> Option<PageId> {
        let start = Instant::now();
        let victim = self.inner.select_victim();
        self.tally.record(Hook::SelectVictim, start);
        victim
    }

    fn on_disruption(&mut self, disruption: SignalDisruption) {
        let start = Instant::now();
        self.inner.on_disruption(disruption);
        self.tally.record(Hook::OnDisruption, start);
    }

    fn stats(&self) -> PolicyStats {
        self.inner.stats()
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.inner.set_tracing(enabled);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(PolicyEvent)) {
        self.inner.drain_events(sink);
    }

    fn hir_fill(&self) -> u64 {
        self.inner.hir_fill()
    }

    fn is_degraded(&self) -> bool {
        self.inner.is_degraded()
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}
