//! The opt-in runtime sanitizer: cadenced structural invariant checks.
//!
//! The static side of the safety net (`uvm-lint`) proves properties of
//! the *source*; this module is the dynamic side, validating properties
//! of the *running* simulation that no lexer can see — residency
//! accounting, HIR occupancy, chain partitioning, and the recovery state
//! machines. The engine owns a [`Sanitizer`] only when one is installed
//! with `Simulation::set_sanitizer` and ticks it from its one tap, whose
//! detached cost is measured in `DESIGN.md` §12.
//!
//! Checks are read-only by contract: a sanitizer-on run must produce
//! byte-identical [`uvm_types::SimStats`] to a sanitizer-off run. On a
//! violation the engine returns [`uvm_types::SimError::InvariantViolated`]
//! — a typed, classifiable failure — never a panic, so chaos campaigns
//! can complete and count it like any other outcome.
//!
//! # Invariants checked
//!
//! Every `cadence` retired events (and once more at end of run) the
//! engine validates:
//!
//! * **residency-capacity** — resident pages never exceed configured
//!   capacity frames;
//! * **residency-conservation** — `resident + in-flight` equals
//!   `serviced + prefetched − evicted` (pages are neither minted nor
//!   leaked across evictions);
//! * **lru-shadow** — recency stamps are bounded by the shadow's
//!   monotone clock and track only resident pages (only when the
//!   `lru-shadow` fallback is active);
//! * **circuit-breaker** — the HIR breaker is open exactly when its
//!   failure count reached the threshold;
//! * **policy-structure** — whatever the policy's own
//!   `EvictionPolicy::check_invariants` claims (for HPE: each chain
//!   partition list walks to its stored length with symmetric links and
//!   matching slot tags, the lists hold every live entry, and the HIR
//!   cache's set/tag layout is self-consistent).
//!
//! # Examples
//!
//! ```
//! use uvm_sim::Sanitizer;
//!
//! let mut s = Sanitizer::new(4);
//! let due: Vec<bool> = (0..8).map(|_| s.tick()).collect();
//! assert_eq!(due, vec![false, false, false, true, false, false, false, true]);
//! assert_eq!(s.checks_run(), 2);
//! ```

/// Cadence bookkeeping for the engine's invariant checks.
///
/// Construct with [`Sanitizer::new`] and install via
/// `Simulation::set_sanitizer`. The struct holds no simulation state;
/// the engine calls [`Sanitizer::tick`] once per retired event and runs
/// its check pass whenever `tick` returns `true`.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    cadence: u64,
    events_seen: u64,
    checks_run: u64,
}

/// Default check cadence (events between passes): frequent enough to
/// localize a corruption, cheap enough for chaos campaigns.
pub const DEFAULT_SANITIZER_CADENCE: u64 = 1024;

impl Default for Sanitizer {
    fn default() -> Self {
        Sanitizer::new(DEFAULT_SANITIZER_CADENCE)
    }
}

impl Sanitizer {
    /// Creates a sanitizer that requests a check pass every `cadence`
    /// events. A cadence of 0 is clamped to 1 (check after every event).
    pub fn new(cadence: u64) -> Self {
        Sanitizer {
            cadence: cadence.max(1),
            events_seen: 0,
            checks_run: 0,
        }
    }

    /// The configured cadence in events.
    pub fn cadence(&self) -> u64 {
        self.cadence
    }

    /// Notes one retired event; returns `true` when a check pass is due.
    pub fn tick(&mut self) -> bool {
        self.events_seen += 1;
        let due = self.events_seen.is_multiple_of(self.cadence);
        if due {
            self.checks_run += 1;
        }
        due
    }

    /// Notes the end-of-run pass, which is due whatever the cadence
    /// phase: returns `true`, as [`Self::tick`] does when a pass is due.
    pub(crate) fn finish(&mut self) -> bool {
        self.checks_run += 1;
        true
    }

    /// Events observed so far.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Check passes performed so far.
    pub fn checks_run(&self) -> u64 {
        self.checks_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_zero_is_clamped_to_every_event() {
        let mut s = Sanitizer::new(0);
        assert_eq!(s.cadence(), 1);
        assert!(s.tick());
        assert!(s.tick());
        assert_eq!(s.checks_run(), 2);
        assert_eq!(s.events_seen(), 2);
    }

    #[test]
    fn default_uses_documented_cadence() {
        let s = Sanitizer::default();
        assert_eq!(s.cadence(), DEFAULT_SANITIZER_CADENCE);
        assert_eq!(s.checks_run(), 0);
    }

    #[test]
    fn final_check_counts_separately_from_cadence() {
        let mut s = Sanitizer::new(10);
        for _ in 0..5 {
            assert!(!s.tick());
        }
        assert!(s.finish());
        assert_eq!(s.checks_run(), 1);
        assert_eq!(s.events_seen(), 5);
    }
}
