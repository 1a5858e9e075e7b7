//! The HPE eviction policy (Section IV), implementing
//! [`uvm_policies::EvictionPolicy`].

use std::collections::VecDeque;

use uvm_policies::{EvictionPolicy, FaultOutcome};
use uvm_types::{ConfigError, PageId, PolicyEvent, PolicyStats, SignalDisruption, StrategyTag};

use crate::adjust::Adjuster;
use crate::chain::PageSetChain;
use crate::classify::{classify, Classification};
use crate::config::{HpeConfig, StrategyKind};
use crate::hir::{HirCache, HirRecord};

/// Consecutive HIR flush opportunities that may be lost before HPE stops
/// trusting its driver-side state and falls back to plain LRU.
const DEGRADE_AFTER_MISSED_FLUSHES: u32 = 2;

/// `Hpe::resident_since` value of a page with no recorded insertion.
const NOT_TRACKED: u64 = u64::MAX;

/// An HIR flush delayed in transit (partial outage): its PCIe transfer was
/// already paid at send time; the records apply — or are discarded as
/// stale — when the delivery fault count is reached.
#[derive(Debug)]
struct PendingFlush {
    /// Fault count at which the records reach the driver.
    deliver_at: u64,
    /// The transit delay in faults (compared against the staleness bound).
    delay: u64,
    records: Vec<HirRecord>,
}

/// Hierarchical page eviction.
///
/// * Page-walk **hits** are recorded in the GPU-side [`HirCache`] and
///   shipped to the driver every `transfer_interval` faults (or applied
///   immediately when `use_hir` is off — the paper's ideal-transfer
///   sensitivity mode).
/// * Page **faults** update the [`PageSetChain`] directly and drive the
///   interval clock.
/// * At first memory-full the application is classified
///   ([`classify`]) and the eviction strategy chosen; dynamic
///   adjustment ([`Adjuster`]) reacts to wrong evictions thereafter.
/// * Victims are single pages, taken in address order from the page set
///   selected by the active strategy out of the old partition first.
///
/// # Examples
///
/// ```
/// use hpe_core::{Hpe, HpeConfig};
/// use uvm_policies::EvictionPolicy;
/// use uvm_types::PageId;
///
/// let mut hpe = Hpe::new(HpeConfig::paper_default())?;
/// for p in 0..32u64 {
///     hpe.on_fault(PageId(p), p);
/// }
/// hpe.on_memory_full();
/// let victim = hpe.select_victim().expect("resident pages exist");
/// assert!(victim.0 < 32);
/// # Ok::<(), uvm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Hpe {
    cfg: HpeConfig,
    hir: Option<HirCache>,
    chain: PageSetChain,
    adjuster: Adjuster,
    fault_count: u64,
    faults_in_interval: u32,
    classification: Option<Classification>,
    old_sets_at_full: Option<usize>,
    counters_at_full: Option<Vec<u32>>,
    selections: u64,
    mruc_searches: u64,
    mruc_comparisons: u64,
    lru_comparisons: u64,
    hir_flushes: u64,
    hir_entries_transferred: u64,
    /// Decision-event buffering (`EvictionPolicy::set_tracing`). Purely
    /// observational: no decision may read these fields.
    tracing: bool,
    trace_events: Vec<PolicyEvent>,
    /// Fault count at which each resident page was inserted, indexed by
    /// page id, [`NOT_TRACKED`] for none (tracing only; empty otherwise).
    resident_since: Vec<u64>,
    /// HIR conflict evictions already attributed to a flush event.
    conflicts_reported: u64,
    /// The GPU→driver HIR channel is currently down (injected outage).
    hir_channel_down: bool,
    /// Consecutive flush opportunities lost to the outage.
    missed_flushes: u32,
    /// Degraded LRU-fallback mode is active (signals lost or undefined).
    degraded: bool,
    /// Entry was caused by an undefined classification (all-zero counter
    /// samples at memory-full), so recovery must re-classify.
    classification_pending: bool,
    degraded_entries: u64,
    degraded_faults: u64,
    /// The driver's circuit breaker told the GPU side to stop transferring
    /// flushes (they were being lost in transit anyway); flush contents are
    /// discarded at zero PCIe cost until the breaker closes.
    flush_suspended: bool,
    /// Announced transit delay (in faults) for the next HIR flush.
    next_flush_delay: Option<u64>,
    /// Flushes in transit, ordered by delivery fault count.
    pending_flushes: VecDeque<PendingFlush>,
    late_flushes_applied: u64,
    stale_flushes_dropped: u64,
    suspended_flushes: u64,
}

impl Hpe {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` is invalid.
    pub fn new(cfg: HpeConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let hir = cfg
            .use_hir
            .then(|| HirCache::new(cfg.hir, cfg.page_set_shift()));
        let chain = PageSetChain::new(&cfg);
        let adjuster = Adjuster::new(&cfg);
        Ok(Hpe {
            cfg,
            hir,
            chain,
            adjuster,
            fault_count: 0,
            faults_in_interval: 0,
            classification: None,
            old_sets_at_full: None,
            counters_at_full: None,
            selections: 0,
            mruc_searches: 0,
            mruc_comparisons: 0,
            lru_comparisons: 0,
            hir_flushes: 0,
            hir_entries_transferred: 0,
            tracing: false,
            trace_events: Vec::new(),
            resident_since: Vec::new(),
            conflicts_reported: 0,
            hir_channel_down: false,
            missed_flushes: 0,
            degraded: false,
            classification_pending: false,
            degraded_entries: 0,
            degraded_faults: 0,
            flush_suspended: false,
            next_flush_delay: None,
            pending_flushes: VecDeque::new(),
            late_flushes_applied: 0,
            stale_flushes_dropped: 0,
            suspended_flushes: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &HpeConfig {
        &self.cfg
    }

    /// The classification computed at first memory-full, if reached
    /// (Fig. 9's ratios live here).
    pub fn classification(&self) -> Option<&Classification> {
        self.classification.as_ref()
    }

    /// Page sets in the old partition when memory first filled (gates the
    /// regular-application jump rule).
    pub fn old_sets_at_full(&self) -> Option<usize> {
        self.old_sets_at_full
    }

    /// The per-set counter values snapshotted at first memory-full, in
    /// ascending `(set, secondary)` order (diagnostics: the raw data
    /// behind Fig. 9's ratios).
    pub fn counters_at_full(&self) -> Option<&[u32]> {
        self.counters_at_full.as_deref()
    }

    /// The active eviction strategy.
    pub fn strategy(&self) -> StrategyKind {
        self.adjuster.strategy()
    }

    /// Whether the degraded LRU fallback is active (driver signals lost
    /// or classification undefined; Section IV's LRU default made an
    /// explicit resilience mechanism).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// `(entries, faults)` spent in degraded fallback mode so far.
    pub fn degraded_residency(&self) -> (u64, u64) {
        (self.degraded_entries, self.degraded_faults)
    }

    /// Whether the driver's circuit breaker has suspended flush transfers
    /// (flush contents are discarded at zero PCIe cost until it closes).
    pub fn is_flush_suspended(&self) -> bool {
        self.flush_suspended
    }

    /// `(fault_number, strategy)` timeline (Fig. 13).
    pub fn strategy_timeline(&self) -> &[(u64, StrategyKind)] {
        self.adjuster.timeline()
    }

    /// `(fault_number, jump)` search-point adjustments (Fig. 13).
    pub fn jump_events(&self) -> &[(u64, u32)] {
        self.adjuster.jump_events()
    }

    /// MRU-C victim searches performed and entry comparisons across them
    /// (Fig. 14 reports `comparisons / searches`).
    pub fn mruc_search_overhead(&self) -> (u64, u64) {
        (self.mruc_searches, self.mruc_comparisons)
    }

    /// Page sets divided so far (Section IV-C).
    pub fn divided_sets(&self) -> u64 {
        self.chain.divided_count()
    }

    /// Direct access to the page set chain (diagnostics).
    pub fn chain(&self) -> &PageSetChain {
        &self.chain
    }

    /// Forgets `page`'s insertion time and returns the fault count it
    /// was recorded at, if any (tracing bookkeeping).
    fn forget_resident(&mut self, page: PageId) -> Option<u64> {
        let at = self.resident_since.get_mut(page.0 as usize)?;
        Some(std::mem::replace(at, NOT_TRACKED)).filter(|&at| at != NOT_TRACKED)
    }

    /// Faults since `page` was inserted (0 if untracked), forgetting it.
    fn victim_age(&mut self, page: PageId) -> u64 {
        self.forget_resident(page)
            .map_or(0, |at| self.fault_count.saturating_sub(at))
    }

    fn apply_hit(&mut self, page: PageId, count: u32) {
        self.chain.touch(page, count, false);
    }

    /// Applies delivered HIR records to the page set chain.
    fn apply_records(&mut self, records: &[HirRecord]) {
        let shift = self.cfg.page_set_shift();
        for rec in records {
            for (off, &c) in rec.counts.iter().enumerate() {
                if c > 0 {
                    let p = rec.set.page_at(shift, off as u32);
                    self.apply_hit(p, u32::from(c));
                }
            }
        }
    }

    /// Delivers flushes whose transit delay has elapsed. Records within the
    /// staleness bound update the chain; older ones describe hits the chain
    /// has already rotated past and are dropped.
    fn deliver_due_flushes(&mut self) {
        while self
            .pending_flushes
            .front()
            .is_some_and(|p| p.deliver_at <= self.fault_count)
        {
            let Some(pending) = self.pending_flushes.pop_front() else {
                break;
            };
            if pending.delay <= u64::from(self.cfg.flush_staleness_faults) {
                self.late_flushes_applied += 1;
                self.apply_records(&pending.records);
            } else {
                self.stale_flushes_dropped += 1;
            }
        }
    }

    fn push_switch_event(&mut self, from: StrategyTag, to: StrategyTag, fault_num: u64) {
        if !self.tracing {
            return;
        }
        let (ratio1, ratio2) = self
            .classification
            .as_ref()
            .map_or((0.0, 0.0), |c| (c.ratio1, c.ratio2));
        self.trace_events.push(PolicyEvent::StrategySwitch {
            from,
            to,
            ratio1,
            ratio2,
            fault_num,
        });
    }

    /// Emits a `StrategySwitch` event if the adjuster's timeline grew past
    /// `switches_before` (tracing only).
    fn note_adjuster_switch(&mut self, switches_before: usize) {
        if !self.tracing {
            return;
        }
        let tl = self.adjuster.timeline();
        if tl.len() > switches_before {
            let (at, to) = tl[tl.len() - 1];
            let from = tl[tl.len() - 2].1;
            self.push_switch_event(from.into(), to.into(), at);
        }
    }

    /// Enters the degraded LRU fallback: driver-side signals are no longer
    /// trustworthy, so classification-driven strategy selection and dynamic
    /// adjustment are suspended until the signals resume.
    fn enter_degraded(&mut self, fault_num: u64) {
        if self.degraded {
            return;
        }
        let from = self.adjuster.strategy().into();
        self.degraded = true;
        self.degraded_entries += 1;
        self.push_switch_event(from, StrategyTag::Degraded, fault_num);
    }

    /// Leaves degraded mode if the signals that forced it are healthy
    /// again: the HIR channel is up and (for an entry caused by an
    /// undefined classification) the counter samples are now defined.
    fn try_recover(&mut self, fault_num: u64) {
        if !self.degraded || self.hir_channel_down {
            return;
        }
        if self.classification_pending {
            let stats = self.chain.counter_stats();
            if stats.regular + stats.irregular == 0 {
                return; // still no samples to classify from
            }
            let classification =
                classify(&stats, self.cfg.ratio1_threshold, self.cfg.ratio2_threshold);
            let old_sets = self.chain.old_len();
            self.adjuster
                .set_category(classification.category, old_sets, fault_num);
            self.classification = Some(classification);
            self.old_sets_at_full = Some(old_sets);
            self.counters_at_full = Some(self.chain.iter_entries().map(|e| e.counter).collect());
            self.classification_pending = false;
        }
        self.degraded = false;
        self.missed_flushes = 0;
        self.push_switch_event(
            StrategyTag::Degraded,
            self.adjuster.strategy().into(),
            fault_num,
        );
    }
}

impl EvictionPolicy for Hpe {
    fn name(&self) -> String {
        "HPE".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        match &mut self.hir {
            Some(hir) => hir.record(page),
            // Ideal-transfer mode ships each hit over the same GPU→driver
            // channel, just without batching: an outage drops it.
            None if self.hir_channel_down => {}
            None => self.apply_hit(page, 1),
        }
    }

    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        if self.degraded {
            // Driver-side signals are untrusted: no wrong-eviction
            // accounting while the fallback is active.
            self.degraded_faults += 1;
        } else {
            let switches_before = self.adjuster.timeline().len();
            // Wrong-eviction accounting against the active strategy's FIFO.
            self.adjuster.on_fault(page, fault_num);
            self.note_adjuster_switch(switches_before);
        }
        if self.tracing {
            let idx = page.0 as usize;
            if idx >= self.resident_since.len() {
                self.resident_since.resize(idx + 1, NOT_TRACKED);
            }
            self.resident_since[idx] = self.fault_count;
        }
        // Faults update the chain (and the bit vector) immediately.
        self.chain.touch(page, 1, true);
        self.fault_count += 1;
        self.faults_in_interval += 1;
        // Flushes delayed in transit (partial outage) land here once their
        // delivery fault count is reached.
        self.deliver_due_flushes();

        let mut outcome = FaultOutcome::default();
        if self
            .fault_count
            .is_multiple_of(u64::from(self.cfg.transfer_interval))
        {
            // Any announced transit delay applies to this flush attempt
            // only, whatever its fate.
            let transit_delay = self.next_flush_delay.take();
            if self.hir_channel_down {
                if self.flush_suspended {
                    // The circuit breaker already told the GPU side to stop
                    // transferring: the recorded hits are discarded locally
                    // at zero PCIe cost.
                    if let Some(hir) = &mut self.hir {
                        let _ = hir.flush();
                        self.suspended_flushes += 1;
                    }
                } else if let Some(hir) = &mut self.hir {
                    // The flush leaves the GPU but never reaches the
                    // driver: the PCIe transfer is wasted and the recorded
                    // hits are lost in transit. The driver-side circuit
                    // breaker counts the loss.
                    let records = hir.flush();
                    if !records.is_empty() {
                        outcome.wasted_transfer_bytes = hir.transfer_bytes(records.len());
                        outcome.lost_flushes = 1;
                    }
                }
                self.missed_flushes += 1;
                if self.missed_flushes >= DEGRADE_AFTER_MISSED_FLUSHES {
                    self.enter_degraded(fault_num);
                }
            } else {
                self.missed_flushes = 0;
                if let Some(hir) = &mut self.hir {
                    let records = hir.flush();
                    if !records.is_empty() {
                        self.hir_flushes += 1;
                        self.hir_entries_transferred += records.len() as u64;
                        if self.tracing {
                            let conflicts = hir.conflict_evictions();
                            self.trace_events.push(PolicyEvent::HirFlush {
                                entries: records.len() as u64,
                                dropped: conflicts - self.conflicts_reported,
                            });
                            self.conflicts_reported = conflicts;
                        }
                        outcome.transfer_bytes = hir.transfer_bytes(records.len());
                        outcome.driver_busy_cycles =
                            records.len() as u64 * self.cfg.update_cycles_per_record;
                        match transit_delay {
                            Some(delay) => {
                                // Partial outage: the transfer is paid now,
                                // but the records arrive `delay` faults
                                // later (or get dropped as stale).
                                self.pending_flushes.push_back(PendingFlush {
                                    deliver_at: self.fault_count + delay,
                                    delay,
                                    records,
                                });
                            }
                            None => self.apply_records(&records),
                        }
                    }
                }
                // A flush opportunity arrived intact: signals are healthy.
                self.try_recover(fault_num);
            }
        }

        if self.faults_in_interval >= self.cfg.interval_len {
            self.faults_in_interval = 0;
            if self.cfg.enable_partitions {
                self.chain.rotate_interval();
            }
            if self.degraded {
                // Intervals spent in the fallback are credited to neither
                // strategy, but a pending classification may retry now that
                // another interval of counter samples accumulated.
                if self.classification_pending {
                    self.try_recover(fault_num);
                }
            } else {
                self.adjuster.end_interval();
            }
        }
        outcome
    }

    fn on_memory_full(&mut self) {
        let stats = self.chain.counter_stats();
        let old_sets = self.chain.old_len();
        self.old_sets_at_full = Some(old_sets);
        self.counters_at_full = Some(self.chain.iter_entries().map(|e| e.counter).collect());
        if stats.regular + stats.irregular == 0 {
            // No counter samples: ratio₁ is 0/0 and Table III's categories
            // are undefined. Fall back to LRU until samples accumulate.
            self.classification_pending = true;
            self.enter_degraded(self.fault_count);
            return;
        }
        let classification = classify(&stats, self.cfg.ratio1_threshold, self.cfg.ratio2_threshold);
        self.adjuster
            .set_category(classification.category, old_sets, self.fault_count);
        self.classification = Some(classification);
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.selections += 1;
        if self.degraded {
            // Plain LRU over the chain; the adjuster neither chooses the
            // strategy nor records the eviction (its FIFOs would pollute
            // wrong-eviction accounting with fallback decisions).
            let sel = self.chain.select_victim(StrategyKind::Lru, 0)?;
            self.lru_comparisons += sel.comparisons;
            if self.tracing {
                let victim_age = self.victim_age(sel.page);
                self.trace_events.push(PolicyEvent::VictimSelected {
                    page: sel.page,
                    strategy: StrategyTag::Degraded,
                    search_comparisons: sel.comparisons,
                    victim_age,
                });
            }
            return Some(sel.page);
        }
        let strategy = self.adjuster.strategy();
        let sel = self.chain.select_victim(strategy, self.adjuster.jump())?;
        match strategy {
            StrategyKind::MruC => {
                self.mruc_searches += 1;
                self.mruc_comparisons += sel.comparisons;
            }
            StrategyKind::Lru => {
                self.lru_comparisons += sel.comparisons;
            }
        }
        self.adjuster.on_eviction(sel.page);
        if self.tracing {
            let victim_age = self.victim_age(sel.page);
            self.trace_events.push(PolicyEvent::VictimSelected {
                page: sel.page,
                strategy: strategy.into(),
                search_comparisons: sel.comparisons,
                victim_age,
            });
        }
        Some(sel.page)
    }

    fn on_disruption(&mut self, disruption: SignalDisruption) {
        match disruption {
            SignalDisruption::HirChannelDown => self.hir_channel_down = true,
            SignalDisruption::HirChannelUp => self.hir_channel_down = false,
            SignalDisruption::SpuriousWrongEviction { fault_num } => {
                // A corrupted fault report reached the driver: it drives
                // the adjustment machinery exactly like a genuine wrong
                // eviction — unless the fallback already distrusts signals.
                if !self.degraded {
                    let switches_before = self.adjuster.timeline().len();
                    self.adjuster.force_wrong(fault_num);
                    self.note_adjuster_switch(switches_before);
                }
            }
            SignalDisruption::ForcedEviction { page } => {
                // The engine evicted behind our back; only the tracing
                // bookkeeping knows the page (the chain is consulted on the
                // next selection and tolerates stale entries).
                if self.tracing {
                    self.forget_resident(page);
                }
            }
            SignalDisruption::HirCircuitOpen => {
                // The driver stopped receiving our flushes long enough for
                // its circuit breaker to trip: stop paying PCIe cycles for
                // transfers that never arrive. The eviction strategy has
                // normally already degraded (the policy's own
                // missed-flush trigger fires first), but entering here is
                // idempotent and keeps the two mechanisms independent.
                self.flush_suspended = true;
                self.enter_degraded(self.fault_count);
            }
            SignalDisruption::HirCircuitClosed => {
                // Channel restored end-to-end: resume flush transfers.
                // Strategy recovery still waits for the next intact flush
                // opportunity (see `try_recover`).
                self.flush_suspended = false;
            }
            SignalDisruption::HirFlushDelayed { faults } => {
                self.next_flush_delay = Some(faults);
            }
        }
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.trace_events.clear();
            self.resident_since.clear();
        }
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(PolicyEvent)) {
        for e in self.trace_events.drain(..) {
            sink(e);
        }
    }

    fn stats(&self) -> PolicyStats {
        let (intervals_lru, intervals_mruc) = self.adjuster.interval_usage();
        PolicyStats {
            selections: self.selections,
            search_comparisons: self.mruc_comparisons + self.lru_comparisons,
            hir_flushes: self.hir_flushes,
            hir_entries_transferred: self.hir_entries_transferred,
            hir_conflict_evictions: self.hir.as_ref().map_or(0, |h| h.conflict_evictions()),
            strategy_switches: self.adjuster.switches(),
            intervals_lru,
            intervals_mruc,
            page_sets_divided: self.chain.divided_count(),
            degraded_entries: self.degraded_entries,
            degraded_faults: self.degraded_faults,
            late_flushes_applied: self.late_flushes_applied,
            stale_flushes_dropped: self.stale_flushes_dropped,
            suspended_flushes: self.suspended_flushes,
        }
    }

    fn hir_fill(&self) -> u64 {
        self.hir.as_ref().map_or(0, |h| h.touched_len() as u64)
    }

    fn is_degraded(&self) -> bool {
        self.degraded
    }

    fn check_invariants(&self) -> Result<(), String> {
        self.chain.check_links()?;
        if let Some(hir) = &self.hir {
            hir.check_invariants()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::Category;

    fn hpe() -> Hpe {
        Hpe::new(HpeConfig::paper_default()).unwrap()
    }

    fn hpe_with(f: impl FnOnce(&mut HpeConfig)) -> Hpe {
        let mut cfg = HpeConfig::paper_default();
        f(&mut cfg);
        Hpe::new(cfg).unwrap()
    }

    /// Faults `n` pages starting at `base`, one per fault number.
    fn fault_range(h: &mut Hpe, base: u64, n: u64, fault_base: u64) {
        for i in 0..n {
            h.on_fault(PageId(base + i), fault_base + i);
        }
    }

    #[test]
    fn faults_advance_intervals() {
        let mut h = hpe();
        fault_range(&mut h, 0, 64, 0);
        // After one interval the first sets rotated into middle.
        assert!(h.chain().middle_len() > 0);
        fault_range(&mut h, 1000, 64, 64);
        assert!(h.chain().old_len() > 0);
    }

    #[test]
    fn classification_streaming_is_regular() {
        let mut h = hpe();
        // Pure streaming: each page faulted once -> counters 16.
        fault_range(&mut h, 0, 256, 0);
        h.on_memory_full();
        let c = h.classification().unwrap();
        assert_eq!(c.category, Category::Regular);
        assert_eq!(h.strategy(), StrategyKind::MruC);
    }

    #[test]
    fn classification_irregular_counters_yield_irregular2() {
        let mut h = hpe_with(|c| c.use_hir = false);
        // Fault partial sets: 5 pages per set -> counters 5 (irregular).
        for set in 0..20u64 {
            for off in 0..5u64 {
                h.on_fault(PageId(set * 16 + off), set * 5 + off);
            }
        }
        h.on_memory_full();
        let c = h.classification().unwrap();
        assert_eq!(c.category, Category::Irregular2);
        assert_eq!(h.strategy(), StrategyKind::Lru);
    }

    #[test]
    fn classification_large_counters_yield_irregular1() {
        let mut h = hpe_with(|c| c.use_hir = false);
        // Each page faulted once then hit twice -> counters 48.
        for set in 0..20u64 {
            for off in 0..16u64 {
                let p = PageId(set * 16 + off);
                h.on_fault(p, set * 16 + off);
                h.on_walk_hit(p);
                h.on_walk_hit(p);
            }
        }
        h.on_memory_full();
        let c = h.classification().unwrap();
        assert_eq!(c.category, Category::Irregular1);
        assert_eq!(h.strategy(), StrategyKind::Lru);
    }

    #[test]
    fn hir_hits_reach_chain_only_at_transfer_interval() {
        let mut h = hpe();
        h.on_fault(PageId(0), 0);
        for _ in 0..5 {
            h.on_walk_hit(PageId(0));
        }
        // Counter so far: 1 (the fault only).
        let (key, _) = h.chain().route(PageId(0));
        assert_eq!(h.chain().entry(key).unwrap().counter, 1);
        // Drive to the 16th fault: flush happens.
        fault_range(&mut h, 100, 15, 1);
        assert!(h.stats().hir_flushes >= 1);
        // 2-bit HIR counter saturates at 3: counter = 1 fault + 3 hits.
        assert_eq!(h.chain().entry(key).unwrap().counter, 4);
        let out_bytes = 10;
        let _ = out_bytes;
    }

    #[test]
    fn flush_reports_transfer_bytes() {
        let mut h = hpe();
        h.on_fault(PageId(0), 0);
        h.on_walk_hit(PageId(0));
        h.on_walk_hit(PageId(32)); // second set
        let mut total_bytes = 0;
        for i in 1..16u64 {
            let out = h.on_fault(PageId(1000 + i), i);
            total_bytes += out.transfer_bytes;
        }
        // Two touched entries x 10 bytes each.
        assert_eq!(total_bytes, 20);
        assert_eq!(h.stats().hir_entries_transferred, 2);
    }

    #[test]
    fn ideal_mode_applies_hits_immediately() {
        let mut h = hpe_with(|c| c.use_hir = false);
        h.on_fault(PageId(0), 0);
        h.on_walk_hit(PageId(0));
        let (key, _) = h.chain().route(PageId(0));
        assert_eq!(h.chain().entry(key).unwrap().counter, 2);
        // No transfer cost in ideal mode.
        let out = h.on_fault(PageId(99), 1);
        assert_eq!(out.transfer_bytes, 0);
    }

    #[test]
    fn victims_come_from_old_partition_first() {
        let mut h = hpe_with(|c| c.use_hir = false);
        // Interval 64: fault 64 pages (sets 0..4) -> rotate; fault 64 more
        // (sets 100..104) -> rotate; now sets 0..4 are old.
        fault_range(&mut h, 0, 64, 0);
        fault_range(&mut h, 1600, 64, 64);
        fault_range(&mut h, 3200, 64, 128);
        h.on_memory_full();
        // Classification is regular -> MRU-C scans the old partition from
        // its MRU end: set 103 (pages 1648..1664), first page in address
        // order.
        assert_eq!(h.strategy(), StrategyKind::MruC);
        let v = h.select_victim().unwrap();
        assert_eq!(v, PageId(1648), "victim must come from old's MRU set");
    }

    #[test]
    fn counters_at_full_follow_key_order() {
        let mut h = hpe_with(|c| c.use_hir = false);
        // Sets 9, 2 and 5, faulted in that order with 3, 1 and 2 pages.
        for (i, page) in [0x90, 0x91, 0x92, 0x20, 0x50, 0x51].into_iter().enumerate() {
            h.on_fault(PageId(page), i as u64);
        }
        h.on_memory_full();
        assert_eq!(h.counters_at_full(), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn select_victim_exhausts_all_pages() {
        let mut h = hpe_with(|c| c.use_hir = false);
        fault_range(&mut h, 0, 48, 0);
        h.on_memory_full();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..48 {
            let v = h.select_victim().expect("48 resident pages");
            assert!(seen.insert(v), "duplicate victim {v}");
            assert!(v.0 < 48);
        }
        assert!(h.select_victim().is_none());
    }

    #[test]
    fn replay_against_cyclic_sweep_beats_thrashing() {
        // Full policy over a type II pattern via the shared replay helper:
        // HPE must fault substantially less than the all-miss 400.
        struct Driver {
            h: Hpe,
            resident: std::collections::BTreeSet<PageId>,
        }
        let mut d = Driver {
            h: hpe_with(|c| c.use_hir = false),
            resident: std::collections::BTreeSet::new(),
        };
        let capacity = 96; // 6 sets
        let pages = 128u64; // 8 sets
        let mut faults = 0u64;
        let mut notified = false;
        for _ in 0..6 {
            for p in 0..pages {
                let page = PageId(p);
                if d.resident.contains(&page) {
                    d.h.on_walk_hit(page);
                    continue;
                }
                if d.resident.len() == capacity {
                    if !notified {
                        d.h.on_memory_full();
                        notified = true;
                    }
                    let v = d.h.select_victim().unwrap();
                    assert!(d.resident.remove(&v));
                }
                d.h.on_fault(page, faults);
                d.resident.insert(page);
                faults += 1;
            }
        }
        let all_miss = 6 * pages;
        assert!(
            faults < all_miss * 3 / 4,
            "HPE faulted {faults}, worse than 75% of all-miss {all_miss}"
        );
    }

    #[test]
    fn stats_snapshot_is_complete() {
        let mut h = hpe();
        fault_range(&mut h, 0, 8, 0);
        h.on_walk_hit(PageId(0));
        // More faults so a transfer interval passes with the HIR touched.
        fault_range(&mut h, 100, 24, 8);
        h.on_memory_full();
        let _ = h.select_victim();
        let s = h.stats();
        assert_eq!(s.selections, 1);
        assert!(s.hir_flushes >= 1);
    }

    #[test]
    fn partitions_disabled_keeps_everything_in_new() {
        let mut h = hpe_with(|c| {
            c.enable_partitions = false;
            c.use_hir = false;
        });
        fault_range(&mut h, 0, 200, 0);
        assert_eq!(h.chain().old_len(), 0);
        assert_eq!(h.chain().middle_len(), 0);
        assert!(h.chain().new_len() > 0);
        // Eviction still works (falls through to the new partition).
        h.on_memory_full();
        assert!(h.select_victim().is_some());
    }

    #[test]
    fn tracing_emits_victim_and_flush_events() {
        use uvm_types::StrategyTag;

        let mut h = hpe();
        h.set_tracing(true);
        fault_range(&mut h, 0, 8, 0);
        h.on_walk_hit(PageId(0));
        fault_range(&mut h, 100, 24, 8);
        h.on_memory_full();
        let v = h.select_victim().unwrap();
        let mut events = Vec::new();
        h.drain_events(&mut |e| events.push(e));
        assert!(events
            .iter()
            .any(|e| matches!(e, PolicyEvent::HirFlush { entries, .. } if *entries > 0)));
        let victim = events
            .iter()
            .find_map(|e| match *e {
                PolicyEvent::VictimSelected {
                    page,
                    strategy,
                    victim_age,
                    ..
                } => Some((page, strategy, victim_age)),
                _ => None,
            })
            .expect("victim event present");
        assert_eq!(victim.0, v);
        assert_ne!(victim.1, StrategyTag::Native);
        assert!(victim.2 <= 32);
        // Buffer drained; disabling clears bookkeeping.
        let mut n = 0;
        h.drain_events(&mut |_| n += 1);
        assert_eq!(n, 0);
        h.set_tracing(false);
        assert!(h.resident_since.is_empty());
    }

    #[test]
    fn tracing_does_not_change_decisions() {
        let mut traced = hpe_with(|c| c.use_hir = false);
        traced.set_tracing(true);
        let mut plain = hpe_with(|c| c.use_hir = false);
        fault_range(&mut traced, 0, 96, 0);
        fault_range(&mut plain, 0, 96, 0);
        traced.on_memory_full();
        plain.on_memory_full();
        for _ in 0..32 {
            assert_eq!(traced.select_victim(), plain.select_victim());
        }
        assert_eq!(traced.stats(), plain.stats());
    }

    #[test]
    fn hir_outage_degrades_to_lru_and_recovers() {
        let mut h = hpe();
        h.set_tracing(true);
        fault_range(&mut h, 0, 256, 0);
        h.on_memory_full();
        assert_eq!(
            h.strategy(),
            StrategyKind::MruC,
            "streaming classifies MRU-C"
        );
        assert!(!h.is_degraded());

        // Channel goes down: two missed flush opportunities trip the
        // fallback (2 * transfer_interval = 32 faults).
        h.on_disruption(SignalDisruption::HirChannelDown);
        fault_range(&mut h, 10_000, 32, 256);
        assert!(h.is_degraded());
        let (entries, faults) = h.degraded_residency();
        assert_eq!(entries, 1);
        assert_eq!(faults, 0, "faults spent degraded count from the next one");

        // Victims while degraded come from the LRU path and are tagged.
        let v = h.select_victim().expect("resident pages exist");
        assert!(v.0 < 11_000);

        // Faults during the outage are counted but do not feed adjustment.
        fault_range(&mut h, 20_000, 16, 288);
        assert_eq!(h.degraded_residency().1, 16);

        // Channel restored: the next intact flush opportunity recovers.
        // The 16 faults up to that boundary still run degraded.
        h.on_disruption(SignalDisruption::HirChannelUp);
        fault_range(&mut h, 30_000, 16, 304);
        assert!(!h.is_degraded());
        assert_eq!(
            h.strategy(),
            StrategyKind::MruC,
            "nominal strategy restored"
        );

        // The round trip is visible as Degraded strategy-switch events.
        let mut events = Vec::new();
        h.drain_events(&mut |e| events.push(e));
        let switches: Vec<(StrategyTag, StrategyTag)> = events
            .iter()
            .filter_map(|e| match *e {
                PolicyEvent::StrategySwitch { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert!(switches.contains(&(StrategyTag::MruC, StrategyTag::Degraded)));
        assert!(switches.contains(&(StrategyTag::Degraded, StrategyTag::MruC)));
        let degraded_victims = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    PolicyEvent::VictimSelected {
                        strategy: StrategyTag::Degraded,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(degraded_victims, 1);
        assert_eq!(h.stats().degraded_entries, 1);
        assert_eq!(h.stats().degraded_faults, 32);
    }

    #[test]
    fn zero_sample_memory_full_degrades_then_classifies() {
        let mut h = hpe_with(|c| c.use_hir = false);
        // Memory full before any fault: no counter samples, ratios 0/0.
        h.on_memory_full();
        assert!(h.is_degraded());
        assert!(h.classification().is_none());
        assert_eq!(h.stats().degraded_entries, 1);

        // Samples accumulate; the flush-boundary health check (channel was
        // never down) re-classifies and recovers.
        fault_range(&mut h, 0, 256, 0);
        assert!(!h.is_degraded());
        let c = h.classification().expect("recovery re-classified");
        assert_eq!(c.category, Category::Regular);
        assert_eq!(h.strategy(), StrategyKind::MruC);
    }

    #[test]
    fn spurious_wrong_evictions_drive_adjustment() {
        let mut h = hpe_with(|c| c.use_hir = false);
        // Enough distinct sets that the old partition exceeds the
        // small-footprint threshold (64 sets), so regular apps jump.
        fault_range(&mut h, 0, 1536, 0);
        h.on_memory_full();
        assert_eq!(h.strategy(), StrategyKind::MruC);
        assert!(
            h.old_sets_at_full().unwrap() >= 64,
            "need a large footprint"
        );
        // Injected wrong-eviction signals drive the adjustment machinery
        // exactly like genuine ones: one trigger's worth jumps the point.
        for i in 0..16 {
            h.on_disruption(SignalDisruption::SpuriousWrongEviction {
                fault_num: 2000 + i,
            });
        }
        assert_eq!(h.jump_events(), &[(2015, 16)]);
    }

    #[test]
    fn degraded_mode_ignores_spurious_signals() {
        let mut h = hpe();
        fault_range(&mut h, 0, 256, 0);
        h.on_memory_full();
        h.on_disruption(SignalDisruption::HirChannelDown);
        fault_range(&mut h, 10_000, 32, 256);
        assert!(h.is_degraded());
        for i in 0..64 {
            h.on_disruption(SignalDisruption::SpuriousWrongEviction { fault_num: 400 + i });
        }
        assert!(h.jump_events().is_empty(), "fallback distrusts signals");
    }

    #[test]
    fn delayed_flush_applies_late_within_staleness_bound() {
        let mut h = hpe();
        h.on_fault(PageId(0), 0);
        for _ in 0..5 {
            h.on_walk_hit(PageId(0));
        }
        // Announce a transit delay of 8 faults for the next flush.
        h.on_disruption(SignalDisruption::HirFlushDelayed { faults: 8 });
        // Drive to the flush boundary (fault 16): the transfer is paid but
        // the records are still in transit, so the chain is unchanged.
        let mut transfer = 0;
        for i in 1..16u64 {
            transfer += h.on_fault(PageId(100 + i), i).transfer_bytes;
        }
        assert!(transfer > 0, "transfer is paid at send time");
        let (key, _) = h.chain().route(PageId(0));
        assert_eq!(h.chain().entry(key).unwrap().counter, 1, "not yet applied");
        // Eight more faults: the flush lands and the hits apply.
        fault_range(&mut h, 200, 8, 16);
        assert_eq!(h.chain().entry(key).unwrap().counter, 4, "applied late");
        assert_eq!(h.stats().late_flushes_applied, 1);
        assert_eq!(h.stats().stale_flushes_dropped, 0);
    }

    #[test]
    fn flush_delayed_past_staleness_bound_is_dropped() {
        let mut h = hpe();
        h.on_fault(PageId(0), 0);
        for _ in 0..5 {
            h.on_walk_hit(PageId(0));
        }
        // Staleness bound is 32 (two transfer intervals): a 40-fault delay
        // describes hits the chain has rotated past.
        h.on_disruption(SignalDisruption::HirFlushDelayed { faults: 40 });
        fault_range(&mut h, 100, 15, 1);
        fault_range(&mut h, 200, 48, 16);
        let (key, _) = h.chain().route(PageId(0));
        assert_eq!(h.chain().entry(key).unwrap().counter, 1, "stale: dropped");
        assert_eq!(h.stats().late_flushes_applied, 0);
        assert_eq!(h.stats().stale_flushes_dropped, 1);
    }

    #[test]
    fn lost_flush_reports_wasted_transfer() {
        let mut h = hpe();
        h.on_fault(PageId(0), 0);
        h.on_walk_hit(PageId(0));
        h.on_disruption(SignalDisruption::HirChannelDown);
        let mut lost = 0u32;
        let mut wasted = 0u64;
        for i in 1..16u64 {
            let out = h.on_fault(PageId(100 + i), i);
            lost += out.lost_flushes;
            wasted += out.wasted_transfer_bytes;
            assert_eq!(out.transfer_bytes, 0, "nothing arrives");
        }
        assert_eq!(lost, 1, "one flush left the GPU and was lost");
        assert!(wasted > 0, "its PCIe transfer was wasted");
    }

    #[test]
    fn circuit_breaker_suspends_and_resumes_flush_transfers() {
        let mut h = hpe();
        h.on_fault(PageId(0), 0);
        h.on_walk_hit(PageId(0));
        h.on_disruption(SignalDisruption::HirChannelDown);
        h.on_disruption(SignalDisruption::HirCircuitOpen);
        assert!(h.is_flush_suspended());
        assert!(h.is_degraded(), "breaker-open also degrades the strategy");
        // Suspended flush boundaries discard locally: no waste, no loss.
        let mut any_bytes = 0u64;
        for i in 1..32u64 {
            let out = h.on_fault(PageId(100 + i), i);
            any_bytes += out.transfer_bytes + out.wasted_transfer_bytes;
            assert_eq!(out.lost_flushes, 0);
        }
        assert_eq!(any_bytes, 0, "suspension costs zero PCIe");
        assert_eq!(h.stats().suspended_flushes, 2);
        // Breaker closes with the channel restored: transfers resume.
        h.on_disruption(SignalDisruption::HirChannelUp);
        h.on_disruption(SignalDisruption::HirCircuitClosed);
        assert!(!h.is_flush_suspended());
        h.on_walk_hit(PageId(0));
        let mut resumed = 0u64;
        for i in 32..48u64 {
            resumed += h.on_fault(PageId(200 + i), i).transfer_bytes;
        }
        assert!(resumed > 0, "flush transfers resumed");
        assert!(!h.is_degraded(), "intact flush opportunity recovers");
    }

    #[test]
    fn forced_strategy_used_without_classification() {
        let mut h = hpe_with(|c| {
            c.forced_strategy = Some(StrategyKind::MruC);
            c.use_hir = false;
        });
        fault_range(&mut h, 0, 32, 0);
        assert_eq!(h.strategy(), StrategyKind::MruC);
        assert!(h.select_victim().is_some());
        assert_eq!(h.mruc_search_overhead().0, 1);
    }
}
