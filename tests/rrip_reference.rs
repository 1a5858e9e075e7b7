//! Differential test of RRIP against its O(n) reference model.
//!
//! `Rrip` picks victims from per-RRPV bitsets, a global aging offset and
//! a FIFO of delay-blocked pages. `RefRrip` below is the direct
//! algorithm it must reproduce: every selection scans all resident
//! pages for the highest-RRPV delay-qualified one (lowest frame slot on
//! ties), then ages every page by the same amount. The two must agree on
//! every victim, every RRPV and every statistic, both on arbitrary call
//! sequences and through full simulations of the grid's RRIP cells.

use std::collections::BTreeMap;

use hpe::policies::{EvictionPolicy, FaultOutcome, Rrip, RripConfig, RripInsertion};
use hpe::sim::{trace_for, Simulation};
use hpe::types::{Oversubscription, PageId, PolicyStats, SimConfig, SimStats};
use hpe::util::prop::{shrink_vec, Checker};
use hpe::workloads::{registry, PatternType};

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    rrpv: u8,
    delay: u64,
    slot: u32,
}

/// RRIP-FP with the delay field, one linear pass per selection.
struct RefRrip {
    cfg: RripConfig,
    entries: BTreeMap<PageId, RefEntry>,
    current_fault: u64,
    next_slot: u32,
    freed_slots: Vec<u32>,
    stats: PolicyStats,
}

impl RefRrip {
    fn new(cfg: RripConfig) -> Self {
        RefRrip {
            cfg,
            entries: BTreeMap::new(),
            current_fault: 0,
            next_slot: 0,
            freed_slots: Vec::new(),
            stats: PolicyStats::default(),
        }
    }

    fn rrpv_max(&self) -> u16 {
        (1u16 << self.cfg.m_bits) - 1
    }

    fn rrpv(&self, page: PageId) -> Option<u8> {
        self.entries.get(&page).map(|e| e.rrpv)
    }
}

impl EvictionPolicy for RefRrip {
    fn name(&self) -> String {
        "RRIP(reference)".to_string()
    }

    fn on_walk_hit(&mut self, page: PageId) {
        if let Some(e) = self.entries.get_mut(&page) {
            e.rrpv = e.rrpv.saturating_sub(1);
        }
    }

    fn on_fault(&mut self, page: PageId, fault_num: u64) -> FaultOutcome {
        self.current_fault = fault_num + 1;
        let rrpv = match self.cfg.insertion {
            RripInsertion::Long => self.rrpv_max() - 1,
            RripInsertion::Distant => self.rrpv_max(),
        } as u8;
        let slot = self.freed_slots.pop().unwrap_or_else(|| {
            self.next_slot += 1;
            self.next_slot - 1
        });
        let entry = RefEntry {
            rrpv,
            delay: fault_num,
            slot,
        };
        self.entries.insert(page, entry);
        FaultOutcome::default()
    }

    fn select_victim(&mut self) -> Option<PageId> {
        self.stats.selections += 1;
        if self.entries.is_empty() {
            return None;
        }
        let max = self.rrpv_max();
        // Qualified: highest RRPV, then lowest slot. Blocked: lowest
        // (delay, slot).
        let mut best: Option<(u8, std::cmp::Reverse<u32>, PageId)> = None;
        let mut blocked_best: Option<(u64, u32, PageId)> = None;
        for (&page, e) in &self.entries {
            self.stats.search_comparisons += 1;
            if self.current_fault.saturating_sub(e.delay) >= self.cfg.delay_threshold {
                let cand = (e.rrpv, std::cmp::Reverse(e.slot), page);
                best = best.max(Some(cand));
            } else {
                let cand = (e.delay, e.slot, page);
                blocked_best = Some(blocked_best.map_or(cand, |b| b.min(cand)));
            }
        }
        let victim = match best {
            Some((rrpv, _, page)) => {
                let aging = max - u16::from(rrpv);
                for e in self.entries.values_mut() {
                    e.rrpv = (u16::from(e.rrpv) + aging).min(max) as u8;
                }
                page
            }
            None => blocked_best.expect("entries nonempty").2,
        };
        let freed = self.entries.remove(&victim).expect("victim exists").slot;
        self.freed_slots.push(freed);
        Some(victim)
    }

    fn stats(&self) -> PolicyStats {
        self.stats.clone()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Hit(u64),
    Fault(u64, u64),
    Select,
}

/// Pages the random sequences draw from.
const PAGES: u64 = 24;

#[test]
fn matches_reference_on_random_call_sequences() {
    Checker::new().cases(512).run_shrink(
        |rng| {
            let cfg = RripConfig {
                m_bits: rng.gen_range(1u32..=8) as u8,
                insertion: if rng.gen_bool(0.5) {
                    RripInsertion::Long
                } else {
                    RripInsertion::Distant
                },
                delay_threshold: [0, 1, 3, 10][rng.below(4) as usize],
            };
            // Fault numbers mostly climb, as the engine's do, but also
            // repeat (prefetch batches) and go backwards (direct callers).
            let mut fault = 0u64;
            let ops = rng.gen_vec(1..400, |r| match r.below(10) {
                0..=3 => Op::Hit(r.below(PAGES)),
                4..=6 => {
                    fault = match r.below(10) {
                        0 => fault,
                        1 => fault.saturating_sub(r.below(12)),
                        _ => fault + 1 + r.below(3),
                    };
                    Op::Fault(r.below(PAGES), fault)
                }
                _ => Op::Select,
            });
            (cfg, ops)
        },
        |(cfg, ops)| shrink_vec(ops).into_iter().map(|o| (*cfg, o)).collect(),
        |(cfg, ops)| {
            let mut fast = Rrip::new(*cfg);
            let mut reference = RefRrip::new(*cfg);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Hit(p) => {
                        fast.on_walk_hit(PageId(p));
                        reference.on_walk_hit(PageId(p));
                    }
                    Op::Fault(p, n) => {
                        fast.on_fault(PageId(p), n);
                        reference.on_fault(PageId(p), n);
                    }
                    Op::Select => assert_eq!(
                        fast.select_victim(),
                        reference.select_victim(),
                        "victim at step {step}"
                    ),
                }
                assert_eq!(fast.resident_len(), reference.entries.len(), "step {step}");
                for p in 0..PAGES {
                    let p = PageId(p);
                    assert_eq!(fast.rrpv(p), reference.rrpv(p), "{p:?} at step {step}");
                }
                assert_eq!(fast.stats(), reference.stats(), "stats at step {step}");
            }
        },
    );
}

fn simulate(
    cfg: &SimConfig,
    abbr: &str,
    rate: Oversubscription,
    policy: Box<dyn EvictionPolicy>,
) -> SimStats {
    let app = registry::by_abbr(abbr).expect("registered app");
    let trace = trace_for(cfg, app);
    let capacity = rate.capacity_pages(app.footprint_pages());
    Simulation::new(cfg.clone(), &trace, policy, capacity)
        .expect("valid sim")
        .run()
        .expect("run completes")
        .stats
}

/// The clean grid's RRIP cells at `rate`, each app under the
/// configuration the paper assigns it: full `SimStats` equality.
fn grid_cells_match_reference(rate: Oversubscription) {
    let cfg = SimConfig::scaled_default();
    for app in registry::all() {
        let rrip = if app.pattern() == PatternType::Thrashing {
            RripConfig::for_thrashing()
        } else {
            RripConfig::default()
        };
        let fast = simulate(&cfg, app.abbr(), rate, Box::new(Rrip::new(rrip)));
        let reference = simulate(&cfg, app.abbr(), rate, Box::new(RefRrip::new(rrip)));
        assert_eq!(fast, reference, "{} at {}", app.abbr(), rate.label());
    }
}

#[test]
fn matches_reference_on_grid_cells_at_75() {
    grid_cells_match_reference(Oversubscription::Rate75);
}

#[test]
fn matches_reference_on_grid_cells_at_50() {
    grid_cells_match_reference(Oversubscription::Rate50);
}
