//! Integration tests for HPE's individual mechanisms observed end-to-end
//! through the simulator (classification, division, adjustment, HIR).

use hpe::core::{Category, Hpe, HpeConfig, StrategyKind};
use hpe::sim::{trace_for, Simulation};
use hpe::types::{Oversubscription, SimConfig};
use hpe::workloads::registry;

fn run_hpe(abbr: &str, rate: Oversubscription) -> (hpe::types::SimStats, Hpe) {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(abbr).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = rate.capacity_pages(app.footprint_pages());
    let policy = Hpe::new(HpeConfig::from_sim(&cfg)).unwrap();
    let outcome = Simulation::new(cfg, &trace, policy, capacity)
        .expect("valid sim")
        .run()
        .expect("run completes");
    (outcome.stats, outcome.policy)
}

fn category_of(abbr: &str) -> Category {
    let (_, hpe) = run_hpe(abbr, Oversubscription::Rate75);
    hpe.classification()
        .unwrap_or_else(|| panic!("{abbr}: memory never filled"))
        .category
}

#[test]
fn thrashing_and_streaming_apps_classify_regular() {
    for abbr in [
        "HOT", "LEU", "2DC", "GEM", "SRD", "HSD", "MRQ", "STN", "PAT", "BKP",
    ] {
        assert_eq!(
            category_of(abbr),
            Category::Regular,
            "{abbr} should classify regular"
        );
    }
}

#[test]
fn irregular_counter_apps_classify_irregular2() {
    for abbr in ["KMN", "SAD", "BFS", "HIS", "MVT", "NW"] {
        assert_eq!(
            category_of(abbr),
            Category::Irregular2,
            "{abbr} should classify irregular#2"
        );
    }
}

#[test]
fn large_counter_apps_classify_irregular1() {
    for abbr in ["B+T", "HYB", "SPV", "HWL"] {
        assert_eq!(
            category_of(abbr),
            Category::Irregular1,
            "{abbr} should classify irregular#1"
        );
    }
}

#[test]
fn regular_apps_start_with_mruc_and_irregular_with_lru() {
    let (_, hpe) = run_hpe("HSD", Oversubscription::Rate75);
    assert_eq!(hpe.strategy_timeline()[0].1, StrategyKind::MruC);
    let (_, hpe) = run_hpe("B+T", Oversubscription::Rate75);
    assert_eq!(hpe.strategy_timeline()[0].1, StrategyKind::Lru);
    // irregular#1 never switches.
    assert_eq!(hpe.strategy_timeline().len(), 1);
}

#[test]
fn counters_at_full_are_deterministic() {
    // The snapshot follows key order, not hash order: two identical runs
    // record the same vector.
    let (_, first) = run_hpe("STN", Oversubscription::Rate75);
    let (_, second) = run_hpe("STN", Oversubscription::Rate75);
    let counters = first.counters_at_full().expect("memory filled");
    assert!(!counters.is_empty());
    assert_eq!(Some(counters), second.counters_at_full());
}

#[test]
fn nw_divides_page_sets() {
    // Section IV-C: NW's even/odd phases force page set division.
    let (_, hpe) = run_hpe("NW", Oversubscription::Rate75);
    assert!(
        hpe.divided_sets() > 0,
        "NW must divide page sets (got {})",
        hpe.divided_sets()
    );
}

#[test]
fn streaming_apps_do_not_divide() {
    for abbr in ["LEU", "2DC"] {
        let (_, hpe) = run_hpe(abbr, Oversubscription::Rate75);
        assert_eq!(hpe.divided_sets(), 0, "{abbr} should not divide sets");
    }
}

#[test]
fn bfs_switches_away_from_lru() {
    // Fig. 13: BFS starts LRU (irregular#2), then the embedded thrashing
    // pattern triggers wrong evictions and a switch to MRU-C.
    let (_, hpe) = run_hpe("BFS", Oversubscription::Rate75);
    let tl = hpe.strategy_timeline();
    assert_eq!(tl[0].1, StrategyKind::Lru, "BFS must start with LRU");
    assert!(
        tl.iter().any(|&(_, s)| s == StrategyKind::MruC),
        "BFS must switch to MRU-C at some point; timeline {tl:?}"
    );
}

#[test]
fn hir_flushes_happen_and_carry_entries() {
    let (stats, _) = run_hpe("HSD", Oversubscription::Rate75);
    assert!(stats.policy.hir_flushes > 0, "HSD must flush the HIR");
    assert!(stats.policy.hir_entries_transferred > 0);
    assert!(
        stats.driver.hit_transfer_cycles > 0,
        "transfer latency charged"
    );
}

#[test]
fn mruc_apps_report_search_overhead() {
    let (_, hpe) = run_hpe("STN", Oversubscription::Rate75);
    let (searches, comparisons) = hpe.mruc_search_overhead();
    assert!(searches > 0, "STN runs MRU-C");
    let avg = comparisons as f64 / searches as f64;
    assert!(
        avg < 100.0,
        "average MRU-C search overhead {avg:.1} should be modest (paper: <50)"
    );
}

#[test]
fn lru_only_apps_never_search_with_mruc() {
    for abbr in ["B+T", "HYB"] {
        let (_, hpe) = run_hpe(abbr, Oversubscription::Rate75);
        assert_eq!(
            hpe.mruc_search_overhead().0,
            0,
            "{abbr} uses LRU for its whole execution"
        );
    }
}

#[test]
fn small_footprint_regular_apps_never_jump() {
    // STN's old partition at first full is below 4x page-set-size sets,
    // so the search point must never jump (Section IV-E).
    let (_, hpe) = run_hpe("STN", Oversubscription::Rate75);
    if let Some(old) = hpe.old_sets_at_full() {
        if old < 64 {
            assert!(
                hpe.jump_events().is_empty(),
                "STN has a small footprint; jumping is disabled"
            );
        }
    }
}

#[test]
fn classification_happens_once_memory_fills() {
    let (_, hpe) = run_hpe("HSD", Oversubscription::Rate50);
    assert!(hpe.classification().is_some());
    assert!(hpe.old_sets_at_full().is_some());
}
