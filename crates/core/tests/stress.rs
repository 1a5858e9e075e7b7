//! Failure-injection and stress tests for HPE: tiny HIR geometries that
//! conflict constantly, pathological division pressure, and degenerate
//! configurations must never break victim-selection correctness.

use hpe_core::{Hpe, HpeConfig, StrategyKind};
use std::collections::HashSet;
use uvm_policies::EvictionPolicy;
use uvm_types::{HirGeometry, PageId};

/// Drives `policy` with `refs` under `capacity`, asserting residency
/// correctness on every eviction. Returns the fault count.
fn drive(policy: &mut Hpe, refs: &[u64], capacity: usize) -> u64 {
    let mut resident: HashSet<PageId> = HashSet::new();
    let mut faults = 0u64;
    let mut notified = false;
    for &r in refs {
        let page = PageId(r);
        if resident.contains(&page) {
            policy.on_walk_hit(page);
            continue;
        }
        if resident.len() == capacity {
            if !notified {
                policy.on_memory_full();
                notified = true;
            }
            #[expect(
                clippy::expect_used,
                reason = "test helper: a missing victim fails the test"
            )]
            let v = policy.select_victim().expect("victim exists");
            assert!(resident.remove(&v), "victim {v} not resident");
        }
        policy.on_fault(page, faults);
        resident.insert(page);
        faults += 1;
    }
    faults
}

#[test]
fn conflict_storm_in_a_tiny_hir_is_survivable() {
    // A 2-entry direct-mapped HIR under touches to 64 different sets:
    // nearly every record conflicts; correctness must be unaffected.
    let mut cfg = HpeConfig::paper_default();
    cfg.hir = HirGeometry {
        entries: 2,
        ways: 1,
        counter_bits: 2,
    };
    let mut hpe = Hpe::new(cfg).unwrap();
    let refs: Vec<u64> = (0..1024u64).chain(0..1024).chain(0..1024).collect();
    drive(&mut hpe, &refs, 512);
    let stats = hpe.stats();
    assert!(
        stats.hir_conflict_evictions > 10,
        "expected conflicts in a 2-entry HIR, saw {}",
        stats.hir_conflict_evictions
    );
    assert!(stats.hir_flushes > 0);
}

#[test]
fn pathological_division_pressure() {
    // Touch exactly one page per set, hammering counters to saturation:
    // every set wants to divide. Division bookkeeping must stay bounded
    // and evictions correct.
    let mut cfg = HpeConfig::paper_default();
    cfg.use_hir = false;
    let mut hpe = Hpe::new(cfg).unwrap();
    let mut refs = Vec::new();
    for set in 0..64u64 {
        refs.push(set * 16); // fault one page per set
        for _ in 0..70 {
            refs.push(set * 16); // hammer it past saturation
        }
    }
    // Now fault the *other* pages (secondaries).
    for set in 0..64u64 {
        for off in 1..16u64 {
            refs.push(set * 16 + off);
        }
    }
    drive(&mut hpe, &refs, 256);
    assert_eq!(hpe.divided_sets(), 64, "every set divides exactly once");
}

#[test]
fn minimal_page_set_size_works() {
    let mut cfg = HpeConfig::paper_default();
    cfg.page_set_size = 1; // degenerate: page-granular HPE
    cfg.wrong_eviction_trigger = 1;
    cfg.small_footprint_sets = 4;
    let mut hpe = Hpe::new(cfg).unwrap();
    let refs: Vec<u64> = (0..100u64).cycle().take(500).collect();
    let faults = drive(&mut hpe, &refs, 50);
    assert!(faults >= 100);
}

#[test]
fn maximal_page_set_size_works() {
    let mut cfg = HpeConfig::paper_default();
    cfg.page_set_size = 64;
    cfg.counter_max = 256;
    cfg.wrong_eviction_trigger = 64;
    cfg.small_footprint_sets = 256;
    let mut hpe = Hpe::new(cfg).unwrap();
    let refs: Vec<u64> = (0..512u64).cycle().take(2048).collect();
    let faults = drive(&mut hpe, &refs, 256);
    assert!(faults >= 512);
}

#[test]
fn forced_lru_equals_partition_lru_semantics() {
    // With a forced LRU strategy and one interval per page set, HPE's
    // victims always come from the least-recently-touched sets; check it
    // empirically by ensuring a freshly touched set's pages are never the
    // first victims.
    let mut cfg = HpeConfig::paper_default();
    cfg.forced_strategy = Some(StrategyKind::Lru);
    cfg.use_hir = false;
    let mut hpe = Hpe::new(cfg).unwrap();
    // Fill 4 sets' worth of pages in order; capacity forces one eviction.
    let refs: Vec<u64> = (0..64u64).chain([63u64]).chain([64u64]).collect();
    let mut resident: HashSet<PageId> = HashSet::new();
    let mut faults = 0;
    for &r in &refs {
        let page = PageId(r);
        if resident.contains(&page) {
            hpe.on_walk_hit(page);
            continue;
        }
        if resident.len() == 64 {
            hpe.on_memory_full();
            let v = hpe.select_victim().unwrap();
            assert!(
                v.0 < 16,
                "LRU strategy must evict from the oldest set, got {v}"
            );
            resident.remove(&v);
        }
        hpe.on_fault(page, faults);
        resident.insert(page);
        faults += 1;
    }
}

#[test]
fn empty_policy_returns_no_victim() {
    let mut hpe = Hpe::new(HpeConfig::paper_default()).unwrap();
    assert_eq!(hpe.select_victim(), None);
}

#[test]
fn interleaved_hits_for_nonresident_pages_do_not_corrupt() {
    // Stale HIR-style hits (for pages never faulted) must not create
    // evictable state.
    let mut cfg = HpeConfig::paper_default();
    cfg.use_hir = false;
    let mut hpe = Hpe::new(cfg).unwrap();
    for p in 0..100u64 {
        hpe.on_walk_hit(PageId(p + 10_000)); // hits for foreign pages
    }
    hpe.on_fault(PageId(1), 0);
    hpe.on_memory_full();
    assert_eq!(hpe.select_victim(), Some(PageId(1)));
    assert_eq!(hpe.select_victim(), None);
}
