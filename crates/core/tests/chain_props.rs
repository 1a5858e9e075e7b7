//! Property-based tests for the page set chain's invariants.

use hpe_core::{HpeConfig, PageSetChain, StrategyKind};
use std::collections::HashSet;
use uvm_types::PageId;
use uvm_util::prop::{shrink_vec, Checker};
use uvm_util::Rng;

#[derive(Debug, Clone)]
enum Op {
    /// Touch page `page` with `count` touches; `fault` marks a page fault.
    Touch {
        page: u64,
        count: u32,
        fault: bool,
    },
    Rotate,
    SelectLru,
    SelectMruc {
        jump: u32,
    },
}

fn gen_op(rng: &mut Rng) -> Op {
    match rng.pick_weighted(&[5, 1, 2, 2]) {
        0 => Op::Touch {
            page: rng.gen_range(0u64..512),
            count: rng.gen_range(1u32..4),
            fault: rng.gen_bool(0.5),
        },
        1 => Op::Rotate,
        2 => Op::SelectLru,
        _ => Op::SelectMruc {
            jump: rng.gen_range(0u32..20),
        },
    }
}

#[test]
fn chain_invariants_hold_under_arbitrary_operations() {
    Checker::new().cases(64).run_shrink(
        |rng| rng.gen_vec(1..300, gen_op),
        |ops| {
            shrink_vec(ops)
                .into_iter()
                .filter(|v| !v.is_empty())
                .collect()
        },
        |ops| {
            let cfg = HpeConfig::paper_default();
            let mut chain = PageSetChain::new(&cfg);
            // Model of residency: pages faulted in and not yet evicted.
            let mut resident: HashSet<u64> = HashSet::new();

            for op in ops {
                match *op {
                    Op::Touch { page, count, fault } => {
                        chain.touch(PageId(page), count, fault);
                        if fault {
                            resident.insert(page);
                        }
                    }
                    Op::Rotate => chain.rotate_interval(),
                    Op::SelectLru | Op::SelectMruc { .. } => {
                        let (strategy, jump) = match *op {
                            Op::SelectMruc { jump } => (StrategyKind::MruC, jump),
                            _ => (StrategyKind::Lru, 0),
                        };
                        match chain.select_victim(strategy, jump) {
                            Some(sel) => {
                                // A victim must be a page the model considers
                                // resident, and each eviction removes it.
                                assert!(
                                    resident.remove(&sel.page.0),
                                    "victim {} not resident",
                                    sel.page
                                );
                            }
                            None => {
                                // No victim means no resident pages tracked.
                                assert!(
                                    resident.is_empty(),
                                    "chain gave up with {} resident pages",
                                    resident.len()
                                );
                            }
                        }
                    }
                }
                // Partition sizes always sum to the entry count.
                assert_eq!(
                    chain.old_len() + chain.middle_len() + chain.new_len(),
                    chain.len(),
                );
            }

            // Draining the chain evicts each remaining resident page exactly
            // once.
            let mut drained = HashSet::new();
            while let Some(sel) = chain.select_victim(StrategyKind::Lru, 0) {
                assert!(drained.insert(sel.page.0), "double eviction");
                assert!(resident.remove(&sel.page.0));
            }
            assert!(resident.is_empty());
        },
    );
}

#[test]
fn counters_saturate_and_divisions_are_stable() {
    Checker::new().cases(64).run_shrink(
        |rng| rng.gen_vec(1..400, |r| (r.gen_range(0u64..64), r.gen_range(1u32..6))),
        |touches| {
            shrink_vec(touches)
                .into_iter()
                .filter(|v| !v.is_empty())
                .collect()
        },
        |touches| {
            let cfg = HpeConfig::paper_default();
            let mut chain = PageSetChain::new(&cfg);
            let mut first_division: Option<u64> = None;
            for &(page, count) in touches {
                chain.touch(PageId(page), count, page % 3 == 0);
                let (key, _) = chain.route(PageId(page));
                if let Some(e) = chain.entry(key) {
                    assert!(e.counter <= 64, "counter overflow: {}", e.counter);
                    // Resident pages are always a subset of faulted pages.
                    assert_eq!(e.resident & !e.bits, 0);
                }
                // Once set 0 divides, its recorded mask never changes.
                if let Some(bits) = chain.division_of(uvm_types::PageSetId(0)) {
                    match first_division {
                        None => first_division = Some(bits),
                        Some(prev) => assert_eq!(prev, bits),
                    }
                }
            }
        },
    );
}
