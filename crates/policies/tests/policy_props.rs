//! Property-based tests shared across all eviction policies: driven with
//! random reference strings against a residency model, every policy must
//! (a) only evict resident pages, (b) never fault more than the reference
//! count, (c) never beat Belady's MIN.

use std::collections::HashSet;
use uvm_policies::{
    ArcPolicy, Bip, Car, Clock, ClockPro, ClockProConfig, Dip, EvictionPolicy, Ideal, Lfu, Lru,
    NextUseOracle, RandomPolicy, Rrip, RripConfig, SetLru, WsClock, WsClockConfig,
};
use uvm_types::PageId;
use uvm_util::prop::{shrink_vec, Checker};

/// Drives the policy like the fault driver would; panics (failing the
/// property) if a victim is not resident. Returns the fault count.
fn replay(policy: &mut dyn EvictionPolicy, refs: &[u64], capacity: usize) -> u64 {
    let mut resident: HashSet<PageId> = HashSet::new();
    let mut faults = 0u64;
    let mut notified = false;
    for &r in refs {
        let page = PageId(r);
        policy.on_access(page);
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
            let victim = policy.select_victim().expect("a victim must exist");
            assert!(resident.remove(&victim), "victim {victim} not resident");
        }
        policy.on_fault(page, faults);
        resident.insert(page);
        faults += 1;
    }
    faults
}

fn belady_faults(refs: &[u64], capacity: usize) -> u64 {
    let order: Vec<PageId> = refs.iter().map(|&r| PageId(r)).collect();
    let mut ideal = Ideal::new(NextUseOracle::from_order(order));
    replay(&mut ideal, refs, capacity)
}

fn policies() -> Vec<Box<dyn EvictionPolicy>> {
    vec![
        Box::new(Lru::new()),
        Box::new(RandomPolicy::seeded(42)),
        Box::new(Lfu::new()),
        Box::new(Rrip::new(RripConfig::default())),
        Box::new(Rrip::new(RripConfig::for_thrashing())),
        Box::new(Rrip::new(RripConfig {
            m_bits: 8,
            ..RripConfig::for_thrashing()
        })),
        Box::new(Clock::new()),
        Box::new(WsClock::new(WsClockConfig { tau: 64 })),
        Box::new(ClockPro::new(ClockProConfig { m_c: 8 })),
        Box::new(Bip::new()),
        Box::new(Dip::new()),
        Box::new(ArcPolicy::new()),
        Box::new(Car::new()),
        Box::new(SetLru::new(4)),
    ]
}

#[test]
fn every_policy_respects_residency_and_fault_bounds() {
    Checker::new().cases(48).run_shrink(
        |rng| {
            (
                rng.gen_vec(1..600, |r| r.gen_range(0u64..48)),
                rng.gen_range(2usize..32),
            )
        },
        |(refs, capacity)| {
            shrink_vec(refs)
                .into_iter()
                .filter(|v| !v.is_empty())
                .map(|v| (v, *capacity))
                .collect()
        },
        |(refs, capacity)| {
            let distinct = refs.iter().collect::<HashSet<_>>().len() as u64;
            for mut policy in policies() {
                let faults = replay(policy.as_mut(), refs, *capacity);
                assert!(
                    faults >= distinct,
                    "{}: {} faults < {} compulsory",
                    policy.name(),
                    faults,
                    distinct
                );
                assert!(
                    faults <= refs.len() as u64,
                    "{}: more faults than references",
                    policy.name()
                );
            }
        },
    );
}

#[test]
fn no_policy_beats_belady() {
    Checker::new().cases(48).run_shrink(
        |rng| {
            (
                rng.gen_vec(1..400, |r| r.gen_range(0u64..32)),
                rng.gen_range(2usize..24),
            )
        },
        |(refs, capacity)| {
            shrink_vec(refs)
                .into_iter()
                .filter(|v| !v.is_empty())
                .map(|v| (v, *capacity))
                .collect()
        },
        |(refs, capacity)| {
            let min = belady_faults(refs, *capacity);
            for mut policy in policies() {
                let faults = replay(policy.as_mut(), refs, *capacity);
                assert!(
                    faults >= min,
                    "{}: {} faults beats MIN's {}",
                    policy.name(),
                    faults,
                    min
                );
            }
        },
    );
}

#[test]
fn policies_hit_entirely_within_capacity_working_sets() {
    Checker::new().cases(48).run(
        |rng| (rng.gen_range(2u64..16), rng.gen_range(2u32..10)),
        |&(ws, rounds)| {
            // A working set that fits must only ever take compulsory faults
            // (no pathological self-eviction). Random is excluded: it evicts
            // only when capacity is exceeded, so it also satisfies this.
            let refs: Vec<u64> = (0..rounds).flat_map(|_| 0..ws).collect();
            for mut policy in policies() {
                let faults = replay(policy.as_mut(), &refs, ws as usize);
                assert_eq!(
                    faults,
                    ws,
                    "{}: faulted {} times on a resident working set of {}",
                    policy.name(),
                    faults,
                    ws
                );
            }
        },
    );
}
