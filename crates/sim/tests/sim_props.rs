//! Property-based tests of the simulation engine's accounting invariants.

use std::collections::HashSet;
use uvm_policies::Lru;
use uvm_sim::Simulation;
use uvm_types::{SimConfig, TlbConfig};
use uvm_util::prop::Checker;
use uvm_workloads::Trace;

#[expect(
    clippy::expect_used,
    reason = "test helper: the geometry is fixed and valid"
)]
fn small_cfg(n_sms: u32, warps: u32) -> SimConfig {
    SimConfig::builder()
        .n_sms(n_sms)
        .warps_per_sm(warps)
        .l1_tlb(TlbConfig {
            entries: 4,
            ways: 4,
            latency_cycles: 1,
        })
        .l2_tlb(TlbConfig {
            entries: 8,
            ways: 4,
            latency_cycles: 10,
        })
        .build()
        .expect("valid config")
}

#[test]
fn accounting_invariants_hold() {
    Checker::new().cases(48).run(
        |rng| {
            (
                rng.gen_vec(1..400, |r| r.gen_range(0u64..40)),
                rng.gen_range(2u64..48),
                rng.gen_range(1u32..6),
                rng.gen_range(0u16..8),
            )
        },
        |(global, capacity, streams, compute)| {
            let (capacity, streams, compute) = (*capacity, *streams, *compute);
            let footprint = 40;
            let distinct = global.iter().collect::<HashSet<_>>().len() as u64;
            let trace = Trace::from_global(global, footprint, compute, streams, 3);
            let cfg = small_cfg(streams, 1);
            let stats = Simulation::new(cfg, &trace, Lru::new(), capacity)
                .expect("valid sim")
                .run()
                .expect("run completes")
                .stats;

            // Every op executed exactly once.
            assert_eq!(stats.mem_accesses, global.len() as u64);
            assert_eq!(
                stats.instructions,
                global.len() as u64 * (1 + u64::from(compute))
            );
            // Faults: at least compulsory, at most one per reference.
            assert!(stats.faults() >= distinct);
            assert!(stats.faults() <= global.len() as u64);
            // Residency conservation: inserted - evicted = resident at end.
            let resident_end = stats.faults() - stats.evictions();
            assert!(resident_end <= capacity.min(distinct));
            assert!(resident_end >= 1);
            // TLB lookups partition into hits and misses consistently.
            assert_eq!(
                stats.tlb.l1_hits + stats.tlb.l1_misses,
                stats.tlb.l2_hits + stats.tlb.l2_misses + stats.tlb.l1_hits
            );
            // Every walk is a hit or a fault-triggering miss; replays re-walk,
            // so hits + distinct faults cannot exceed total walks.
            assert!(stats.walk_hits <= stats.walks);
            // Time moved forward and the driver was busy for every fault.
            assert!(stats.cycles > 0);
            assert!(stats.driver.busy_cycles >= stats.faults() * 28_000);
        },
    );
}

#[test]
fn simulation_is_deterministic() {
    Checker::new().cases(48).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
            )
        },
        |(global, capacity)| {
            let trace = Trace::from_global(global, 30, 2, 3, 4);
            let cfg = small_cfg(3, 1);
            let run = || {
                Simulation::new(cfg.clone(), &trace, Lru::new(), *capacity)
                    .expect("valid sim")
                    .run()
                    .expect("run completes")
                    .stats
            };
            assert_eq!(run(), run());
        },
    );
}

#[test]
fn ample_capacity_faults_compulsory_only() {
    Checker::new().cases(48).run(
        |rng| rng.gen_vec(10..250, |r| r.gen_range(0u64..24)),
        |global| {
            // With memory at least as large as the footprint, every policy
            // takes exactly the compulsory faults and evicts nothing.
            let distinct = global.iter().collect::<HashSet<_>>().len() as u64;
            let trace = Trace::from_global(global, 24, 0, 2, 4);
            let cfg = small_cfg(2, 1);
            let stats = Simulation::new(cfg, &trace, Lru::new(), 24)
                .expect("valid sim")
                .run()
                .expect("run completes")
                .stats;
            assert_eq!(stats.faults(), distinct);
            assert_eq!(stats.evictions(), 0);
            assert_eq!(stats.driver.wrong_evictions, 0);
        },
    );
}
