//! Property-based tests of the engine under random fault-injection plans.
//!
//! The clean-run invariant suite lives in `sim_props.rs`; these cases
//! re-check the core accounting invariants while a randomized
//! [`FaultPlan`] perturbs latencies, drops completions, and corrupts
//! policy signals. Timing-sensitive clean-run bounds (e.g. driver busy
//! cycles per fault) are intentionally NOT asserted here: jitter may
//! legally shrink a service below its base latency.

use std::collections::HashSet;
use uvm_policies::Lru;
use uvm_sim::{trace_for, Checkpoint, FaultPlan, RetryPolicy, Sanitizer, Simulation};
use uvm_types::{Oversubscription, SimConfig, SimError, SimStats, TlbConfig};
use uvm_util::prop::Checker;
use uvm_util::{FromJson, Json, Rng, ToJson};
use uvm_workloads::{registry, Trace};

#[expect(
    clippy::expect_used,
    reason = "test helper: the geometry is fixed and valid"
)]
fn small_cfg(n_sms: u32) -> SimConfig {
    SimConfig::builder()
        .n_sms(n_sms)
        .warps_per_sm(1)
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

/// Draws a random *completing* plan: every perturbation may be active,
/// but completion loss is always bounded so the run can finish.
fn random_plan(rng: &mut Rng) -> FaultPlan {
    let lossy = rng.gen_bool(0.5);
    FaultPlan {
        seed: rng.next_u64(),
        latency_jitter: rng.gen_f64() * 0.5,
        tail_probability: rng.gen_f64() * 0.1,
        tail_multiplier: rng.gen_range(2u64..10),
        congestion_period: rng.gen_range(1_000u64..2_000_000),
        // Duties are kept away from zero so the congested / down windows
        // never round to zero cycles (validate rejects such plans).
        congestion_duty: 0.01 + rng.gen_f64() * 0.99,
        congestion_factor: rng.gen_range(2u64..10),
        completion_loss_probability: if lossy { rng.gen_f64() * 0.2 } else { 0.0 },
        retry_cycles: rng.gen_range(1_000u64..20_000),
        max_completion_retries: Some(rng.gen_range(1u64..4) as u32),
        hir_outage_period: rng.gen_range(16u64..512),
        hir_outage_duty: 0.1 + rng.gen_f64() * 0.9,
        spurious_wrong_eviction_probability: rng.gen_f64() * 0.1,
        hir_delay_probability: rng.gen_f64() * 0.3,
        hir_delay_faults: rng.gen_range(1u64..64),
        victim_drop_probability: rng.gen_f64() * 0.1,
        windows: Vec::new(),
    }
}

#[expect(
    clippy::expect_used,
    reason = "test helper: a failed chaos run fails the test"
)]
fn run_chaos(global: &[u64], capacity: u64, plan: &FaultPlan) -> SimStats {
    let trace = Trace::from_global(global, 40, 2, 3, 3);
    let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), capacity).expect("valid sim");
    sim.set_fault_plan(plan.clone()).expect("valid plan");
    // Every chaos property runs with the invariant sanitizer enabled at a
    // tight cadence: injection must never corrupt engine accounting, and
    // the sanitizer itself must never perturb stats (the comparisons
    // against sanitizer-off runs below double as that proof).
    sim.set_sanitizer(Sanitizer::new(256));
    sim.run().expect("chaos run completes").stats
}

#[test]
fn accounting_invariants_survive_random_fault_plans() {
    Checker::new().cases(48).run(
        |rng| {
            (
                rng.gen_vec(1..300, |r| r.gen_range(0u64..40)),
                rng.gen_range(2u64..48),
                random_plan(rng),
            )
        },
        |(global, capacity, plan)| {
            let capacity = *capacity;
            plan.validate().expect("generated plan is valid");
            let distinct = global.iter().collect::<HashSet<_>>().len() as u64;
            let stats = run_chaos(global, capacity, plan);

            // Execution accounting is injection-independent: every op ran
            // exactly once no matter how services were perturbed.
            assert_eq!(stats.mem_accesses, global.len() as u64);
            assert!(stats.faults() >= distinct);
            assert!(stats.faults() <= global.len() as u64);
            // Residency conservation still bounds live pages by capacity.
            let resident_end = stats.faults() - stats.evictions();
            assert!(resident_end <= capacity.min(distinct));
            assert!(resident_end >= 1);
            // Injection counters are bounded by what the run serviced.
            let res = &stats.resilience;
            assert!(res.tail_latency_events <= stats.faults());
            assert!(res.congested_services <= stats.faults());
            assert!(res.faults_during_hir_outage <= stats.faults());
            assert!(res.spurious_wrong_evictions <= stats.faults());
            assert!(res.fallback_victims <= stats.evictions());
            // Bounded retries: each fault loses at most max_retries signals.
            let max_retries = u64::from(plan.max_completion_retries.expect("bounded plan"));
            assert!(res.completions_lost <= stats.faults() * max_retries);
            // Lost completions stall the driver for their retry latency.
            assert!(
                stats.driver.busy_cycles >= res.completions_lost * plan.retry_cycles,
                "busy {} < lost {} x retry {}",
                stats.driver.busy_cycles,
                res.completions_lost,
                plan.retry_cycles
            );
        },
    );
}

#[test]
fn identical_seeds_reproduce_identical_chaos_runs() {
    Checker::new().cases(32).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
                random_plan(rng),
            )
        },
        |(global, capacity, plan)| {
            let a = run_chaos(global, *capacity, plan);
            let b = run_chaos(global, *capacity, plan);
            assert_eq!(a, b, "same plan + seed must replay identically");
        },
    );
}

/// Acceptance: an unbounded completion loss under a retry policy must
/// surface as the typed `SimError::RetriesExhausted` — never a panic and
/// never a silent stall.
#[test]
fn unbounded_loss_with_retry_policy_reports_retries_exhausted() {
    let global: Vec<u64> = (0..10).collect();
    let trace = Trace::from_global(&global, 10, 0, 1, 1);
    let mut sim = Simulation::new(small_cfg(1), &trace, Lru::new(), 16).expect("valid sim");
    sim.set_fault_plan(FaultPlan::livelock(9))
        .expect("valid plan");
    sim.set_retry_policy(RetryPolicy::default())
        .expect("valid policy");
    match sim.run() {
        Err(e @ SimError::RetriesExhausted { .. }) => {
            assert_eq!(e.kind(), "RetriesExhausted");
            assert!(
                e.to_string().contains("retries exhausted"),
                "actionable message, got: {e}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

/// Acceptance: checkpoint → resume yields `SimStats` byte-identical to the
/// uninterrupted run on STN, for several seeds, clean and under active
/// fault plans.
#[test]
fn checkpoint_resume_reproduces_stn_byte_identically() {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("STN").expect("STN registered");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let plans: Vec<(&str, Option<FaultPlan>)> = vec![
        ("clean", None),
        ("signal-chaos/1", Some(FaultPlan::signal_chaos(1))),
        ("latency-storm/2019", Some(FaultPlan::latency_storm(2019))),
        ("completion-loss/77", Some(FaultPlan::completion_loss(77))),
    ];
    for (label, plan) in &plans {
        let build = || {
            let mut sim =
                Simulation::new(cfg.clone(), &trace, Lru::new(), capacity).expect("valid sim");
            if let Some(p) = plan {
                sim.set_fault_plan(p.clone()).expect("valid plan");
            }
            sim
        };
        let straight = build().run().expect("straight run completes").stats;

        let mut paused = build();
        let done = paused.run_until(10_000_000).expect("first half runs");
        assert!(!done, "{label}: pause point must fall inside the run");
        let ckpt = paused.checkpoint();

        let mut resumed = build();
        resumed
            .resume(&ckpt)
            .expect("identical inputs replay identically");
        let stats = resumed.finish().expect("resumed run completes").stats;
        assert_eq!(
            stats.to_json().to_string(),
            straight.to_json().to_string(),
            "{label}: resumed stats must be byte-identical"
        );
    }
}

/// Property: the invariant sanitizer is observation-only under active
/// fault plans — a sanitized run's `SimStats` are byte-identical to the
/// same run without a sanitizer, at any cadence.
#[test]
fn sanitizer_is_byte_identical_under_random_fault_plans() {
    Checker::new().cases(24).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
                random_plan(rng),
                rng.gen_range(1u64..4096),
            )
        },
        |(global, capacity, plan, cadence)| {
            let trace = Trace::from_global(global, 30, 2, 3, 3);
            let run = |sanitize: Option<u64>| {
                let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), *capacity)
                    .expect("valid sim");
                sim.set_fault_plan(plan.clone()).expect("valid plan");
                if let Some(c) = sanitize {
                    sim.set_sanitizer(Sanitizer::new(c));
                }
                sim.run().expect("run completes").stats
            };
            let plain = run(None);
            let sanitized = run(Some(*cadence));
            assert_eq!(
                sanitized.to_json().to_string(),
                plain.to_json().to_string(),
                "sanitizer (cadence {cadence}) must not perturb stats"
            );
        },
    );
}

/// Property: `FaultPlan` JSON serialization round-trips byte-identically
/// (serialize → parse → re-serialize).
#[test]
fn fault_plan_json_roundtrip_is_byte_identical() {
    Checker::new().cases(64).run(random_plan, |plan| {
        let text = plan.to_json().to_string();
        let parsed = FaultPlan::from_json(&Json::parse(&text).expect("serialized plan parses"))
            .expect("parsed plan converts");
        assert_eq!(&parsed, plan);
        assert_eq!(parsed.to_json().to_string(), text);
    });
}

/// Property: checkpoints taken from real paused chaos runs round-trip
/// through JSON byte-identically.
#[test]
fn checkpoint_json_roundtrip_is_byte_identical() {
    Checker::new().cases(12).run(
        |rng| {
            (
                rng.gen_vec(50..300, |r| r.gen_range(0u64..40)),
                rng.gen_range(4u64..48),
                random_plan(rng),
                rng.gen_range(10_000u64..1_000_000),
            )
        },
        |(global, capacity, plan, limit)| {
            let trace = Trace::from_global(global, 40, 2, 3, 3);
            let mut sim =
                Simulation::new(small_cfg(3), &trace, Lru::new(), *capacity).expect("valid sim");
            sim.set_fault_plan(plan.clone()).expect("valid plan");
            let _ = sim.run_until(*limit).expect("run proceeds");
            let ckpt = sim.checkpoint();
            let text = ckpt.to_json().to_string();
            let back = Checkpoint::from_json(&Json::parse(&text).expect("checkpoint parses"))
                .expect("checkpoint converts");
            assert_eq!(back, ckpt);
            assert_eq!(back.to_json().to_string(), text);
        },
    );
}

/// Sanitizer cadence boundaries: a cadence of 1 checks after every event
/// and a cadence far beyond the run's event count still gets exactly the
/// final end-of-run pass — both leave stats byte-identical to no
/// sanitizer at all.
#[test]
fn sanitizer_cadence_boundaries_check_and_stay_observation_only() {
    let global: Vec<u64> = (0..30u64).cycle().take(120).collect();
    let trace = Trace::from_global(&global, 30, 2, 3, 3);
    let run = |sanitize: Option<u64>| {
        let mut sim = Simulation::new(small_cfg(3), &trace, Lru::new(), 20).expect("valid sim");
        sim.set_fault_plan(FaultPlan::latency_storm(11))
            .expect("valid plan");
        if let Some(c) = sanitize {
            sim.set_sanitizer(Sanitizer::new(c));
        }
        assert!(sim.run_until(u64::MAX).expect("run completes"));
        let checks = sim.sanitizer().map(|s| s.checks_run());
        (sim.finish().expect("finish").stats, checks)
    };
    let (plain, _) = run(None);

    // Cadence 1: one check per event plus the final pass.
    let (tight, tight_checks) = run(Some(1));
    assert_eq!(tight.to_json().to_string(), plain.to_json().to_string());
    assert!(tight_checks.expect("sanitizer attached") > 1);

    // Cadence longer than the whole run: run_until itself never hits a
    // cadence boundary; finish() still runs the final pass.
    let (sparse, sparse_checks) = run(Some(u64::MAX));
    assert_eq!(sparse.to_json().to_string(), plain.to_json().to_string());
    assert_eq!(
        sparse_checks.expect("sanitizer attached"),
        0,
        "cadence beyond run length must not fire mid-run"
    );
}

#[test]
fn noop_plan_is_byte_identical_to_no_plan() {
    Checker::new().cases(32).run(
        |rng| {
            (
                rng.gen_vec(1..200, |r| r.gen_range(0u64..30)),
                rng.gen_range(2u64..32),
            )
        },
        |(global, capacity)| {
            let trace = Trace::from_global(global, 30, 2, 3, 3);
            let clean = Simulation::new(small_cfg(3), &trace, Lru::new(), *capacity)
                .expect("valid sim")
                .run()
                .expect("run completes")
                .stats;
            let noop = run_chaos(global, *capacity, &FaultPlan::none());
            assert_eq!(
                clean.to_json().to_string(),
                noop.to_json().to_string(),
                "a no-op plan must not perturb anything"
            );
            assert!(!noop.resilience.any());
        },
    );
}
