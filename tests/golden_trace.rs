//! Golden-trace determinism tests.
//!
//! Each test drives one eviction policy end to end over a fixed-seed
//! workload (`STN`, the smallest registered footprint) at 75%
//! oversubscription, twice, and asserts:
//!
//! 1. the two runs are bit-identical (`SimStats: Eq`), and
//! 2. the stats match a pinned snapshot, serialized through the in-repo
//!    JSON encoder so the whole struct is covered in one comparison.
//!
//! If an intentional change to the engine, a policy, the PRNG, or the
//! workload builders shifts a snapshot, re-pin it from the "actual"
//! string in the assertion failure. An *unintentional* diff here means
//! determinism or replay compatibility broke.

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{
    ClockPro, ClockProConfig, EvictionPolicy, Lru, RandomPolicy, Rrip, RripConfig,
};
use hpe::sim::{ideal_for, trace_for, Simulation};
use hpe::types::{Oversubscription, SimConfig, SimStats};
use hpe::util::ToJson;
use hpe::workloads::registry;

/// The primary fixture: STN (stencil, 768 pages) under `scaled_default`
/// at 75%.
const APP: &str = "STN";

/// The secondary fixture: SGM (sgemm, 1792 pages), the Type V repetitive
/// thrasher on which HPE's interval classifier alternates between the
/// LRU and MRU-C strategies over the run — churn in the strategy-switch
/// path shows up here even when STN (which settles quickly) is stable.
const APP_TYPE_V: &str = "SGM";

fn run_once(abbr: &str, make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>) -> SimStats {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(abbr).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let policy = make(&cfg);
    Simulation::new(cfg.clone(), &trace, policy, capacity)
        .expect("valid sim")
        .run()
        .expect("run completes")
        .stats
}

fn golden_app(
    name: &str,
    abbr: &str,
    make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>,
    pinned: &str,
) -> SimStats {
    let first = run_once(abbr, make);
    let second = run_once(abbr, make);
    assert_eq!(first, second, "{name}: two identical runs diverged");
    let actual = first.to_json().to_string();
    assert_eq!(
        actual, pinned,
        "{name}: stats drifted from the pinned snapshot.\nactual: {actual}"
    );
    first
}

fn golden(name: &str, make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>, pinned: &str) {
    golden_app(name, APP, make, pinned);
}

#[test]
fn trace_generation_is_pinned() {
    // The workload builder feeds every golden run; pin its shape first so
    // a drifted policy snapshot can be told apart from a drifted trace.
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(APP).expect("registered app");
    let a = trace_for(&cfg, app);
    let b = trace_for(&cfg, app);
    assert_eq!(
        a.to_json().to_string(),
        b.to_json().to_string(),
        "trace generation is not deterministic"
    );
    assert_eq!(a.footprint_pages(), 768);
    assert_eq!(a.total_ops(), 4608);
    assert_eq!(a.distinct_pages(), 768);
}

#[test]
fn golden_lru() {
    golden(
        "LRU",
        &|_| Box::new(Lru::new()),
        r#"{"cycles":129024028,"instructions":27648,"mem_accesses":4608,"walks":9216,"walk_hits":4608,"tlb":{"l1_hits":0,"l1_misses":9216,"l2_hits":0,"l2_misses":9216},"driver":{"busy_cycles":129024000,"faults_serviced":4608,"evictions":4032,"wrong_evictions":0,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":4032,"search_comparisons":0,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}

#[test]
fn golden_random() {
    golden(
        "Random",
        &|_| Box::new(RandomPolicy::seeded(7)),
        r#"{"cycles":45220672,"instructions":27648,"mem_accesses":4608,"walks":5470,"walk_hits":3344,"tlb":{"l1_hits":0,"l1_misses":6734,"l2_hits":1264,"l2_misses":5470},"driver":{"busy_cycles":45220000,"faults_serviced":1615,"evictions":1039,"wrong_evictions":364,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":1039,"search_comparisons":0,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}

#[test]
fn golden_rrip() {
    golden(
        "RRIP",
        &|_| Box::new(Rrip::new(RripConfig::default())),
        r#"{"cycles":129024028,"instructions":27648,"mem_accesses":4608,"walks":9216,"walk_hits":4608,"tlb":{"l1_hits":0,"l1_misses":9216,"l2_hits":0,"l2_misses":9216},"driver":{"busy_cycles":129024000,"faults_serviced":4608,"evictions":4032,"wrong_evictions":0,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":4032,"search_comparisons":2322432,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}

#[test]
fn golden_rrip_thrashing() {
    // The type II configuration: distant insertion behind a 128-fault
    // delay field, so victim selection runs through the delay-blocked path
    // that the default configuration never takes.
    golden(
        "RRIP(thrashing)",
        &|_| Box::new(Rrip::new(RripConfig::for_thrashing())),
        r#"{"cycles":129024028,"instructions":27648,"mem_accesses":4608,"walks":9216,"walk_hits":4608,"tlb":{"l1_hits":0,"l1_misses":9216,"l2_hits":0,"l2_misses":9216},"driver":{"busy_cycles":129024000,"faults_serviced":4608,"evictions":4032,"wrong_evictions":0,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":4032,"search_comparisons":2322432,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
    golden_app(
        "RRIP(thrashing)/SGM",
        APP_TYPE_V,
        &|_| Box::new(Rrip::new(RripConfig::for_thrashing())),
        r#"{"cycles":157696029,"instructions":39424,"mem_accesses":5632,"walks":11264,"walk_hits":5632,"tlb":{"l1_hits":0,"l1_misses":11264,"l2_hits":0,"l2_misses":11264},"driver":{"busy_cycles":157696000,"faults_serviced":5632,"evictions":4288,"wrong_evictions":3072,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":4288,"search_comparisons":5763072,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}

#[test]
fn golden_clockpro() {
    golden(
        "CLOCK-Pro",
        &|_| Box::new(ClockPro::new(ClockProConfig::default())),
        r#"{"cycles":129024028,"instructions":27648,"mem_accesses":4608,"walks":9216,"walk_hits":4608,"tlb":{"l1_hits":0,"l1_misses":9216,"l2_hits":0,"l2_misses":9216},"driver":{"busy_cycles":129024000,"faults_serviced":4608,"evictions":4032,"wrong_evictions":448,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":4032,"search_comparisons":0,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}

#[test]
fn golden_ideal() {
    golden(
        "Ideal",
        &|cfg| {
            let app = registry::by_abbr(APP).expect("registered app");
            let trace = trace_for(cfg, app);
            Box::new(ideal_for(&trace))
        },
        r#"{"cycles":33628280,"instructions":27648,"mem_accesses":4608,"walks":4978,"walk_hits":3487,"tlb":{"l1_hits":0,"l1_misses":6099,"l2_hits":1121,"l2_misses":4978},"driver":{"busy_cycles":33628000,"faults_serviced":1201,"evictions":625,"wrong_evictions":76,"hit_transfer_cycles":0,"prefetched_pages":0},"policy":{"selections":625,"search_comparisons":0,"hir_flushes":0,"hir_entries_transferred":0,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":0,"intervals_mruc":0,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}

#[test]
fn golden_hpe_sgm() {
    let stats = golden_app(
        "HPE/SGM",
        APP_TYPE_V,
        &|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).expect("valid HPE")),
        r#"{"cycles":62105186,"instructions":39424,"mem_accesses":5632,"walks":7848,"walk_hits":5404,"tlb":{"l1_hits":0,"l1_misses":8076,"l2_hits":228,"l2_misses":7848},"driver":{"busy_cycles":62292507,"faults_serviced":2218,"evictions":874,"wrong_evictions":159,"hit_transfer_cycles":1157,"prefetched_pages":0},"policy":{"selections":874,"search_comparisons":33203,"hir_flushes":138,"hir_entries_transferred":1249,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":21,"intervals_mruc":13,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
    // The reason this app is pinned: both strategies must stay in play.
    assert!(stats.policy.intervals_lru > 0, "SGM must run LRU intervals");
    assert!(
        stats.policy.intervals_mruc > 0,
        "SGM must run MRU-C intervals"
    );
}

#[test]
fn golden_hpe() {
    golden(
        "HPE",
        &|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).expect("valid HPE")),
        r#"{"cycles":70784920,"instructions":27648,"mem_accesses":4608,"walks":7136,"walk_hits":4608,"tlb":{"l1_hits":0,"l1_misses":7136,"l2_hits":0,"l2_misses":7136},"driver":{"busy_cycles":70924542,"faults_serviced":2528,"evictions":1952,"wrong_evictions":409,"hit_transfer_cycles":892,"prefetched_pages":0},"policy":{"selections":1952,"search_comparisons":38608,"hir_flushes":158,"hir_entries_transferred":931,"hir_conflict_evictions":0,"strategy_switches":0,"intervals_lru":9,"intervals_mruc":30,"page_sets_divided":0,"degraded_entries":0,"degraded_faults":0,"late_flushes_applied":0,"stale_flushes_dropped":0,"suspended_flushes":0},"resilience":{"fallback_victims":0,"injected_delay_cycles":0,"tail_latency_events":0,"congested_services":0,"completions_lost":0,"faults_during_hir_outage":0,"spurious_wrong_evictions":0,"hir_flushes_lost":0,"wasted_flush_cycles":0,"circuit_breaker_trips":0,"delayed_hir_flushes":0,"retry_attempts":0,"retry_backoff_cycles":0,"victims_dropped":0}}"#,
    );
}
