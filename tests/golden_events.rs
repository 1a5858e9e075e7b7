//! Golden event-stream tests.
//!
//! Companion to `golden_trace.rs`: where that file pins the final
//! `SimStats` of each policy, this one pins a digest of the *event
//! stream* the tracing layer emits for the same fixture (STN at 75%
//! oversubscription, `scaled_default`). The digest covers the event
//! count per kind plus the first and last timestamps, so any change to
//! event emission sites, ordering of the head/tail, or policy-decision
//! instrumentation shows up here even when the aggregate stats stay
//! unchanged.
//!
//! Each policy runs twice: the two digests must match each other
//! (stream determinism) and the pinned snapshot. Re-pin intentional
//! changes from the "actual" string in the failure message.
//!
//! The profile pins do the same for the cycle-attribution profiler:
//! an FNV-1a digest of `ProfileReport::to_json()` for SGM/HPE/75%, clean
//! and under completion loss, plus the cadence-1 sanitizer's counts.

use std::collections::BTreeMap;

use hpe::core::{Hpe, HpeConfig};
use hpe::policies::{ClockPro, ClockProConfig, EvictionPolicy, Lru, Rrip, RripConfig};
use hpe::sim::{
    trace_for, FaultPlan, ProfileConfig, ProfileReport, Profiler, RetryPolicy, Sanitizer, SimEvent,
    Simulation,
};
use hpe::types::{Oversubscription, SimConfig};
use hpe::util::{fnv1a, ToJson};
use hpe::workloads::registry;

const APP: &str = "STN";

fn digest(events: &[SimEvent]) -> String {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.kind()).or_insert(0) += 1;
    }
    let first = events.first().map_or(0, |e| e.time());
    let last = events.last().map_or(0, |e| e.time());
    let kinds: Vec<String> = counts.iter().map(|(k, n)| format!("{k}={n}")).collect();
    format!(
        "n={} first={} last={} {}",
        events.len(),
        first,
        last,
        kinds.join(" ")
    )
}

fn run_digest(
    make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>,
    plan: Option<&FaultPlan>,
) -> String {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(APP).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let mut sim = Simulation::new(cfg.clone(), &trace, make(&cfg), capacity).expect("valid sim");
    if let Some(p) = plan {
        sim.set_fault_plan(p.clone()).expect("valid plan");
    }
    let log = sim.attach_event_log();
    sim.run().expect("run completes");
    let log = std::rc::Rc::try_unwrap(log).expect("sole owner after run");
    digest(log.into_inner().events())
}

fn golden_with_plan(
    name: &str,
    make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>,
    plan: Option<&FaultPlan>,
    pinned: &str,
) {
    let first = run_digest(make, plan);
    let second = run_digest(make, plan);
    assert_eq!(first, second, "{name}: event streams of two runs diverged");
    assert_eq!(
        first, pinned,
        "{name}: event digest drifted from the pinned snapshot.\nactual: {first}"
    );
}

fn golden(name: &str, make: &dyn Fn(&SimConfig) -> Box<dyn EvictionPolicy>, pinned: &str) {
    golden_with_plan(name, make, None, pinned);
}

#[test]
fn golden_events_lru() {
    golden(
        "LRU",
        &|_| Box::new(Lru::new()),
        "n=22465 first=0 last=129024000 Eviction=4032 FaultRaised=4608 FaultServiced=4608 MemoryFull=1 PageWalk=9216",
    );
}

#[test]
fn golden_events_rrip() {
    golden(
        "RRIP",
        &|_| Box::new(Rrip::new(RripConfig::default())),
        // Identical to LRU's digest: on this fixture RRIP also faults on
        // every access and never evicts wrongly; only its (policy-internal)
        // comparison counts differ, which the stream does not carry for
        // baselines.
        "n=22465 first=0 last=129024000 Eviction=4032 FaultRaised=4608 FaultServiced=4608 MemoryFull=1 PageWalk=9216",
    );
}

#[test]
fn golden_events_clockpro() {
    golden(
        "CLOCK-Pro",
        &|_| Box::new(ClockPro::new(ClockProConfig::default())),
        "n=22913 first=0 last=129024000 Eviction=4032 FaultRaised=4608 FaultServiced=4608 MemoryFull=1 PageWalk=9216 WrongEviction=448",
    );
}

#[test]
fn golden_events_hpe() {
    golden(
        "HPE",
        &|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).expect("valid HPE")),
        // HPE is the only policy here with decision events: VictimSelected
        // per eviction plus HirFlush batches.
        "n=16664 first=0 last=70784892 Eviction=1952 FaultRaised=2528 FaultServiced=2528 HirFlush=158 MemoryFull=1 PageWalk=7136 VictimSelected=1952 WrongEviction=409",
    );
}

#[test]
fn golden_events_hpe_degraded() {
    // The same fixture under the seeded `signal_chaos` plan: periodic HIR
    // outages force HPE into its degraded LRU fallback and back, which
    // must show up as StrategySwitch events (Degraded transitions) in a
    // reproducible stream. Re-pin from "actual" on intentional changes to
    // injection or degradation logic.
    golden_with_plan(
        "HPE/signal-chaos",
        &|cfg| Box::new(Hpe::new(HpeConfig::from_sim(cfg)).expect("valid HPE")),
        Some(&FaultPlan::signal_chaos(2019)),
        "n=11362 first=0 last=47600451 Eviction=1124 FaultRaised=1700 FaultServiced=1700 HirFlush=60 MemoryFull=1 PageWalk=5345 StrategySwitch=7 VictimSelected=1124 WrongEviction=301",
    );
}

#[test]
fn degraded_run_emits_degraded_strategy_switches() {
    use hpe::types::StrategyTag;

    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr(APP).expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let hpe = Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE");
    let mut sim = Simulation::new(
        cfg,
        &trace,
        Box::new(hpe) as Box<dyn EvictionPolicy>,
        capacity,
    )
    .expect("valid sim");
    sim.set_fault_plan(FaultPlan::signal_chaos(2019))
        .expect("valid plan");
    let log = sim.attach_event_log();
    sim.run().expect("run completes");
    let log = std::rc::Rc::try_unwrap(log).expect("sole owner after run");
    let events = log.into_inner();
    let mut into_degraded = 0u32;
    let mut out_of_degraded = 0u32;
    for e in events.events() {
        if let SimEvent::StrategySwitch { from, to, .. } = *e {
            into_degraded += u32::from(to == StrategyTag::Degraded);
            out_of_degraded += u32::from(from == StrategyTag::Degraded);
        }
    }
    assert!(
        into_degraded > 0,
        "signal-chaos must push HPE into degraded mode at least once"
    );
    assert!(
        out_of_degraded > 0,
        "HPE must recover from degraded mode once the HIR channel returns"
    );
}

/// SGM/HPE/75% with the profiler (default cadence) and, when given, a
/// cadence-`sanitize` sanitizer attached. Returns the finalized profile
/// plus the sanitizer's `events_seen`/`checks_run` after the last event
/// (before the end-of-run pass).
fn profiled_sgm(
    plan: Option<(FaultPlan, RetryPolicy)>,
    sanitize: Option<u64>,
) -> (ProfileReport, Option<(u64, u64)>) {
    let cfg = SimConfig::scaled_default();
    let app = registry::by_abbr("SGM").expect("registered app");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    let hpe = Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE");
    let mut sim = Simulation::new(cfg, &trace, hpe, capacity).expect("valid sim");
    if let Some((plan, retry)) = plan {
        sim.set_fault_plan(plan).expect("valid plan");
        sim.set_retry_policy(retry).expect("valid retry policy");
    }
    sim.set_profiler(Profiler::new(ProfileConfig::default()));
    if let Some(cadence) = sanitize {
        sim.set_sanitizer(Sanitizer::new(cadence));
    }
    assert!(sim.run_until(u64::MAX).expect("run completes"));
    let counts = sim.sanitizer().map(|s| (s.events_seen(), s.checks_run()));
    let profile = sim.finish().expect("finish").profile;
    (profile.expect("profiler attached"), counts)
}

/// Digest of a profile report: the FNV-1a hash of its JSON plus the span
/// counters the pin must exercise, so a drift names what moved.
fn profile_digest(report: &ProfileReport) -> String {
    let s = &report.spans;
    format!(
        "fnv={:016x} opened={} coalesced={} refault={} retries={} retry_cycles={}",
        fnv1a(report.to_json().to_string().as_bytes()),
        s.opened,
        s.coalesced_warps,
        s.refault_spans,
        s.retries,
        s.retry_cycles
    )
}

#[test]
fn golden_profile_sgm_hpe() {
    let (first, counts) = profiled_sgm(None, Some(1));
    let (second, _) = profiled_sgm(None, None);
    let digest = profile_digest(&first);
    assert_eq!(
        digest,
        profile_digest(&second),
        "profile is not byte-stable"
    );
    // The clean run must reach the coalesce and wrong-eviction paths.
    assert!(first.spans.coalesced_warps > 0 && first.spans.refault_spans > 0);
    assert_eq!(
        digest,
        "fnv=d7e447916e15c467 opened=2218 coalesced=226 refault=159 retries=0 retry_cycles=0",
        "SGM/HPE profile drifted from the pinned snapshot.\nactual: {digest}"
    );
    assert_eq!(
        counts,
        Some((12511, 12511)),
        "cadence-1 sanitizer counts drifted from the pinned snapshot"
    );
}

#[test]
fn golden_profile_sgm_hpe_completion_loss() {
    let plan = || Some((FaultPlan::completion_loss(2019), RetryPolicy::adaptive()));
    let (first, _) = profiled_sgm(plan(), None);
    let digest = profile_digest(&first);
    assert_eq!(digest, profile_digest(&profiled_sgm(plan(), None).0));
    // The lossy run must reach the retry path as well.
    assert!(first.spans.retries > 0 && first.spans.coalesced_warps > 0);
    assert!(first.spans.refault_spans > 0);
    assert_eq!(
        digest,
        "fnv=3d39657a13436197 opened=2218 coalesced=226 refault=159 retries=111 retry_cycles=824647",
        "SGM/HPE completion-loss profile drifted from the pinned snapshot.\nactual: {digest}"
    );
}
