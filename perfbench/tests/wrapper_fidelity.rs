//! The [`Timed`] wrapper must change nothing: wrapped and unwrapped runs
//! produce equal `SimStats`, equal observer event counts and equal
//! profiler series for every policy the benchmark measures, and every
//! non-hook method reaches the inner policy.

use std::cell::RefCell;
use std::rc::Rc;

use hpe_bench::{bench_config, rrip_config_for, PolicyKind};
use hpe_core::{Hpe, HpeConfig};
use perfbench::timed::{Hook, Timed};
use perfbench::workload::Input;
use uvm_policies::{
    ClockPro, ClockProConfig, EvictionPolicy, FaultOutcome, Lfu, Lru, RandomPolicy, Rrip,
};
use uvm_sim::{
    ideal_for, trace_for, EventCounters, ProfileConfig, Profiler, Sanitizer, Simulation,
};
use uvm_types::{
    Oversubscription, PageId, PolicyEvent, PolicyStats, SignalDisruption, SimConfig, SimStats,
};
use uvm_workloads::{registry, Trace};

/// Everything a fully observed run produces.
type Observed = (SimStats, EventCounters, String, Vec<String>);

/// Runs `policy` with an event counter, the profiler and the sanitizer
/// attached at once, so a wrapper that drops `set_tracing`,
/// `drain_events`, `hir_fill`, `is_degraded` or `stats` shows up in one
/// of the outputs.
fn observe<P: EvictionPolicy>(
    cfg: &SimConfig,
    trace: &Trace,
    policy: P,
    capacity: u64,
) -> Observed {
    let mut sim = Simulation::new(cfg.clone(), trace, policy, capacity).expect("valid simulation");
    let counters = Rc::new(RefCell::new(EventCounters::default()));
    sim.set_observer(counters.clone());
    sim.set_profiler(Profiler::new(ProfileConfig::new(1 << 16)));
    sim.set_sanitizer(Sanitizer::default());
    let outcome = sim.run().expect("run completes");
    let profile = outcome.profile.expect("profiler attached");
    let accounts = profile
        .accounts
        .iter()
        .map(|(account, cycles)| format!("{account:?}={cycles}"))
        .collect();
    let counted = counters.borrow().clone();
    (outcome.stats, counted, profile.series.to_jsonl(), accounts)
}

fn assert_same<P: EvictionPolicy>(
    label: &str,
    cfg: &SimConfig,
    trace: &Trace,
    capacity: u64,
    plain: P,
    wrapped: P,
) {
    let a = observe(cfg, trace, plain, capacity);
    let b = observe(cfg, trace, Timed::new(wrapped), capacity);
    assert_eq!(a.0, b.0, "{label}: SimStats differ");
    assert_eq!(a.1, b.1, "{label}: observer event counts differ");
    assert_eq!(a.2, b.2, "{label}: profiler series differ");
    assert_eq!(a.3, b.3, "{label}: profiler accounts differ");
    assert!(a.1.total() > 0, "{label}: the observer saw nothing");
}

#[test]
fn wrapped_runs_equal_unwrapped_for_every_policy() {
    let cfg = bench_config();
    let app = registry::by_abbr("SGM").expect("SGM is registered");
    let trace = trace_for(&cfg, app);
    let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
    macro_rules! both {
        ($kind:expr, $make:expr) => {
            assert_same($kind.label(), &cfg, &trace, capacity, $make, $make)
        };
    }
    for kind in PolicyKind::ALL {
        match kind {
            PolicyKind::Lru => both!(kind, Lru::new()),
            PolicyKind::Random => both!(kind, RandomPolicy::seeded(app.seed())),
            PolicyKind::Lfu => both!(kind, Lfu::new()),
            PolicyKind::Rrip => both!(kind, Rrip::new(rrip_config_for(app))),
            PolicyKind::ClockPro => both!(kind, ClockPro::new(ClockProConfig::default())),
            PolicyKind::Ideal => both!(kind, ideal_for(&trace)),
            PolicyKind::Hpe => both!(
                kind,
                Hpe::new(HpeConfig::from_sim(&cfg)).expect("valid HPE")
            ),
        }
    }
}

#[test]
fn benchmark_cells_equal_the_campaign_runner() {
    let cfg = bench_config();
    let app = registry::by_abbr("STN").expect("STN is registered");
    let input = Input::App(app);
    for policy in PolicyKind::ALL {
        let cell = perfbench::workload::Cell {
            input: 0,
            policy,
            rate: Oversubscription::Rate50,
        };
        let (stats, _, _) =
            perfbench::cell::run_cell(&cfg, &input, &cell, None).expect("cell runs");
        let reference = hpe_bench::run_policy(&cfg, app, cell.rate, policy).expect("runner runs");
        assert_eq!(stats, reference.stats, "{}", policy.label());
    }
}

/// A policy whose every method answers distinctively and records that it
/// was reached.
#[derive(Debug, Default)]
struct Probe {
    reached: Vec<&'static str>,
}

impl EvictionPolicy for Probe {
    fn name(&self) -> String {
        "probe".to_string()
    }
    fn on_access(&mut self, _page: PageId) {
        self.reached.push("on_access");
    }
    fn on_walk_hit(&mut self, _page: PageId) {
        self.reached.push("on_walk_hit");
    }
    fn on_fault(&mut self, _page: PageId, _fault_num: u64) -> FaultOutcome {
        self.reached.push("on_fault");
        FaultOutcome {
            transfer_bytes: 9,
            ..FaultOutcome::default()
        }
    }
    fn on_memory_full(&mut self) {
        self.reached.push("on_memory_full");
    }
    fn select_victim(&mut self) -> Option<PageId> {
        self.reached.push("select_victim");
        Some(PageId(5))
    }
    fn on_disruption(&mut self, _disruption: SignalDisruption) {
        self.reached.push("on_disruption");
    }
    fn stats(&self) -> PolicyStats {
        PolicyStats {
            selections: 7,
            ..PolicyStats::default()
        }
    }
    fn set_tracing(&mut self, _enabled: bool) {
        self.reached.push("set_tracing");
    }
    fn drain_events(&mut self, sink: &mut dyn FnMut(PolicyEvent)) {
        sink(PolicyEvent::HirFlush {
            entries: 3,
            dropped: 0,
        });
    }
    fn hir_fill(&self) -> u64 {
        42
    }
    fn is_degraded(&self) -> bool {
        true
    }
    fn check_invariants(&self) -> Result<(), String> {
        Err("probe".to_string())
    }
}

#[test]
fn every_method_reaches_the_inner_policy() {
    let mut p = Timed::new(Probe::default());
    p.on_access(PageId(1));
    p.on_walk_hit(PageId(1));
    assert_eq!(p.on_fault(PageId(1), 0).transfer_bytes, 9);
    p.on_memory_full();
    assert_eq!(p.select_victim(), Some(PageId(5)));
    p.on_disruption(SignalDisruption::HirChannelDown);
    p.set_tracing(true);
    let mut drained = Vec::new();
    p.drain_events(&mut |e| drained.push(e));
    assert_eq!(drained.len(), 1);
    assert_eq!(p.name(), "probe");
    assert_eq!(p.stats().selections, 7);
    assert_eq!(p.hir_fill(), 42);
    assert!(p.is_degraded());
    assert_eq!(p.check_invariants(), Err("probe".to_string()));
    assert_eq!(
        p.inner().reached,
        [
            "on_access",
            "on_walk_hit",
            "on_fault",
            "on_memory_full",
            "select_victim",
            "on_disruption",
            "set_tracing",
        ]
    );
    let tally = p.tally();
    for hook in Hook::ALL {
        assert_eq!(tally.calls(hook), 1, "{}", hook.label());
    }
    assert_eq!(tally.total_calls(), 6);
}
