//! Shared experiment runner: one application x one policy x one
//! oversubscription rate, on the scaled reproduction configuration.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use hpe_core::{Classification, Hpe, HpeConfig, StrategyKind};
use uvm_policies::{
    ClockPro, ClockProConfig, EvictionPolicy, Lfu, Lru, RandomPolicy, Rrip, RripConfig, Traced,
};
use uvm_sim::{
    ideal_for, trace_for, EventCounters, EventLog, FallbackVictim, FaultPlan, IntervalCollector,
    IntervalKey, ProfileConfig, ProfileReport, Profiler, RetryPolicy, Sanitizer, SimEvent,
    SimObserver, Simulation, TraceHistograms,
};
use uvm_types::{ConfigError, Oversubscription, SimConfig, SimError, SimStats};
use uvm_util::{json, Json, ToJson};
use uvm_workloads::{App, PatternType, Trace};

/// The policies compared in the paper's evaluation (plus LFU from the
/// related-work discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Page-level LRU.
    Lru,
    /// Uniform random.
    Random,
    /// Least-frequently-used.
    Lfu,
    /// RRIP-FP with the delay enhancement; insertion mode chosen per
    /// application exactly as the paper does (distant + threshold 128 for
    /// type II, long + threshold 0 otherwise).
    Rrip,
    /// CLOCK-Pro with fixed `m_c = 128`.
    ClockPro,
    /// Offline Belady-MIN upper bound.
    Ideal,
    /// HPE with the paper-default configuration.
    Hpe,
}

impl Default for PolicyKind {
    /// HPE — the paper's own policy and the tenant engine's default.
    fn default() -> Self {
        PolicyKind::Hpe
    }
}

impl PolicyKind {
    /// All policy kinds in report order.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Lfu,
        PolicyKind::Rrip,
        PolicyKind::ClockPro,
        PolicyKind::Ideal,
        PolicyKind::Hpe,
    ];

    /// Parses a policy name case-insensitively: a display label ("hpe",
    /// "CLOCK-Pro", …) or one of the aliases `clockpro`, `belady` and
    /// `min`.
    pub fn parse(text: &str) -> Option<PolicyKind> {
        match text.to_ascii_lowercase().as_str() {
            "clockpro" => Some(PolicyKind::ClockPro),
            "belady" | "min" => Some(PolicyKind::Ideal),
            name => PolicyKind::ALL
                .into_iter()
                .find(|k| k.label().eq_ignore_ascii_case(name)),
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "Random",
            PolicyKind::Lfu => "LFU",
            PolicyKind::Rrip => "RRIP",
            PolicyKind::ClockPro => "CLOCK-Pro",
            PolicyKind::Ideal => "Ideal",
            PolicyKind::Hpe => "HPE",
        }
    }
}

/// HPE-specific observations extracted after a run.
#[derive(Debug, Clone)]
pub struct HpeReport {
    /// Classification (ratios + category) at first memory-full.
    pub classification: Option<Classification>,
    /// Old-partition size (sets) at first memory-full.
    pub old_sets_at_full: Option<usize>,
    /// `(fault, strategy)` timeline.
    pub timeline: Vec<(u64, StrategyKind)>,
    /// `(fault, jump)` search-point adjustments.
    pub jump_events: Vec<(u64, u32)>,
    /// MRU-C searches performed.
    pub mruc_searches: u64,
    /// Total MRU-C entry comparisons.
    pub mruc_comparisons: u64,
    /// Page sets divided.
    pub divided_sets: u64,
}

impl HpeReport {
    fn from_policy(hpe: &Hpe) -> Self {
        let (mruc_searches, mruc_comparisons) = hpe.mruc_search_overhead();
        HpeReport {
            classification: hpe.classification().copied(),
            old_sets_at_full: hpe.old_sets_at_full(),
            timeline: hpe.strategy_timeline().to_vec(),
            jump_events: hpe.jump_events().to_vec(),
            mruc_searches,
            mruc_comparisons,
            divided_sets: hpe.divided_sets(),
        }
    }
}

/// One experiment's result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Application abbreviation.
    pub app: &'static str,
    /// Policy label.
    pub policy: &'static str,
    /// Oversubscription rate.
    pub rate: Oversubscription,
    /// Simulator statistics.
    pub stats: SimStats,
    /// HPE-specific extras (None for baselines).
    pub hpe: Option<HpeReport>,
}

/// Recovery knobs applied to a run (chaos campaigns): the driver's
/// retry/backoff policy for lost completion signals and the fallback
/// victim selector used when the eviction policy cannot answer.
///
/// The default (`None` retry, min-page fallback) reproduces the
/// pre-recovery engine behavior exactly, so clean runs are unaffected.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOptions {
    /// Exponential-backoff retry policy for lost completion signals.
    /// `None` keeps the fault plan's flat retry latency (and its
    /// livelock-to-`Stalled` semantics).
    pub retry: Option<RetryPolicy>,
    /// Victim selector used when the policy cannot produce a victim.
    pub fallback: FallbackVictim,
    /// Runtime invariant sanitizer cadence (events between sweeps).
    /// `None` disables the sanitizer entirely (zero cost).
    pub sanitize: Option<u64>,
    /// Cycle-attribution profiler metrics cadence (cycles between
    /// time-series samples). `None` disables the profiler entirely (zero
    /// cost); `Some` attaches it, which is observation-only — the run's
    /// [`SimStats`] stay byte-identical.
    pub profile: Option<u64>,
}

/// The RRIP configuration the paper assigns to `app` (Section V-B).
pub fn rrip_config_for(app: &App) -> RripConfig {
    if app.pattern() == PatternType::Thrashing {
        RripConfig::for_thrashing()
    } else {
        RripConfig::default()
    }
}

/// Everything that shapes one run besides `(cfg, app, rate)`. The
/// default is a plain, unobserved HPE run.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// The eviction policy.
    pub kind: PolicyKind,
    /// A custom HPE configuration (sensitivity studies, shared-HIR
    /// tenants). `None` uses `HpeConfig::from_sim(cfg)`; `Some` needs
    /// `kind == PolicyKind::Hpe`.
    pub hpe: Option<HpeConfig>,
    /// Fault-injection plan applied to the run (chaos campaigns).
    pub plan: Option<FaultPlan>,
    /// Driver recovery, sanitizer and profiler knobs.
    pub recovery: RecoveryOptions,
    /// Attach the standard trace sinks and return a [`TraceCapture`].
    pub trace: bool,
}

/// What one [`run`] produced.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's result; its `stats` do not depend on what was attached.
    pub result: RunResult,
    /// The profile, when `recovery.profile` attached the profiler.
    pub profile: Option<ProfileReport>,
    /// The trace sinks' contents, when `trace` was set.
    pub trace: Option<TraceCapture>,
}

/// Runs `app` under `kind` at `rate` using simulator configuration `cfg`.
///
/// # Errors
///
/// Returns [`SimError`] if `cfg` is invalid or the run cannot complete
/// soundly.
pub fn run_policy(
    cfg: &SimConfig,
    app: &App,
    rate: Oversubscription,
    kind: PolicyKind,
) -> Result<RunResult, SimError> {
    let spec = RunSpec {
        kind,
        ..RunSpec::default()
    };
    run(cfg, app, rate, &spec).map(|out| out.result)
}

/// Runs `app` at `rate` as `spec` describes.
///
/// The policy runs concretely, without dynamic dispatch, unless `trace`
/// is set: then baselines are boxed behind [`Traced`] so their victim
/// selections are observable, while HPE emits its native decision
/// events. The profiler, the sanitizer and tracing are all
/// observation-only, so `result.stats` depends only on `kind`, `hpe`,
/// `plan` and the recovery machinery.
///
/// # Errors
///
/// Returns [`SimError`] if any configuration is invalid (including a
/// custom HPE configuration for another policy) or the run cannot
/// complete soundly. An injected unbounded livelock surfaces as
/// [`SimError::Stalled`], or as [`SimError::RetriesExhausted`] with a
/// retry policy set.
pub fn run(
    cfg: &SimConfig,
    app: &App,
    rate: Oversubscription,
    spec: &RunSpec,
) -> Result<RunOutput, SimError> {
    if spec.hpe.is_some() && spec.kind != PolicyKind::Hpe {
        return Err(SimError::Config(ConfigError::invalid(
            "hpe",
            format!(
                "a custom HPE configuration cannot run {}",
                spec.kind.label()
            ),
        )));
    }
    let trace = trace_for(cfg, app);
    let sink = spec
        .trace
        .then(|| Rc::new(RefCell::new(TraceCapture::new(cfg))));
    let body = RunBody {
        cfg,
        trace: &trace,
        capacity: rate.capacity_pages(app.footprint_pages()),
        spec,
        sink: sink.clone(),
    };
    let (stats, hpe, profile) = with_policy(spec.kind, cfg, app, &trace, spec.hpe.as_ref(), body)?;
    Ok(RunOutput {
        result: RunResult {
            app: app.abbr(),
            policy: spec.kind.label(),
            rate,
            stats,
            hpe,
        },
        profile,
        // The simulation is gone, so this is the last handle on the sink.
        trace: sink.map(|sink| sink.replace(TraceCapture::new(cfg))),
    })
}

/// A run body generic over the policy type, so [`with_policy`] can hand
/// it each [`PolicyKind`]'s concrete policy without boxing.
pub(crate) trait WithPolicy {
    /// What the body returns.
    type Output;

    /// Runs the body; `make` builds a fresh policy on every call.
    fn call<P: EvictionPolicy + 'static>(
        self,
        make: &dyn Fn() -> Result<P, SimError>,
    ) -> Result<Self::Output, SimError>;
}

/// Builds `kind`'s policy for `app` as the paper configures it and hands
/// the builder to `body`. `hpe` overrides the HPE configuration.
pub(crate) fn with_policy<W: WithPolicy>(
    kind: PolicyKind,
    cfg: &SimConfig,
    app: &App,
    trace: &Trace,
    hpe: Option<&HpeConfig>,
    body: W,
) -> Result<W::Output, SimError> {
    match kind {
        PolicyKind::Lru => body.call(&|| Ok(Lru::new())),
        PolicyKind::Random => body.call(&|| Ok(RandomPolicy::seeded(app.seed()))),
        PolicyKind::Lfu => body.call(&|| Ok(Lfu::new())),
        PolicyKind::Rrip => body.call(&|| Ok(Rrip::new(rrip_config_for(app)))),
        PolicyKind::ClockPro => body.call(&|| Ok(ClockPro::new(ClockProConfig::default()))),
        PolicyKind::Ideal => body.call(&|| Ok(ideal_for(trace))),
        PolicyKind::Hpe => body.call(&|| {
            let hpe_cfg = hpe.cloned().unwrap_or_else(|| HpeConfig::from_sim(cfg));
            Ok(Hpe::new(hpe_cfg)?)
        }),
    }
}

/// Applies a plan and recovery options to a freshly built simulation.
pub(crate) fn configure<P: EvictionPolicy>(
    sim: &mut Simulation<P>,
    plan: Option<&FaultPlan>,
    recovery: RecoveryOptions,
) -> Result<(), SimError> {
    if let Some(p) = plan {
        sim.set_fault_plan(p.clone())?;
    }
    if let Some(rp) = recovery.retry {
        sim.set_retry_policy(rp)?;
    }
    sim.set_fallback_victim(recovery.fallback);
    if let Some(cadence) = recovery.sanitize {
        sim.set_sanitizer(Sanitizer::new(cadence));
    }
    if let Some(cadence) = recovery.profile {
        sim.set_profiler(Profiler::new(ProfileConfig::new(cadence)));
    }
    Ok(())
}

/// [`run`]'s body: one configured simulation of the policy it is handed.
struct RunBody<'a> {
    cfg: &'a SimConfig,
    trace: &'a Trace,
    capacity: u64,
    spec: &'a RunSpec,
    sink: Option<Rc<RefCell<TraceCapture>>>,
}

type BodyOutput = (SimStats, Option<HpeReport>, Option<ProfileReport>);

impl WithPolicy for RunBody<'_> {
    type Output = BodyOutput;

    fn call<P: EvictionPolicy + 'static>(
        self,
        make: &dyn Fn() -> Result<P, SimError>,
    ) -> Result<BodyOutput, SimError> {
        if self.sink.is_some() && self.spec.kind != PolicyKind::Hpe {
            let boxed: Box<dyn EvictionPolicy> = Box::new(make()?);
            return self.simulate(Traced::new(boxed));
        }
        self.simulate(make()?)
    }
}

impl RunBody<'_> {
    fn simulate<P: EvictionPolicy + 'static>(&self, policy: P) -> Result<BodyOutput, SimError> {
        let mut sim = Simulation::new(self.cfg.clone(), self.trace, policy, self.capacity)?;
        configure(&mut sim, self.spec.plan.as_ref(), self.spec.recovery)?;
        if let Some(sink) = &self.sink {
            sim.set_observer(sink.clone());
        }
        let outcome = sim.run()?;
        let hpe = (&outcome.policy as &dyn Any)
            .downcast_ref::<Hpe>()
            .map(HpeReport::from_policy);
        Ok((outcome.stats, hpe, outcome.profile))
    }
}

/// Cycle-window width of [`TraceCapture::by_cycle`] (≈ 9 fault services
/// on the Table I timing).
pub const TRACE_CYCLE_WINDOW: u64 = 1 << 18;

/// Everything the standard trace sinks collected during one traced
/// [`run`].
#[derive(Debug)]
pub struct TraceCapture {
    /// Event totals by kind.
    pub counters: EventCounters,
    /// Series bucketed by the policy interval clock (`cfg.interval_len`
    /// faults per window).
    pub by_fault: IntervalCollector,
    /// Series bucketed by [`TRACE_CYCLE_WINDOW`] simulated cycles.
    pub by_cycle: IntervalCollector,
    /// Distribution histograms.
    pub histograms: TraceHistograms,
    /// The full event log, in simulated-time order.
    pub log: EventLog,
}

impl TraceCapture {
    fn new(cfg: &SimConfig) -> Self {
        TraceCapture {
            counters: EventCounters::default(),
            by_fault: IntervalCollector::new(IntervalKey::Faults(u64::from(cfg.interval_len))),
            by_cycle: IntervalCollector::new(IntervalKey::Cycles(TRACE_CYCLE_WINDOW)),
            histograms: TraceHistograms::new(),
            log: EventLog::new(),
        }
    }

    /// The capture as one JSON document (counters + both interval series
    /// + histograms; the raw log is exported separately as JSONL).
    pub fn summary_json(&self) -> Json {
        json!({
            "counters": self.counters,
            "intervals_by_fault": self.by_fault.to_json(),
            "intervals_by_cycle": self.by_cycle.to_json(),
            "histograms": self.histograms.to_json(),
        })
    }
}

impl SimObserver for TraceCapture {
    fn on_event(&mut self, event: SimEvent) {
        self.counters.on_event(event);
        self.by_fault.on_event(event);
        self.by_cycle.on_event(event);
        self.histograms.on_event(event);
        self.log.on_event(event);
    }
}

/// The strategy the paper manually assigns per application for the
/// sensitivity studies (applications that run LRU for their entire
/// execution per Section V-C vs. the MRU-C ones).
pub fn manual_strategy_for(app: &App) -> StrategyKind {
    match app.abbr() {
        "KMN" | "NW" | "B+T" | "HYB" | "SPV" | "MVT" | "HWL" => StrategyKind::Lru,
        _ => StrategyKind::MruC,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_config;
    use uvm_util::ToJson;
    use uvm_workloads::registry;

    #[test]
    fn policy_names_parse_labels_and_aliases() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.label()), Some(kind));
            let lower = kind.label().to_ascii_lowercase();
            assert_eq!(PolicyKind::parse(&lower), Some(kind));
        }
        for (alias, kind) in [
            ("clockpro", PolicyKind::ClockPro),
            ("ClockPro", PolicyKind::ClockPro),
            ("belady", PolicyKind::Ideal),
            ("MIN", PolicyKind::Ideal),
        ] {
            assert_eq!(PolicyKind::parse(alias), Some(kind), "{alias}");
        }
        for unknown in ["", "belady2", "clock pro", "mru", "hpe "] {
            assert_eq!(PolicyKind::parse(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn traced_and_profiled_runs_keep_stats_and_return_their_captures() {
        let cfg = bench_config();
        let app = registry::by_abbr("STN").unwrap();
        let rate = Oversubscription::Rate75;
        // The last input attaches observer, profiler and a cadence-1
        // sanitizer at once.
        for (kind, sanitize) in [
            (PolicyKind::Lru, None),
            (PolicyKind::Hpe, None),
            (PolicyKind::Hpe, Some(1)),
        ] {
            let plain = run_policy(&cfg, app, rate, kind).unwrap();
            let traced = |recovery| {
                let spec = RunSpec {
                    kind,
                    recovery,
                    trace: true,
                    ..RunSpec::default()
                };
                run(&cfg, app, rate, &spec).unwrap()
            };
            let observed = traced(RecoveryOptions::default());
            let out = traced(RecoveryOptions {
                profile: Some(1 << 18),
                sanitize,
                ..RecoveryOptions::default()
            });
            assert_eq!(
                out.result.stats.to_json().to_string(),
                plain.stats.to_json().to_string(),
                "{kind:?}"
            );
            let capture = out.trace.expect("trace requested");
            assert_eq!(capture.counters.faults_raised, plain.stats.faults());
            assert!(!capture.log.events().is_empty());
            // Sharing the engine tap with the profiler and the sanitizer
            // leaves the observer's stream exactly as an observer-only
            // run sees it.
            let alone = observed.trace.expect("trace requested");
            assert_eq!(capture.log.events(), alone.log.events(), "{kind:?}");
            assert!(out.profile.is_some());
            assert_eq!(out.result.hpe.is_some(), kind == PolicyKind::Hpe);
        }
    }

    #[test]
    fn custom_hpe_config_needs_the_hpe_policy() {
        let cfg = bench_config();
        let app = registry::by_abbr("STN").unwrap();
        let spec = RunSpec {
            kind: PolicyKind::Lru,
            hpe: Some(HpeConfig::from_sim(&cfg)),
            ..RunSpec::default()
        };
        let err = run(&cfg, app, Oversubscription::Rate75, &spec).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err}");
    }
}
