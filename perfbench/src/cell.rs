//! Running one cell, layer by layer, timed from outside each layer's
//! public entry point.

use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hpe_bench::{rrip_config_for, PolicyKind};
use hpe_core::{Hpe, HpeConfig};
use uvm_policies::{
    ClockPro, ClockProConfig, EvictionPolicy, Ideal, Lfu, Lru, RandomPolicy, Rrip, RripConfig,
};
use uvm_sim::{ideal_for, EventCounters, ProfileConfig, Profiler, Sanitizer, Simulation};
use uvm_types::{SimConfig, SimError, SimStats};
use uvm_workloads::Trace;

use crate::timed::{HookTally, Timed};
use crate::workload::{Cell, Input};

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// An observer sink attached to a run on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// [`EventCounters`] via `set_observer`.
    Counters,
    /// [`uvm_sim::EventLog`] via `set_observer`.
    Log,
    /// The cycle-attribution [`Profiler`] via `set_profiler`.
    Profiler,
    /// The invariant [`Sanitizer`] via `set_sanitizer`.
    Sanitizer,
}

impl Sink {
    /// Every sink, in report order.
    pub const ALL: [Sink; 4] = [Sink::Counters, Sink::Log, Sink::Profiler, Sink::Sanitizer];

    /// The sink's metric label.
    pub fn label(self) -> &'static str {
        match self {
            Sink::Counters => "counters",
            Sink::Log => "log",
            Sink::Profiler => "profiler",
            Sink::Sanitizer => "sanitizer",
        }
    }
}

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing attached: the end-to-end configuration.
    Detached,
    /// The policy wrapped in [`Timed`].
    Wrapped,
    /// One observer sink attached.
    Attached(Sink),
}

/// One simulation's results and host times.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Statistics of the run.
    pub stats: SimStats,
    /// `Simulation::new` host nanoseconds.
    pub new_ns: u64,
    /// `Simulation::run` host nanoseconds.
    pub run_ns: u64,
    /// Hook tally ([`Mode::Wrapped`] only).
    pub tally: Option<HookTally>,
    /// Events the attached sink saw ([`Mode::Attached`] only): counted
    /// events, logged events, opened fault spans, or engine events for
    /// the sanitizer.
    pub sink_events: Option<u64>,
}

/// Builds and runs one simulation of `trace` under `policy`.
fn simulate<P: EvictionPolicy>(
    cfg: &SimConfig,
    trace: &Trace,
    policy: P,
    capacity: u64,
    mode: Mode,
) -> Result<SimRun, SimError> {
    if mode == Mode::Wrapped {
        let start = Instant::now();
        let sim = Simulation::new(cfg.clone(), trace, Timed::new(policy), capacity)?;
        let new_ns = ns_since(start);
        let start = Instant::now();
        let outcome = sim.run()?;
        let run_ns = ns_since(start);
        return Ok(SimRun {
            stats: outcome.stats,
            new_ns,
            run_ns,
            tally: Some(outcome.policy.tally()),
            sink_events: None,
        });
    }
    let start = Instant::now();
    let mut sim = Simulation::new(cfg.clone(), trace, policy, capacity)?;
    let new_ns = ns_since(start);
    let (stats, run_ns, sink_events) = match mode {
        Mode::Detached | Mode::Wrapped => {
            let start = Instant::now();
            let outcome = sim.run()?;
            (outcome.stats, ns_since(start), None)
        }
        Mode::Attached(Sink::Counters) => {
            let counters = Rc::new(RefCell::new(EventCounters::default()));
            sim.set_observer(counters.clone());
            let start = Instant::now();
            let outcome = sim.run()?;
            let run_ns = ns_since(start);
            let seen = counters.borrow().total();
            (outcome.stats, run_ns, Some(seen))
        }
        Mode::Attached(Sink::Log) => {
            let log = sim.attach_event_log();
            let start = Instant::now();
            let outcome = sim.run()?;
            let run_ns = ns_since(start);
            let seen = log.borrow().events().len() as u64;
            (outcome.stats, run_ns, Some(seen))
        }
        Mode::Attached(Sink::Profiler) => {
            sim.set_profiler(Profiler::new(ProfileConfig::default()));
            let start = Instant::now();
            let outcome = sim.run()?;
            let run_ns = ns_since(start);
            let spans = outcome.profile.map_or(0, |p| p.records.len() as u64);
            (outcome.stats, run_ns, Some(spans))
        }
        Mode::Attached(Sink::Sanitizer) => {
            sim.set_sanitizer(Sanitizer::default());
            let start = Instant::now();
            sim.run_until(u64::MAX)?;
            let seen = sim.sanitizer().map_or(0, Sanitizer::events_seen);
            let outcome = sim.finish()?;
            (outcome.stats, ns_since(start), Some(seen))
        }
    };
    Ok(SimRun {
        stats,
        new_ns,
        run_ns,
        tally: None,
        sink_events,
    })
}

/// Runs `trace` under `kind`, constructed exactly as the campaign runner
/// constructs it. `oracle` is consumed by an Ideal run (built here when
/// absent).
///
/// # Errors
///
/// Returns [`SimError`] if the configuration is invalid or the run cannot
/// complete soundly.
pub fn run_policy(
    cfg: &SimConfig,
    input: &Input,
    trace: &Trace,
    cell: &Cell,
    oracle: Option<Ideal>,
    mode: Mode,
) -> Result<SimRun, SimError> {
    let capacity = cell.rate.capacity_pages(input.footprint_pages());
    match cell.policy {
        PolicyKind::Lru => simulate(cfg, trace, Lru::new(), capacity, mode),
        PolicyKind::Random => simulate(
            cfg,
            trace,
            RandomPolicy::seeded(input.policy_seed()),
            capacity,
            mode,
        ),
        PolicyKind::Lfu => simulate(cfg, trace, Lfu::new(), capacity, mode),
        PolicyKind::Rrip => {
            let rrip = match input {
                Input::App(app) => rrip_config_for(app),
                Input::Synth(..) => RripConfig::default(),
            };
            simulate(cfg, trace, Rrip::new(rrip), capacity, mode)
        }
        PolicyKind::ClockPro => simulate(
            cfg,
            trace,
            ClockPro::new(ClockProConfig::default()),
            capacity,
            mode,
        ),
        PolicyKind::Ideal => {
            let oracle = oracle.unwrap_or_else(|| ideal_for(trace));
            simulate(cfg, trace, oracle, capacity, mode)
        }
        PolicyKind::Hpe => simulate(
            cfg,
            trace,
            Hpe::new(HpeConfig::from_sim(cfg))?,
            capacity,
            mode,
        ),
    }
}

/// Host nanoseconds of one detached cell, split by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellTimes {
    /// The whole cell.
    pub cell_ns: u64,
    /// `workloads.build`: the input's trace.
    pub build_ns: u64,
    /// `oracle.build`: `ideal_for` (Ideal cells only).
    pub oracle_ns: u64,
    /// `engine.new`: `Simulation::new`.
    pub new_ns: u64,
    /// `engine.run`: `Simulation::run`.
    pub run_ns: u64,
}

impl CellTimes {
    /// Cell time not covered by a layer span.
    pub fn remainder_ns(&self) -> i64 {
        self.cell_ns as i64
            - (self.build_ns + self.oracle_ns + self.new_ns) as i64
            - self.run_ns as i64
    }
}

/// One detached cell, layer by layer: the input's trace (unless
/// `prebuilt`), the Ideal oracle if needed, then the simulation. Returns
/// the trace for reuse by instrumented reruns of the same cell.
///
/// # Errors
///
/// Returns [`SimError`] if the cell cannot complete soundly.
pub fn run_cell<'a>(
    cfg: &SimConfig,
    input: &Input,
    cell: &Cell,
    prebuilt: Option<&'a Trace>,
) -> Result<(SimStats, CellTimes, Cow<'a, Trace>), SimError> {
    let cell_start = Instant::now();
    let start = Instant::now();
    let trace = prebuilt.map_or_else(|| Cow::Owned(input.trace(cfg)), Cow::Borrowed);
    let build_ns = ns_since(start);
    let (oracle, oracle_ns) = if cell.policy == PolicyKind::Ideal {
        let start = Instant::now();
        let oracle = ideal_for(&trace);
        (Some(oracle), ns_since(start))
    } else {
        (None, 0)
    };
    let run = run_policy(cfg, input, &trace, cell, oracle, Mode::Detached)?;
    let times = CellTimes {
        cell_ns: ns_since(cell_start),
        build_ns,
        oracle_ns,
        new_ns: run.new_ns,
        run_ns: run.run_ns,
    };
    Ok((run.stats, times, trace))
}
