//! Event-driven GPU unified-memory simulator.
//!
//! This crate stands in for the paper's GPGPU-Sim + TLB/GMMU infrastructure
//! (Section III). It simulates, at page granularity:
//!
//! * SMs with multiple warps, each executing an op stream from a
//!   [`uvm_workloads::Trace`]; warps suspended on page faults while others
//!   continue (the replayable far-fault model of Zheng et al.),
//! * per-SM L1 TLBs and a shared L2 TLB with invalidation on eviction,
//! * a page-table walker with fixed walk latency; walk hits are reported to
//!   the eviction policy (ideal model) or recorded for HPE's HIR,
//! * a serialized CPU-side fault driver with the paper's 20 µs service
//!   time, fault coalescing, and policy-driven eviction,
//! * a PCIe transfer model charging HPE's hit-information flushes,
//! * driver-side recovery machinery: completion retry with exponential
//!   backoff, an HIR circuit breaker, approximate-LRU fallback eviction,
//!   and deterministic checkpoint/restore of paused runs (see
//!   [`Checkpoint`]),
//! * an opt-in runtime [`Sanitizer`] validating structural invariants
//!   (residency conservation, HIR/chain layout, recovery state machines)
//!   at a configurable cadence, reporting violations as typed
//!   [`uvm_types::SimError::InvariantViolated`] instead of panicking,
//! * an opt-in observation-only [`Profiler`] attributing every simulated
//!   cycle to a component x phase account, threading a span through each
//!   fault's lifecycle, and sampling a metrics time series on a cycle
//!   cadence (see [`ProfileReport`]); with the profiler attached the
//!   engine's [`uvm_types::SimStats`] stay byte-identical.
//!
//! # Examples
//!
//! ```
//! use uvm_policies::Lru;
//! use uvm_sim::Simulation;
//! use uvm_types::{Oversubscription, SimConfig};
//! use uvm_workloads::{registry, Trace};
//!
//! let cfg = SimConfig::scaled_default();
//! let app = registry::by_abbr("STN").unwrap();
//! let trace = Trace::build(app, cfg.n_sms * cfg.warps_per_sm, 4);
//! let capacity = Oversubscription::Rate75.capacity_pages(app.footprint_pages());
//! let outcome = Simulation::new(cfg, &trace, Lru::new(), capacity)
//!     .expect("valid configuration")
//!     .run()
//!     .expect("run completes");
//! assert!(outcome.stats.faults() >= app.footprint_pages());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod checkpoint;
mod engine;
mod explore;
mod faults;
mod memory;
mod observer;
mod profile;
mod recovery;
mod sanitizer;
mod tenant;
mod tlb;
mod trace;

pub use checkpoint::Checkpoint;
pub use engine::{SimOutcome, Simulation};
pub use explore::{
    shrink_plan, Counterexample, ExploreCase, ExploreReport, ExploreSpec, ReproCase, ALL_INVARIANTS,
};
pub use faults::{FaultFamily, FaultPlan, FaultWindow};
pub use memory::GpuMemory;
pub use observer::{EventLog, SimEvent, SimObserver};
pub use profile::{
    MetricsSample, MetricsSeries, ProfileConfig, ProfileReport, Profiler, SpanRecord, SpanSummary,
    DEFAULT_PROFILE_CADENCE,
};
pub use recovery::{AdaptiveBackoff, Backoff, FallbackVictim, RetryPolicy};
pub use sanitizer::{Sanitizer, DEFAULT_SANITIZER_CADENCE};
pub use tenant::{
    schedule, AdmissionControl, AdmissionOutcome, ArrivalProcess, HirMode, QuotaLedger,
    TenantAdmission, TenantMix, TenantReport, TenantSchedule, TenantSpec, DEFAULT_LEASE_CYCLES,
};
pub use tlb::Tlb;
pub use trace::{
    parse_jsonl, EventCounters, IntervalCollector, IntervalKey, IntervalRow, JsonlWriter,
    TraceHistograms,
};

use uvm_policies::{EvictionPolicy, Ideal, NextUseOracle};
use uvm_types::{Oversubscription, SimConfig, SimError, SimStats};
use uvm_workloads::{App, Trace};

/// Default tile size used when distributing a global reference sequence
/// over warps (see [`Trace::build`]). Small enough that the concurrency
/// window (streams x tile) stays well below both a sweep of any registered
/// footprint and the reuse windows the workload models rely on.
pub const DEFAULT_TILE: u32 = 2;

/// Builds the trace for `app` matching `cfg`'s warp count.
pub fn trace_for(cfg: &SimConfig, app: &App) -> Trace {
    Trace::build(app, cfg.n_sms * cfg.warps_per_sm, DEFAULT_TILE)
}

/// Constructs the offline Ideal (Belady-MIN) policy for `trace`.
pub fn ideal_for(trace: &Trace) -> Ideal {
    Ideal::new(NextUseOracle::from_order(trace.round_robin_interleave()))
}

/// Runs `app` under `policy` at the given oversubscription rate and
/// returns the statistics (dropping the policy).
///
/// # Errors
///
/// Returns [`SimError`] if `cfg` is invalid or the run cannot complete
/// soundly (see [`Simulation::run`]).
pub fn run_app<P: EvictionPolicy>(
    cfg: &SimConfig,
    app: &App,
    rate: Oversubscription,
    policy: P,
) -> Result<SimStats, SimError> {
    let trace = trace_for(cfg, app);
    let capacity = rate.capacity_pages(app.footprint_pages());
    Ok(Simulation::new(cfg.clone(), &trace, policy, capacity)?
        .run()?
        .stats)
}
