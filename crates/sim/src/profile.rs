//! Opt-in cycle-attribution profiler, fault-lifecycle spans, and a
//! metrics time-series registry.
//!
//! The profiler answers the question the terminal-event tracing layer
//! (`trace.rs`) cannot: *where do the cycles go?* It has three
//! coordinated pieces, all observation-only (a profiled run's
//! [`uvm_types::SimStats`] are byte-identical to an unprofiled run's —
//! the same contract, and the same proof pattern, as the
//! [`crate::Sanitizer`]):
//!
//! 1. **Cycle attribution.** Every simulated cycle is charged to a
//!    component×phase account ([`CycleAccount`]). The *driver timeline*
//!    accounts (fault service, PCIe transfer, HIR flush, retry backoff,
//!    driver idle) partition the run exactly — their sum equals
//!    `SimStats::cycles`, asserted by [`ProfileReport::timeline_sum`] —
//!    because the driver services one fault batch at a time, so its busy
//!    windows never overlap. `driver_idle` is the residual: the
//!    dead-scannable cycles that motivate the event-queue engine core.
//!    *Overlay* accounts (SM stall/TLB/walk/DRAM/compute across all
//!    warps, host-side eviction decisions) measure concurrent work and
//!    deliberately stay out of the conservation sum.
//! 2. **Fault-lifecycle spans.** Each page fault opens a span
//!    ([`SpanRecord`]) at raise time, carrying a stable span id through
//!    queueing, service (walk + transfer + map) and completion.
//!    Per-stage latency histograms ([`SpanStage`]) come out of
//!    [`uvm_util::Histogram`] with p50/p99 estimates; wrong-eviction
//!    re-faults and retry/backoff cycles are attributed back to the
//!    span that caused them.
//! 3. **Metrics time series.** On a configurable cycle cadence the
//!    engine samples residency occupancy, HIR fill, fault backlog and
//!    the degraded-mode flag into a [`MetricsSeries`], exportable as
//!    JSONL or CSV.
//!
//! The profiler is installed with [`crate::Simulation::set_profiler`]
//! and fed only through the engine's one tap. Detached, a run pays the
//! tap's first branch; the measured figures are in `DESIGN.md` §12.

use std::collections::HashMap;

use uvm_types::{CycleAccount, PageId, SpanStage};
use uvm_util::{json, Histogram, Json, ToJson};

use crate::observer::{SimEvent, Tap};

/// Default metrics-series cadence, in cycles between samples (matches
/// the bench runner's cycle-window width: ≈ 9 fault services on the
/// Table I timing).
pub const DEFAULT_PROFILE_CADENCE: u64 = 1 << 18;

/// Configuration for [`crate::Simulation::set_profiler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileConfig {
    /// Cycles between metrics-series samples (0 is clamped to 1).
    pub series_cadence: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            series_cadence: DEFAULT_PROFILE_CADENCE,
        }
    }
}

impl ProfileConfig {
    /// Config sampling the metrics series every `series_cadence` cycles
    /// (0 is clamped to 1).
    pub fn new(series_cadence: u64) -> Self {
        ProfileConfig {
            series_cadence: series_cadence.max(1),
        }
    }
}

/// One fault's lifecycle, from raise to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stable span id (the fault-raise sequence number of this run).
    pub id: u64,
    /// The faulting page.
    pub page: PageId,
    /// Cycle the fault was raised (span open).
    pub raised_at: u64,
    /// Cycle the driver began servicing it, once it leaves the queue.
    pub service_start: Option<u64>,
    /// Cycle the page landed (span close).
    pub done_at: Option<u64>,
    /// Additional warps that coalesced onto this pending fault.
    pub coalesced_warps: u64,
    /// Completion-loss retries suffered while in service.
    pub retries: u32,
    /// Retry/backoff cycles attributed to this span.
    pub retry_cycles: u64,
    /// When this fault re-faulted a recently evicted page, the span that
    /// originally migrated it (the wrong eviction's victim span).
    pub refault_of: Option<u64>,
    /// Wrong-eviction re-faults later attributed *to* this span.
    pub caused_refaults: u32,
}

impl SpanRecord {
    /// Queue-stage latency (raise to service start), if serviced.
    pub fn queue_cycles(&self) -> Option<u64> {
        self.service_start.map(|s| s - self.raised_at)
    }

    /// Service-stage latency (service start to landing), if completed.
    pub fn service_cycles(&self) -> Option<u64> {
        match (self.service_start, self.done_at) {
            (Some(s), Some(d)) => Some(d - s),
            _ => None,
        }
    }

    /// Whole-span latency (raise to landing), if completed.
    pub fn total_cycles(&self) -> Option<u64> {
        self.done_at.map(|d| d - self.raised_at)
    }
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        json!({
            "id": self.id,
            "page": self.page.0,
            "raised_at": self.raised_at,
            "service_start": self.service_start,
            "done_at": self.done_at,
            "coalesced_warps": self.coalesced_warps,
            "retries": u64::from(self.retries),
            "retry_cycles": self.retry_cycles,
            "refault_of": self.refault_of,
            "caused_refaults": u64::from(self.caused_refaults),
        })
    }
}

/// One metrics-registry sample (see [`MetricsSeries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSample {
    /// Sample cycle (a multiple of the series cadence).
    pub cycle: u64,
    /// Pages resident in GPU memory.
    pub resident_pages: u64,
    /// Demand faults waiting in the driver queue (including the one in
    /// service, if any).
    pub fault_backlog: u64,
    /// Pages migrating in the current service batch.
    pub in_flight: u64,
    /// Warps that still have ops to retire.
    pub live_warps: u64,
    /// Fill of the policy's GPU-side HIR buffer (0 for policies
    /// without one).
    pub hir_fill: u64,
    /// Whether the policy is in its degraded fallback mode.
    pub degraded: bool,
    /// Cumulative demand faults serviced.
    pub faults_serviced: u64,
    /// Cumulative evictions.
    pub evictions: u64,
}

impl MetricsSample {
    /// CSV header matching [`MetricsSample::to_csv_row`].
    pub const CSV_HEADER: &'static str =
        "cycle,resident_pages,fault_backlog,in_flight,live_warps,hir_fill,degraded,\
         faults_serviced,evictions";

    /// The sample as one CSV row (no trailing newline).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}",
            self.cycle,
            self.resident_pages,
            self.fault_backlog,
            self.in_flight,
            self.live_warps,
            self.hir_fill,
            u8::from(self.degraded),
            self.faults_serviced,
            self.evictions,
        )
    }
}

impl ToJson for MetricsSample {
    fn to_json(&self) -> Json {
        json!({
            "cycle": self.cycle,
            "resident_pages": self.resident_pages,
            "fault_backlog": self.fault_backlog,
            "in_flight": self.in_flight,
            "live_warps": self.live_warps,
            "hir_fill": self.hir_fill,
            "degraded": self.degraded,
            "faults_serviced": self.faults_serviced,
            "evictions": self.evictions,
        })
    }
}

/// The metrics time series: engine-state samples on a fixed cycle
/// cadence, in cycle order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSeries {
    /// Cycles between samples.
    pub cadence: u64,
    /// GPU memory capacity, for occupancy ratios.
    pub capacity_pages: u64,
    /// The samples, oldest first.
    pub samples: Vec<MetricsSample>,
}

impl MetricsSeries {
    /// The series as JSONL: one compact JSON object per sample line.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for s in &self.samples {
            let _ = writeln!(out, "{}", s.to_json());
        }
        out
    }

    /// The series as CSV with a header row.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}", MetricsSample::CSV_HEADER);
        for s in &self.samples {
            let _ = writeln!(out, "{}", s.to_csv_row());
        }
        out
    }
}

impl ToJson for MetricsSeries {
    fn to_json(&self) -> Json {
        json!({
            "cadence": self.cadence,
            "capacity_pages": self.capacity_pages,
            "samples": self.samples,
        })
    }
}

/// The live profiler attached to a running [`crate::Simulation`].
///
/// Engine taps charge accounts and advance spans; [`Profiler::finalize`]
/// turns the accumulated state into a [`ProfileReport`]. Taps are
/// observation-only: nothing here is readable by the engine or policy.
#[derive(Debug)]
pub struct Profiler {
    accounts: [u64; CycleAccount::ALL.len()],
    series_cadence: u64,
    next_sample: u64,
    capacity_pages: u64,
    samples: Vec<MetricsSample>,
    spans: Vec<SpanRecord>,
    /// Span currently open (raised or in service) per page. Never
    /// iterated — lookups only, so hash order cannot leak.
    open_by_page: HashMap<PageId, u64>,
    /// Last completed span per page, for wrong-eviction attribution.
    last_span_by_page: HashMap<PageId, u64>,
    /// Stall start per warp index (raise to replay). Lookups only.
    stall_since: HashMap<usize, u64>,
}

impl Profiler {
    /// Creates a profiler with the given configuration.
    pub fn new(cfg: ProfileConfig) -> Self {
        let cadence = cfg.series_cadence.max(1);
        Profiler {
            accounts: [0; CycleAccount::ALL.len()],
            series_cadence: cadence,
            next_sample: 0,
            capacity_pages: 0,
            samples: Vec::new(),
            spans: Vec::new(),
            open_by_page: HashMap::new(),
            last_span_by_page: HashMap::new(),
            stall_since: HashMap::new(),
        }
    }

    /// Cycles between metrics samples.
    pub fn series_cadence(&self) -> u64 {
        self.series_cadence
    }

    /// Spans opened so far.
    pub fn spans_opened(&self) -> u64 {
        self.spans.len() as u64
    }

    /// Takes one engine tap: the only way engine facts reach the
    /// profiler's accounts and spans at cycle `now`. Forced inline so
    /// each engine site keeps only its own variant's arm.
    #[inline(always)]
    pub(crate) fn tap(&mut self, tap: Tap, now: u64) {
        match tap {
            Tap::Charge(account, cycles) => self.accounts[account as usize] += cycles,
            // A newly raised fault opens a span.
            Tap::Event(SimEvent::FaultRaised { page, .. }) => {
                let id = self.spans.len() as u64;
                self.spans.push(SpanRecord {
                    id,
                    page,
                    raised_at: now,
                    service_start: None,
                    done_at: None,
                    coalesced_warps: 0,
                    retries: 0,
                    retry_cycles: 0,
                    refault_of: None,
                    caused_refaults: 0,
                });
                self.open_by_page.insert(page, id);
            }
            // The engine's re-fault window classified the open span as a
            // wrong eviction: attribute it back to the span that
            // originally migrated the page.
            Tap::Event(SimEvent::WrongEviction { page, .. }) => {
                let origin = self.last_span_by_page.get(&page);
                if let (Some(&id), Some(&orig)) = (self.open_by_page.get(&page), origin) {
                    self.spans[id as usize].refault_of = Some(orig);
                    self.spans[orig as usize].caused_refaults += 1;
                }
            }
            // The page landed: close its span.
            Tap::Event(SimEvent::FaultServiced { page, .. }) => {
                if let Some(id) = self.open_by_page.remove(&page) {
                    self.spans[id as usize].done_at = Some(now);
                    self.last_span_by_page.insert(page, id);
                }
            }
            Tap::FaultCoalesced(page) => {
                if let Some(span) = self.span_open_on(page) {
                    span.coalesced_warps += 1;
                }
            }
            Tap::ServiceBegun(page) => {
                if let Some(span) = self.span_open_on(page) {
                    span.service_start.get_or_insert(now);
                }
            }
            // A completion-loss retry is charged to the backoff account
            // and attributed to the in-service span.
            Tap::Retry { page, delay } => {
                self.accounts[CycleAccount::RetryBackoff as usize] += delay;
                if let Some(span) = self.span_open_on(page) {
                    span.retries += 1;
                    span.retry_cycles += delay;
                }
            }
            Tap::WarpStalled(w) => {
                self.stall_since.entry(w).or_insert(now);
            }
            // The warp replays: its finished stall goes to `sm_stall`.
            Tap::WarpResumed(w) => {
                if let Some(since) = self.stall_since.remove(&w) {
                    self.accounts[CycleAccount::SmStall as usize] += now.saturating_sub(since);
                }
            }
            _ => {}
        }
    }

    /// The span still open (raised or in service) on `page`, if any.
    fn span_open_on(&mut self, page: PageId) -> Option<&mut SpanRecord> {
        let id = *self.open_by_page.get(&page)?;
        self.spans.get_mut(id as usize)
    }

    /// Records the memory capacity for occupancy context (idempotent).
    pub(crate) fn set_capacity(&mut self, capacity_pages: u64) {
        self.capacity_pages = capacity_pages;
    }

    /// Records a `snapshot` of engine state for every cadence boundary at
    /// or before `now`, taking it only when one is due (engine state is
    /// constant between events, so crossed boundaries all see the same
    /// values, stamped at their own cycle).
    pub(crate) fn record_samples(&mut self, now: u64, snapshot: impl FnOnce() -> MetricsSample) {
        if now < self.next_sample {
            return;
        }
        let snapshot = snapshot();
        while self.next_sample <= now {
            let mut s = snapshot;
            s.cycle = self.next_sample;
            self.samples.push(s);
            self.next_sample += self.series_cadence;
        }
    }

    /// Finalizes the run into a [`ProfileReport`], deriving the
    /// `driver_idle` residual so the timeline accounts sum exactly to
    /// `total_cycles`.
    pub fn finalize(mut self, total_cycles: u64) -> ProfileReport {
        let busy: u64 = CycleAccount::ALL
            .iter()
            .filter(|a| a.is_timeline() && **a != CycleAccount::DriverIdle)
            .map(|&a| self.accounts[a as usize])
            .sum();
        self.accounts[CycleAccount::DriverIdle as usize] = total_cycles.saturating_sub(busy);

        let mut hists = SpanStage::ALL.map(|stage| match stage {
            SpanStage::Queue => Histogram::new("span_queue_cycles", 1 << 14, 64),
            SpanStage::Service => Histogram::new("span_service_cycles", 1 << 12, 64),
            SpanStage::Total => Histogram::new("span_total_cycles", 1 << 14, 64),
            SpanStage::Retry => Histogram::new("span_retry_cycles", 1 << 12, 64),
        });
        let mut summary = SpanSummary {
            opened: self.spans.len() as u64,
            ..SpanSummary::default()
        };
        for span in &self.spans {
            summary.coalesced_warps += span.coalesced_warps;
            summary.retries += u64::from(span.retries);
            summary.retry_cycles += span.retry_cycles;
            if span.refault_of.is_some() {
                summary.refault_spans += 1;
            }
            summary.caused_refaults += u64::from(span.caused_refaults);
            let Some(total) = span.total_cycles() else {
                continue;
            };
            summary.completed += 1;
            if let Some(q) = span.queue_cycles() {
                hists[0].record(q);
            }
            if let Some(s) = span.service_cycles() {
                hists[1].record(s);
            }
            hists[2].record(total);
            if span.retries > 0 {
                hists[3].record(span.retry_cycles);
            }
        }
        let [queue, service, total, retry] = hists;
        ProfileReport {
            total_cycles,
            accounts: CycleAccount::ALL
                .iter()
                .map(|&a| (a, self.accounts[a as usize]))
                .collect(),
            spans: summary,
            stage_histograms: vec![queue, service, total, retry],
            series: MetricsSeries {
                cadence: self.series_cadence,
                capacity_pages: self.capacity_pages,
                samples: self.samples,
            },
            records: self.spans,
        }
    }
}

/// Aggregate span counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    /// Spans opened (= distinct fault raises).
    pub opened: u64,
    /// Spans whose page landed before the run ended.
    pub completed: u64,
    /// Warps coalesced onto already-pending faults.
    pub coalesced_warps: u64,
    /// Completion-loss retries across all spans.
    pub retries: u64,
    /// Retry/backoff cycles across all spans.
    pub retry_cycles: u64,
    /// Spans that re-faulted a recently evicted page (wrong evictions,
    /// attributed to their originating span).
    pub refault_spans: u64,
    /// Wrong-eviction re-faults attributed back to originating spans.
    pub caused_refaults: u64,
}

impl ToJson for SpanSummary {
    fn to_json(&self) -> Json {
        json!({
            "opened": self.opened,
            "completed": self.completed,
            "coalesced_warps": self.coalesced_warps,
            "retries": self.retries,
            "retry_cycles": self.retry_cycles,
            "refault_spans": self.refault_spans,
            "caused_refaults": self.caused_refaults,
        })
    }
}

/// A finalized profile: cycle accounts, span summary + per-stage
/// histograms, and the metrics time series.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Total simulated cycles of the run (`SimStats::cycles`).
    pub total_cycles: u64,
    /// Cycles charged per account, in [`CycleAccount::ALL`] order.
    pub accounts: Vec<(CycleAccount, u64)>,
    /// Aggregate span counters.
    pub spans: SpanSummary,
    /// Per-stage latency histograms, in [`SpanStage::ALL`] order
    /// (queue, service, total, retry).
    pub stage_histograms: Vec<Histogram>,
    /// The sampled metrics time series.
    pub series: MetricsSeries,
    /// Every span record, in raise order (span id = index).
    pub records: Vec<SpanRecord>,
}

impl ProfileReport {
    /// Cycles charged to `account`.
    pub fn account(&self, account: CycleAccount) -> u64 {
        self.accounts
            .iter()
            .find(|(a, _)| *a == account)
            .map_or(0, |&(_, n)| n)
    }

    /// Sum of the driver-timeline accounts; equals
    /// [`ProfileReport::total_cycles`] by construction (the conservation
    /// law — asserted in tests and by `hpe-trace profile`).
    pub fn timeline_sum(&self) -> u64 {
        self.accounts
            .iter()
            .filter(|(a, _)| a.is_timeline())
            .map(|&(_, n)| n)
            .sum()
    }

    /// The skippable-idle headline: cycles with no fault in service.
    pub fn driver_idle(&self) -> u64 {
        self.account(CycleAccount::DriverIdle)
    }

    /// The per-stage histogram for `stage`.
    pub fn stage_histogram(&self, stage: SpanStage) -> &Histogram {
        let idx = SpanStage::ALL.iter().position(|&s| s == stage).unwrap_or(0);
        &self.stage_histograms[idx]
    }

    /// Folded-stack lines (`component;account cycles`) consumable by
    /// standard flamegraph tools. Timeline accounts carry the driver
    /// timeline; overlay accounts are emitted under their own component
    /// roots so concurrent work is visible without double-counting the
    /// driver's.
    pub fn folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(a, n) in &self.accounts {
            if n > 0 {
                let _ = writeln!(out, "{};{} {}", a.component(), a.label(), n);
            }
        }
        out
    }

    /// Renders the account breakdown as aligned text, timeline accounts
    /// (with percentages of total) before overlay accounts.
    pub fn render_accounts(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycle accounts ({} total cycles):", self.total_cycles);
        let pct = |n: u64| {
            if self.total_cycles == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.total_cycles as f64
            }
        };
        for &(a, n) in &self.accounts {
            if a.is_timeline() {
                let _ = writeln!(out, "  {:<18} {:>14} {:>6.2}%", a.label(), n, pct(n));
            }
        }
        let _ = writeln!(
            out,
            "  {:<18} {:>14} = total (conserved)",
            "timeline sum",
            self.timeline_sum()
        );
        let _ = writeln!(out, "overlay accounts (concurrent, not conserved):");
        for &(a, n) in &self.accounts {
            if !a.is_timeline() {
                let _ = writeln!(out, "  {:<18} {:>14}", a.label(), n);
            }
        }
        out
    }

    /// Renders the span summary with p50/p99 per stage.
    pub fn render_spans(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let s = &self.spans;
        let _ = writeln!(
            out,
            "spans: {} opened, {} completed, {} coalesced warps",
            s.opened, s.completed, s.coalesced_warps
        );
        let _ = writeln!(
            out,
            "  wrong-eviction re-fault spans: {} (attributed back to {} origin spans)",
            s.refault_spans, s.caused_refaults
        );
        let _ = writeln!(
            out,
            "  retries: {} ({} backoff cycles attributed to spans)",
            s.retries, s.retry_cycles
        );
        for (stage, h) in SpanStage::ALL.iter().zip(&self.stage_histograms) {
            let _ = writeln!(
                out,
                "  {:<8} n={:<8} mean={:<12.1} p50={:<10} p99={:<10} max={}",
                stage.label(),
                h.count(),
                h.mean(),
                h.quantile(0.5).map_or("-".into(), |v| v.to_string()),
                h.quantile(0.99).map_or("-".into(), |v| v.to_string()),
                h.max().map_or("-".into(), |v| v.to_string()),
            );
        }
        out
    }
}

impl ToJson for ProfileReport {
    fn to_json(&self) -> Json {
        let accounts: Vec<Json> = self
            .accounts
            .iter()
            .map(|&(a, n)| {
                json!({
                    "account": a,
                    "component": a.component(),
                    "timeline": a.is_timeline(),
                    "cycles": n,
                })
            })
            .collect();
        let stages: Vec<Json> = SpanStage::ALL
            .iter()
            .zip(&self.stage_histograms)
            .map(|(stage, h)| {
                json!({
                    "stage": *stage,
                    "p50": h.quantile(0.5),
                    "p99": h.quantile(0.99),
                    "histogram": h,
                })
            })
            .collect();
        json!({
            "total_cycles": self.total_cycles,
            "timeline_sum": self.timeline_sum(),
            "driver_idle": self.driver_idle(),
            "accounts": accounts,
            "spans": self.spans,
            "stages": stages,
            "series": self.series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_residual_makes_timeline_conserve() {
        let mut p = Profiler::new(ProfileConfig::default());
        p.tap(Tap::Charge(CycleAccount::FaultService, 700), 0);
        p.tap(Tap::Charge(CycleAccount::PcieTransfer, 200), 0);
        p.tap(Tap::Charge(CycleAccount::HirFlush, 50), 0);
        // Overlay: not in the sum.
        p.tap(Tap::Charge(CycleAccount::SmCompute, 999_999), 0);
        let report = p.finalize(10_000);
        assert_eq!(report.timeline_sum(), 10_000);
        assert_eq!(report.driver_idle(), 10_000 - 950);
        assert_eq!(report.account(CycleAccount::SmCompute), 999_999);
    }

    #[test]
    fn span_lifecycle_records_stages_and_attribution() {
        let mut p = Profiler::new(ProfileConfig::default());
        let page = PageId(7);
        let raised = |time| Tap::Event(SimEvent::FaultRaised { time, page });
        let serviced = |time| Tap::Event(SimEvent::FaultServiced { time, page });
        p.tap(raised(100), 100);
        p.tap(Tap::FaultCoalesced(page), 120);
        p.tap(Tap::ServiceBegun(page), 150);
        p.tap(Tap::Retry { page, delay: 40 }, 360);
        p.tap(serviced(400), 400);
        // The page is evicted and re-faults: the new span points back.
        p.tap(raised(900), 900);
        let wrong = SimEvent::WrongEviction {
            time: 900,
            page,
            refault_distance: 1,
        };
        p.tap(Tap::Event(wrong), 900);
        p.tap(Tap::ServiceBegun(page), 900);
        p.tap(serviced(1000), 1000);
        let report = p.finalize(2_000);
        assert_eq!(report.spans.opened, 2);
        assert_eq!(report.spans.completed, 2);
        assert_eq!(report.spans.coalesced_warps, 1);
        assert_eq!(report.spans.refault_spans, 1);
        assert_eq!(report.spans.caused_refaults, 1);
        assert_eq!(report.records[0].caused_refaults, 1);
        assert_eq!(report.records[1].refault_of, Some(0));
        assert_eq!(report.records[0].queue_cycles(), Some(50));
        assert_eq!(report.records[0].service_cycles(), Some(250));
        assert_eq!(report.records[0].retry_cycles, 40);
        assert_eq!(report.account(CycleAccount::RetryBackoff), 40);
        assert_eq!(report.stage_histogram(SpanStage::Total).count(), 2);
    }

    #[test]
    fn series_samples_every_crossed_boundary() {
        let mut p = Profiler::new(ProfileConfig {
            series_cadence: 100,
        });
        let snap = MetricsSample {
            cycle: 0,
            resident_pages: 5,
            fault_backlog: 2,
            in_flight: 1,
            live_warps: 3,
            hir_fill: 4,
            degraded: false,
            faults_serviced: 9,
            evictions: 1,
        };
        p.record_samples(250, || snap);
        // No boundary is crossed before 300: the snapshot is not taken.
        p.record_samples(299, || panic!("no sample is due at 299"));
        p.record_samples(300, || snap);
        let report = p.finalize(1_000);
        let cycles: Vec<u64> = report.series.samples.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 100, 200, 300]);
        assert_eq!(report.series.samples[2].resident_pages, 5);
    }

    #[test]
    fn exports_are_parallel_jsonl_and_csv() {
        let mut p = Profiler::new(ProfileConfig { series_cadence: 10 });
        p.set_capacity(64);
        p.record_samples(0, || MetricsSample {
            cycle: 0,
            resident_pages: 1,
            fault_backlog: 0,
            in_flight: 0,
            live_warps: 2,
            hir_fill: 0,
            degraded: true,
            faults_serviced: 0,
            evictions: 0,
        });
        let report = p.finalize(100);
        let jsonl = report.series.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        let line = Json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(line.get("degraded").and_then(Json::as_bool), Some(true));
        let csv = report.series.to_csv();
        assert!(csv.starts_with("cycle,"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,1,0,0,2,0,1,"));
    }

    #[test]
    fn folded_stacks_name_component_then_account() {
        let mut p = Profiler::new(ProfileConfig::default());
        p.tap(Tap::Charge(CycleAccount::HirFlush, 42), 0);
        let report = p.finalize(100);
        let folded = report.folded();
        assert!(folded.contains("pcie;hir_flush 42"));
        assert!(folded.contains("driver;driver_idle 58"));
        // Zero accounts are elided.
        assert!(!folded.contains("sm_compute"));
    }

    #[test]
    fn report_json_carries_conservation_fields() {
        let p = Profiler::new(ProfileConfig::default());
        let report = p.finalize(500);
        let v = report.to_json();
        assert_eq!(v.get("total_cycles").and_then(Json::as_u64), Some(500));
        assert_eq!(v.get("timeline_sum").and_then(Json::as_u64), Some(500));
        assert_eq!(v.get("driver_idle").and_then(Json::as_u64), Some(500));
    }
}
