//! Multi-tenant bookkeeping: mix specs, the seeded open-loop arrival
//! process, admission control, and the quota ledger.
//!
//! A *tenant mix* models N applications (drawn from the 23 workload
//! models) sharing one GPU. Each tenant holds a residency **quota**
//! against a shared pool; an **admission controller** decides at each
//! arrival whether to admit, delay, or shed the tenant; and a **quota
//! ledger** accounts committed residency with checked invariants.
//!
//! The layer is deliberately *contract-only*: every cross-tenant
//! coupling — the committed-quota total, the active-lease count, the
//! pending backlog — derives from the declared contract (arrival time,
//! quota, lease length), never from a run's actual behavior. That is
//! what makes blast-radius containment hold **by construction**: a
//! `FaultPlan` scoped to tenant k can change only tenant k's own
//! simulation, because nothing another tenant's schedule, quota, or HIR
//! partition depends on is downstream of k's faults. The explore
//! invariant `containment` (see [`crate::ALL_INVARIANTS`]) verifies the
//! claim end to end: non-target tenants' `SimStats` must be
//! byte-identical to their fault-free run.
//!
//! Execution (running each admitted tenant's simulation, the fairness
//! grid, the worker pool) lives in `hpe-bench`; this module is pure
//! deterministic bookkeeping so the scheduler and its invariants are
//! testable without running a single simulated cycle.

use std::collections::BinaryHeap;

use uvm_types::{ConfigError, SimError, TenantId, TenantStats};
use uvm_util::{
    check_unknown_fields, fnv1a, impl_json_enum, impl_json_struct, FromJson, Json, JsonError, Rng,
    ToJson,
};
use uvm_workloads::registry;

/// Default declared lease length (cycles): generous enough that every
/// registered workload finishes a scaled run inside one lease.
pub const DEFAULT_LEASE_CYCLES: u64 = 50_000_000;

/// One tenant's declared contract: which app it runs, how many pages of
/// residency it asks for, and when it arrives.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant id, unique within the mix.
    pub id: u64,
    /// Application abbreviation (registry key, e.g. "STN").
    pub app: String,
    /// Residency quota in pages, committed against the shared pool for
    /// the whole lease.
    pub quota_pages: u64,
    /// Arrival time on the mix clock (cycles).
    pub arrival: u64,
    /// Declared lease length (cycles). The ledger releases the quota at
    /// `admitted + lease_cycles` regardless of the run's actual length —
    /// a *contract* boundary, so no tenant's admission depends on
    /// another tenant's runtime behavior.
    pub lease_cycles: u64,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            id: 0,
            app: String::new(),
            quota_pages: 0,
            arrival: 0,
            lease_cycles: DEFAULT_LEASE_CYCLES,
        }
    }
}

impl_json_struct!(TenantSpec {
    id = 0,
    app = String::new(),
    quota_pages = 0,
    arrival = 0,
    lease_cycles = DEFAULT_LEASE_CYCLES,
});

/// Seeded open-loop arrival generator: `count` tenants drawn from
/// `apps`, with deterministic uniform inter-arrival gaps of mean
/// `mean_gap` and quotas set to `quota_pct`% of each app's footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalProcess {
    /// Tenants to generate (0 disables the generator).
    pub count: u64,
    /// Mean inter-arrival gap (cycles); gaps are drawn uniformly from
    /// `1..=2*mean_gap` so the process is open-loop but bounded.
    pub mean_gap: u64,
    /// Apps drawn (seeded) per arrival. Empty = all 23 registry apps.
    pub apps: Vec<String>,
    /// Quota as a percentage of the drawn app's footprint (the paper's
    /// oversubscription rate, per tenant).
    pub quota_pct: u64,
    /// Declared lease length for generated tenants.
    pub lease_cycles: u64,
}

impl Default for ArrivalProcess {
    fn default() -> Self {
        ArrivalProcess {
            count: 0,
            mean_gap: 1_000_000,
            apps: Vec::new(),
            quota_pct: 75,
            lease_cycles: DEFAULT_LEASE_CYCLES,
        }
    }
}

impl_json_struct!(ArrivalProcess {
    count = 0,
    mean_gap = 1_000_000,
    apps = Vec::new(),
    quota_pct = 75,
    lease_cycles = DEFAULT_LEASE_CYCLES,
});

/// Admission-control bounds. All three are *contract* signals — they
/// derive from declared quotas and lease timelines, never from runtime
/// fault behavior (see the module docs for why that matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Committed quota may reach this percentage of the pool before new
    /// tenants are delayed (100 = no oversubscription of the pool;
    /// higher values model the paper's oversubscribed operation).
    pub max_oversubscription_pct: u64,
    /// Pending-backlog bound: arrivals beyond this queue depth are shed
    /// with [`uvm_types::SimError::AdmissionRejected`].
    pub max_pending: u64,
    /// Maximum concurrently active leases.
    pub max_active: u64,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            max_oversubscription_pct: 100,
            max_pending: 4,
            max_active: 8,
        }
    }
}

impl_json_struct!(AdmissionControl {
    max_oversubscription_pct = 100,
    max_pending = 4,
    max_active = 8,
});

/// Whether HIR state is partitioned per tenant or carved out of one
/// shared structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HirMode {
    /// Every tenant gets the full paper-default HIR geometry (strong
    /// isolation; more total state).
    PerTenant,
    /// The HIR entry budget is divided by the number of leases active at
    /// the tenant's admission (contract-derived, so still deterministic
    /// and containment-safe).
    Shared,
}

impl_json_enum!(HirMode { PerTenant, Shared });

impl HirMode {
    /// CLI label: `per-tenant` / `shared`.
    pub fn label(self) -> &'static str {
        match self {
            HirMode::PerTenant => "per-tenant",
            HirMode::Shared => "shared",
        }
    }

    /// Parses a CLI label (also accepts the JSON variant names).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "per-tenant" | "PerTenant" | "per_tenant" => Some(HirMode::PerTenant),
            "shared" | "Shared" => Some(HirMode::Shared),
            _ => None,
        }
    }
}

/// The full mix specification: pool size, explicit tenants and/or the
/// arrival generator, admission bounds, and the HIR sharing mode.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMix {
    /// Seed for the arrival generator (and recorded in the fingerprint).
    pub seed: u64,
    /// Shared residency pool (pages).
    pub pool_pages: u64,
    /// Explicitly declared tenants.
    pub tenants: Vec<TenantSpec>,
    /// Seeded open-loop arrival generator appended after the explicit
    /// tenants (`count: 0` disables it).
    pub arrivals: ArrivalProcess,
    /// Admission-control bounds.
    pub admission: AdmissionControl,
    /// HIR sharing mode.
    pub hir_mode: HirMode,
}

impl Default for TenantMix {
    fn default() -> Self {
        TenantMix {
            seed: 2019,
            pool_pages: 0,
            tenants: Vec::new(),
            arrivals: ArrivalProcess::default(),
            admission: AdmissionControl::default(),
            hir_mode: HirMode::PerTenant,
        }
    }
}

impl_json_struct!(TenantMix {
    seed = 2019,
    pool_pages = 0,
    tenants = Vec::new(),
    arrivals = ArrivalProcess::default(),
    admission = AdmissionControl::default(),
    hir_mode = HirMode::PerTenant,
});

impl TenantMix {
    /// A uniform mix: each app in `apps` becomes one tenant with a quota
    /// of `quota_pct`% of its footprint, arriving `gap` cycles apart;
    /// the pool is sized to the largest quota so tenants genuinely
    /// contend when several leases overlap.
    pub fn uniform(apps: &[&str], quota_pct: u64, gap: u64, seed: u64) -> Self {
        let tenants: Vec<TenantSpec> = apps
            .iter()
            .enumerate()
            .map(|(i, abbr)| {
                let quota = registry::by_abbr(abbr)
                    .map(|a| a.footprint_pages() * quota_pct / 100)
                    .unwrap_or(0);
                TenantSpec {
                    id: i as u64,
                    app: (*abbr).to_string(),
                    quota_pages: quota,
                    arrival: i as u64 * gap,
                    lease_cycles: DEFAULT_LEASE_CYCLES,
                }
            })
            .collect();
        let pool = tenants.iter().map(|t| t.quota_pages).max().unwrap_or(0);
        TenantMix {
            seed,
            pool_pages: pool.max(1),
            tenants,
            ..TenantMix::default()
        }
    }

    /// Parses a mix document, rejecting unknown fields with an
    /// actionable message (see [`uvm_util::check_unknown_fields`]).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on unknown or malformed fields.
    pub fn from_json_strict(v: &Json) -> Result<Self, JsonError> {
        let mut template = TenantMix::default();
        template.tenants.push(TenantSpec::default());
        check_unknown_fields(v, &template.to_json(), "tenant mix")?;
        TenantMix::from_json(v)
    }

    /// Structural validation: nonzero pool, known apps, unique ids,
    /// sane admission bounds.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pool_pages == 0 {
            return Err(ConfigError::invalid("pool_pages", "must be nonzero"));
        }
        if self.admission.max_oversubscription_pct == 0 {
            return Err(ConfigError::invalid(
                "max_oversubscription_pct",
                "must be nonzero (100 = commit up to the whole pool)",
            ));
        }
        if self.admission.max_active == 0 {
            return Err(ConfigError::invalid(
                "max_active",
                "must allow at least one concurrent lease",
            ));
        }
        let mut ids: Vec<u64> = Vec::new();
        for t in &self.tenants {
            if registry::by_abbr(&t.app).is_none() {
                return Err(ConfigError::invalid(
                    "tenants",
                    format!("unknown app '{}' for tenant {}", t.app, t.id),
                ));
            }
            if t.lease_cycles == 0 {
                return Err(ConfigError::invalid(
                    "lease_cycles",
                    format!("tenant {} declares a zero-length lease", t.id),
                ));
            }
            if ids.contains(&t.id) {
                return Err(ConfigError::invalid(
                    "tenants",
                    format!("duplicate tenant id {}", t.id),
                ));
            }
            ids.push(t.id);
        }
        for abbr in &self.arrivals.apps {
            if registry::by_abbr(abbr).is_none() {
                return Err(ConfigError::invalid(
                    "arrivals",
                    format!("unknown app '{abbr}' in the arrival pool"),
                ));
            }
        }
        if self.arrivals.count > 0 {
            if self.arrivals.mean_gap == 0 {
                return Err(ConfigError::invalid("mean_gap", "must be nonzero"));
            }
            if self.arrivals.quota_pct == 0 {
                return Err(ConfigError::invalid("quota_pct", "must be nonzero"));
            }
            if self.arrivals.lease_cycles == 0 {
                return Err(ConfigError::invalid("arrivals", "zero-length lease"));
            }
        }
        Ok(())
    }

    /// The fully resolved tenant list: explicit tenants plus the seeded
    /// arrivals, sorted by `(arrival, id)`. Generated tenants take ids
    /// after the highest explicit one.
    pub fn resolved_tenants(&self) -> Vec<TenantSpec> {
        let mut tenants = self.tenants.clone();
        if self.arrivals.count > 0 {
            let pool: Vec<&str> = if self.arrivals.apps.is_empty() {
                registry::all().iter().map(|a| a.abbr()).collect()
            } else {
                self.arrivals.apps.iter().map(String::as_str).collect()
            };
            let mut rng = Rng::seed_from_u64(self.seed);
            let first_id = tenants.iter().map(|t| t.id + 1).max().unwrap_or(0);
            let mut clock = 0u64;
            for next_id in first_id..first_id + self.arrivals.count {
                clock += 1 + rng.next_u64() % (2 * self.arrivals.mean_gap);
                let abbr = pool[(rng.next_u64() % pool.len() as u64) as usize];
                let quota = registry::by_abbr(abbr)
                    .map(|a| a.footprint_pages() * self.arrivals.quota_pct / 100)
                    .unwrap_or(0);
                tenants.push(TenantSpec {
                    id: next_id,
                    app: abbr.to_string(),
                    quota_pages: quota,
                    arrival: clock,
                    lease_cycles: self.arrivals.lease_cycles,
                });
            }
        }
        tenants.sort_by_key(|t| (t.arrival, t.id));
        tenants
    }

    /// A 64-bit FNV-1a hex digest over the mix JSON: two mixes with the
    /// same fingerprint resolve the same tenants and the same admission
    /// timeline. Containment refuses to compare reports across
    /// fingerprints.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a(self.to_json().to_string().as_bytes()))
    }
}

// ---------------------------------------------------------------------------
// Quota ledger
// ---------------------------------------------------------------------------

/// Checked accounting of committed residency quota against the pool.
///
/// Every admission commits the tenant's whole quota; every lease end
/// releases it. The ledger's invariants (commitments never exceed the
/// bound, releases never underflow) are enforced on every transition
/// and surface as typed [`SimError::QuotaViolated`] — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaLedger {
    pool: u64,
    bound: u64,
    committed: u64,
    active: u64,
}

impl QuotaLedger {
    /// A ledger over `pool` pages with the committed-quota bound set to
    /// `max_oversubscription_pct`% of the pool.
    pub fn new(pool: u64, max_oversubscription_pct: u64) -> Self {
        QuotaLedger {
            pool,
            bound: pool.saturating_mul(max_oversubscription_pct) / 100,
            committed: 0,
            active: 0,
        }
    }

    /// Pages currently committed.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Active leases.
    pub fn active(&self) -> u64 {
        self.active
    }

    /// The committed-quota bound (pages).
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Whether a further `quota` fits under the bound.
    pub fn fits(&self, quota: u64) -> bool {
        self.committed.saturating_add(quota) <= self.bound
    }

    /// Commits `quota` for `tenant`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QuotaViolated`] if the commitment would
    /// exceed the bound — the admission controller must check
    /// [`QuotaLedger::fits`] first, so reaching this is an accounting
    /// bug surfaced as a typed error.
    pub fn commit(&mut self, tenant: TenantId, quota: u64) -> Result<(), SimError> {
        if !self.fits(quota) {
            return Err(SimError::QuotaViolated {
                tenant,
                committed: self.committed.saturating_add(quota),
                quota: self.bound,
            });
        }
        self.committed += quota;
        self.active += 1;
        Ok(())
    }

    /// Releases `quota` at a lease end.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::QuotaViolated`] on underflow (releasing more
    /// than was committed).
    pub fn release(&mut self, tenant: TenantId, quota: u64) -> Result<(), SimError> {
        if quota > self.committed || self.active == 0 {
            return Err(SimError::QuotaViolated {
                tenant,
                committed: self.committed,
                quota,
            });
        }
        self.committed -= quota;
        self.active -= 1;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Admission schedule
// ---------------------------------------------------------------------------

/// How admission resolved one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// Admitted at its arrival time.
    Admitted,
    /// Queued and admitted later, at a lease-release boundary.
    Delayed,
    /// Shed: the tenant never runs.
    Rejected,
}

impl_json_enum!(AdmissionOutcome {
    Admitted,
    Delayed,
    Rejected
});

impl AdmissionOutcome {
    /// Lower-case report label.
    pub fn label(self) -> &'static str {
        match self {
            AdmissionOutcome::Admitted => "admitted",
            AdmissionOutcome::Delayed => "delayed",
            AdmissionOutcome::Rejected => "rejected",
        }
    }
}

/// One tenant's resolved admission.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantAdmission {
    /// The tenant's declared contract.
    pub spec: TenantSpec,
    /// How admission resolved it.
    pub outcome: AdmissionOutcome,
    /// When the tenant was admitted (== `spec.arrival` when admitted
    /// immediately; later when delayed; 0 when rejected).
    pub admitted_at: u64,
    /// Leases active (including this one) at the admission instant —
    /// the divisor for [`HirMode::Shared`] geometry scaling.
    pub concurrent: u64,
    /// Why the tenant was rejected (empty otherwise).
    pub reject_reason: String,
}

impl TenantAdmission {
    /// The typed rejection error for a rejected admission, counted by
    /// the report (never a panic).
    pub fn rejection(&self) -> Option<SimError> {
        (self.outcome == AdmissionOutcome::Rejected).then(|| SimError::AdmissionRejected {
            tenant: TenantId(self.spec.id),
            reason: self.reject_reason.clone(),
            arrival: self.spec.arrival,
        })
    }
}

/// The deterministic admission timeline of a whole mix.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSchedule {
    /// Fingerprint of the producing mix.
    pub fingerprint: String,
    /// Per-tenant admissions, in `(arrival, id)` order.
    pub admissions: Vec<TenantAdmission>,
    /// Tenants shed by admission control.
    pub rejected: u64,
    /// Tenants admitted late.
    pub delayed: u64,
}

/// An active lease in the scheduler's release queue, ordered by
/// `(end, seq)` so simultaneous releases resolve deterministically.
#[derive(Debug, PartialEq, Eq)]
struct Lease {
    end: u64,
    seq: u64,
    tenant: TenantId,
    quota: u64,
}

impl Ord for Lease {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-end-first.
        (other.end, other.seq).cmp(&(self.end, self.seq))
    }
}

impl PartialOrd for Lease {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Resolves the admission timeline for `mix`.
///
/// The state machine walks arrivals in `(arrival, id)` order. Before
/// each arrival it drains lease releases up to that instant, retrying
/// the pending queue FIFO at every release boundary. An arrival is
/// admitted when its quota fits the ledger bound and a lease slot is
/// free; delayed into the pending queue when not (bounded by
/// `max_pending`); and rejected — typed, counted, never a panic — when
/// its quota can never fit or the backlog is full.
///
/// # Errors
///
/// Returns [`SimError::Config`] if the mix fails validation, or
/// [`SimError::QuotaViolated`] if the ledger catches an accounting bug.
pub fn schedule(mix: &TenantMix) -> Result<TenantSchedule, SimError> {
    mix.validate()?;
    let tenants = mix.resolved_tenants();
    let mut state = Scheduler {
        tenants: &tenants,
        max_active: mix.admission.max_active,
        ledger: QuotaLedger::new(mix.pool_pages, mix.admission.max_oversubscription_pct),
        leases: BinaryHeap::new(),
        pending: Vec::new(),
        seq: 0,
        admissions: vec![None; tenants.len()],
    };
    let mut rejected = 0u64;
    let mut delayed = 0u64;

    for (idx, t) in tenants.iter().enumerate() {
        let t = t.clone();
        state.drain_to(t.arrival)?;
        if t.quota_pages == 0 {
            state.reject(idx, "zero residency quota".to_string());
            rejected += 1;
            continue;
        }
        if t.quota_pages > state.ledger.bound() {
            let reason = format!(
                "quota {} pages exceeds the pool bound of {} pages \
                 ({}% of a {}-page pool)",
                t.quota_pages,
                state.ledger.bound(),
                mix.admission.max_oversubscription_pct,
                mix.pool_pages,
            );
            state.reject(idx, reason);
            rejected += 1;
            continue;
        }
        if state.fits(idx) && state.pending.is_empty() {
            state.admit(idx, t.arrival, AdmissionOutcome::Admitted)?;
        } else if (state.pending.len() as u64) < mix.admission.max_pending {
            state.pending.push(idx);
            delayed += 1;
        } else {
            let reason = format!(
                "admission backlog full ({} tenants pending, bound {})",
                state.pending.len(),
                mix.admission.max_pending,
            );
            state.reject(idx, reason);
            rejected += 1;
        }
    }
    // Drain every remaining lease so the whole pending queue resolves.
    state.drain_to(u64::MAX)?;
    debug_assert!(state.pending.is_empty(), "pending tenants after full drain");

    #[expect(
        clippy::expect_used,
        reason = "the full drain above resolves every tenant"
    )]
    let admissions: Vec<TenantAdmission> = state
        .admissions
        .into_iter()
        .map(|a| a.expect("every tenant resolved"))
        .collect();
    Ok(TenantSchedule {
        fingerprint: mix.fingerprint(),
        admissions,
        rejected,
        delayed,
    })
}

/// Working state of [`schedule`]: the ledger, the lease release queue,
/// and the FIFO pending backlog.
struct Scheduler<'a> {
    tenants: &'a [TenantSpec],
    max_active: u64,
    ledger: QuotaLedger,
    leases: BinaryHeap<Lease>,
    pending: Vec<usize>, // indices into `tenants`, FIFO
    seq: u64,
    admissions: Vec<Option<TenantAdmission>>,
}

impl Scheduler<'_> {
    /// Whether tenant `idx` fits right now (quota under the bound and a
    /// lease slot free).
    fn fits(&self, idx: usize) -> bool {
        self.ledger.fits(self.tenants[idx].quota_pages) && self.ledger.active() < self.max_active
    }

    /// Commits the tenant's quota, opens its lease, and records the
    /// admission row.
    fn admit(&mut self, idx: usize, at: u64, outcome: AdmissionOutcome) -> Result<(), SimError> {
        let t = &self.tenants[idx];
        self.ledger.commit(TenantId(t.id), t.quota_pages)?;
        self.seq += 1;
        self.leases.push(Lease {
            end: at.saturating_add(t.lease_cycles),
            seq: self.seq,
            tenant: TenantId(t.id),
            quota: t.quota_pages,
        });
        self.admissions[idx] = Some(TenantAdmission {
            spec: t.clone(),
            outcome,
            admitted_at: at,
            concurrent: self.ledger.active(),
            reject_reason: String::new(),
        });
        Ok(())
    }

    /// Records a rejection row (typed error available via
    /// [`TenantAdmission::rejection`]).
    fn reject(&mut self, idx: usize, reason: String) {
        self.admissions[idx] = Some(TenantAdmission {
            spec: self.tenants[idx].clone(),
            outcome: AdmissionOutcome::Rejected,
            admitted_at: 0,
            concurrent: 0,
            reject_reason: reason,
        });
    }

    /// Releases every lease ending at or before `horizon`, admitting the
    /// pending queue FIFO at each release boundary.
    fn drain_to(&mut self, horizon: u64) -> Result<(), SimError> {
        while self.leases.peek().is_some_and(|l| l.end <= horizon) {
            #[expect(clippy::expect_used, reason = "guarded by peek")]
            let lease = self.leases.pop().expect("peeked nonempty");
            self.ledger.release(lease.tenant, lease.quota)?;
            while let Some(&idx) = self.pending.first() {
                if self.fits(idx) {
                    self.pending.remove(0);
                    self.admit(idx, lease.end, AdmissionOutcome::Delayed)?;
                } else {
                    break;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// The merged result of running a whole mix (execution lives in
/// `hpe-bench`; the type lives here so every tool can parse it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Fingerprint of the producing mix.
    pub fingerprint: String,
    /// Policy label every tenant ran under.
    pub policy: String,
    /// HIR sharing mode label (`per-tenant` / `shared`).
    pub hir_mode: String,
    /// Name of the fault plan scoped into the mix ("" = fault-free).
    pub plan: String,
    /// Tenant id the plan was scoped to (`None` = fault-free mix).
    pub fault_tenant: Option<u64>,
    /// Tenants shed by admission control.
    pub rejected: u64,
    /// Tenants admitted late.
    pub delayed: u64,
    /// Mix makespan: the latest tenant completion on the mix clock.
    pub makespan: u64,
    /// Per-tenant results, in `(arrival, id)` order.
    pub tenants: Vec<TenantStats>,
}

impl_json_struct!(TenantReport {
    fingerprint = String::new(),
    policy = String::new(),
    hir_mode = String::new(),
    plan = String::new(),
    fault_tenant = None,
    rejected = 0,
    delayed = 0,
    makespan = 0,
    tenants = Vec::new(),
});

impl TenantReport {
    /// Parses a report, rejecting unknown fields.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on unknown or malformed fields.
    pub fn from_json_strict(v: &Json) -> Result<Self, JsonError> {
        // Optional fields are populated so their inner keys join the
        // known set.
        let mut template = TenantReport {
            fault_tenant: Some(0),
            ..TenantReport::default()
        };
        template.tenants.push(TenantStats::default());
        check_unknown_fields(v, &template.to_json(), "tenant report")?;
        TenantReport::from_json(v)
    }

    /// p99 of per-tenant queueing-inflated slowdown (max for small
    /// mixes), over tenants that actually ran.
    pub fn p99_slowdown(&self) -> f64 {
        let mut s: Vec<f64> = self
            .tenants
            .iter()
            .filter(|t| t.stats.cycles > 0)
            .map(TenantStats::slowdown)
            .collect();
        if s.is_empty() {
            return 0.0;
        }
        #[expect(
            clippy::expect_used,
            reason = "rows with zero cycles are filtered out, so slowdowns are finite"
        )]
        s.sort_by(|a, b| a.partial_cmp(b).expect("slowdowns are finite"));
        let idx = ((s.len() as f64 * 0.99).ceil() as usize).clamp(1, s.len()) - 1;
        s[idx]
    }

    /// Aggregate throughput: instructions retired across all tenants
    /// per kilocycle of makespan (0 for an empty or rejected-only mix).
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let instructions: u64 = self.tenants.iter().map(|t| t.stats.instructions).sum();
        instructions as f64 * 1_000.0 / self.makespan as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_mix() -> TenantMix {
        TenantMix {
            pool_pages: 1024,
            tenants: vec![
                TenantSpec {
                    id: 0,
                    app: "STN".into(),
                    quota_pages: 576,
                    arrival: 0,
                    lease_cycles: 1_000,
                },
                TenantSpec {
                    id: 1,
                    app: "MVT".into(),
                    quota_pages: 768,
                    arrival: 100,
                    lease_cycles: 1_000,
                },
            ],
            ..TenantMix::default()
        }
    }

    #[test]
    fn mix_json_roundtrip_and_sparse_defaults() {
        let mix = two_tenant_mix();
        let text = mix.to_json().to_string();
        let back = TenantMix::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, mix);
        assert_eq!(back.to_json().to_string(), text);
        let sparse = TenantMix::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(sparse, TenantMix::default());
    }

    #[test]
    fn strict_parse_rejects_misspelled_knobs() {
        let text = r#"{ "pool_pages": 100, "admision": {} }"#;
        let err = TenantMix::from_json_strict(&Json::parse(text).unwrap()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("admision"), "{msg}");
        assert!(msg.contains("admission"), "{msg}");
        // Nested tenant field typo, via the array exemplar.
        let text = r#"{ "tenants": [ { "id": 0, "quota": 5 } ] }"#;
        let err = TenantMix::from_json_strict(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("tenants[0].quota"), "{err}");
    }

    #[test]
    fn validation_names_offending_fields() {
        let mut mix = two_tenant_mix();
        mix.pool_pages = 0;
        assert_eq!(mix.validate().unwrap_err().parameter(), "pool_pages");
        let mut mix = two_tenant_mix();
        mix.tenants[1].id = 0;
        assert_eq!(mix.validate().unwrap_err().parameter(), "tenants");
        let mut mix = two_tenant_mix();
        mix.tenants[0].app = "XXX".into();
        assert_eq!(mix.validate().unwrap_err().parameter(), "tenants");
        let mut mix = two_tenant_mix();
        mix.admission.max_active = 0;
        assert_eq!(mix.validate().unwrap_err().parameter(), "max_active");
    }

    #[test]
    fn arrival_process_is_seeded_and_deterministic() {
        let mix = TenantMix {
            pool_pages: 4096,
            arrivals: ArrivalProcess {
                count: 5,
                mean_gap: 1_000,
                apps: vec!["STN".into(), "MVT".into(), "CUT".into()],
                quota_pct: 75,
                lease_cycles: 10_000,
            },
            ..TenantMix::default()
        };
        let a = mix.resolved_tenants();
        let b = mix.resolved_tenants();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let mut reseeded = mix.clone();
        reseeded.seed = 7;
        assert_ne!(reseeded.resolved_tenants(), a);
    }

    #[test]
    fn schedule_admits_delays_and_rejects() {
        // Pool 1024, quotas 576 + 768: the second tenant cannot fit
        // until the first lease releases at cycle 1000.
        let mix = two_tenant_mix();
        let sched = schedule(&mix).unwrap();
        assert_eq!(sched.admissions.len(), 2);
        assert_eq!(sched.admissions[0].outcome, AdmissionOutcome::Admitted);
        assert_eq!(sched.admissions[0].admitted_at, 0);
        assert_eq!(sched.admissions[1].outcome, AdmissionOutcome::Delayed);
        assert_eq!(sched.admissions[1].admitted_at, 1_000);
        assert_eq!(sched.delayed, 1);
        assert_eq!(sched.rejected, 0);
    }

    #[test]
    fn quota_boundary_zero_is_rejected_typed() {
        let mut mix = two_tenant_mix();
        mix.tenants[0].quota_pages = 0;
        let sched = schedule(&mix).unwrap();
        assert_eq!(sched.admissions[0].outcome, AdmissionOutcome::Rejected);
        assert_eq!(sched.rejected, 1);
        let err = sched.admissions[0].rejection().unwrap();
        assert_eq!(err.kind(), "AdmissionRejected");
        assert!(err.to_string().contains("zero residency quota"));
    }

    #[test]
    fn quota_boundary_equal_to_pool_is_admitted() {
        let mut mix = two_tenant_mix();
        mix.tenants[0].quota_pages = 1024; // == pool
        let sched = schedule(&mix).unwrap();
        assert_eq!(sched.admissions[0].outcome, AdmissionOutcome::Admitted);
        // The second tenant still fits only after the release.
        assert_eq!(sched.admissions[1].outcome, AdmissionOutcome::Delayed);
    }

    #[test]
    fn quota_boundary_above_pool_is_rejected_not_delayed() {
        let mut mix = two_tenant_mix();
        mix.tenants[1].quota_pages = 2048; // > pool: can never fit
        let sched = schedule(&mix).unwrap();
        assert_eq!(sched.admissions[1].outcome, AdmissionOutcome::Rejected);
        let reason = &sched.admissions[1].reject_reason;
        assert!(reason.contains("exceeds the pool bound"), "{reason}");
    }

    #[test]
    fn backlog_bound_sheds_excess_arrivals() {
        let mut mix = two_tenant_mix();
        mix.admission.max_pending = 0;
        let sched = schedule(&mix).unwrap();
        assert_eq!(sched.admissions[1].outcome, AdmissionOutcome::Rejected);
        assert!(sched.admissions[1]
            .reject_reason
            .contains("admission backlog full"));
    }

    #[test]
    fn max_active_bound_serializes_leases() {
        let mut mix = two_tenant_mix();
        // Both quotas fit the pool simultaneously, but only one lease
        // may be active at a time.
        mix.pool_pages = 4096;
        mix.admission.max_active = 1;
        let sched = schedule(&mix).unwrap();
        assert_eq!(sched.admissions[0].outcome, AdmissionOutcome::Admitted);
        assert_eq!(sched.admissions[1].outcome, AdmissionOutcome::Delayed);
        assert_eq!(sched.admissions[1].admitted_at, 1_000);
        assert_eq!(sched.admissions[1].concurrent, 1);
    }

    #[test]
    fn ledger_catches_underflow_and_overflow_as_typed_errors() {
        let mut ledger = QuotaLedger::new(100, 100);
        assert!(ledger.commit(TenantId(0), 60).is_ok());
        let over = ledger.commit(TenantId(1), 60).unwrap_err();
        assert_eq!(over.kind(), "QuotaViolated");
        let under = ledger.release(TenantId(0), 90).unwrap_err();
        assert_eq!(under.kind(), "QuotaViolated");
        assert!(ledger.release(TenantId(0), 60).is_ok());
        assert_eq!(ledger.committed(), 0);
        assert_eq!(ledger.active(), 0);
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = two_tenant_mix();
        assert_eq!(a.fingerprint(), two_tenant_mix().fingerprint());
        let mut b = two_tenant_mix();
        b.seed = 99;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = two_tenant_mix();
        c.hir_mode = HirMode::Shared;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn report_fairness_metrics() {
        let mut report = TenantReport {
            makespan: 2_000,
            ..TenantReport::default()
        };
        let mut a = TenantStats {
            arrival: 0,
            admitted: 0,
            ..TenantStats::default()
        };
        a.stats.cycles = 1_000;
        a.stats.instructions = 4_000;
        let mut b = TenantStats {
            arrival: 0,
            admitted: 1_000,
            ..TenantStats::default()
        };
        b.stats.cycles = 1_000;
        b.stats.instructions = 2_000;
        report.tenants = vec![a, b];
        assert!((report.p99_slowdown() - 2.0).abs() < 1e-12);
        assert!((report.throughput() - 3_000.0).abs() < 1e-12);
        assert_eq!(TenantReport::default().p99_slowdown(), 0.0);
        assert_eq!(TenantReport::default().throughput(), 0.0);
    }

    #[test]
    fn mix_fingerprint_is_pinned() {
        // Recorded before the digest moved to `uvm_util::fnv1a`; a change
        // here means the mix JSON or the digest changed.
        let mix = TenantMix::uniform(&["STN", "MVT"], 75, 1_000, 7);
        assert_eq!(mix.fingerprint(), "0241f5fd62e945bb");
    }

    #[test]
    fn schedule_report_roundtrip() {
        let report = TenantReport {
            fingerprint: "abc".into(),
            policy: "HPE".into(),
            hir_mode: "shared".into(),
            plan: "latency-storm".into(),
            fault_tenant: Some(1),
            rejected: 1,
            delayed: 2,
            makespan: 123,
            tenants: vec![TenantStats::default()],
        };
        let text = report.to_json().to_string();
        let back = TenantReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        // Sparse parses to default (fault_tenant None).
        let sparse = TenantReport::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(sparse, TenantReport::default());
    }
}
