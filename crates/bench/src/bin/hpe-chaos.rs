//! `hpe-chaos`: seeded fault-injection campaigns over the simulator.
//!
//! Runs every eviction policy under a set of replayable fault plans and
//! reports resilience metrics against the clean (no-injection) run of the
//! same configuration: slowdown, extra cycles to completion, injected
//! perturbation counters, and HPE's degraded-mode residency.
//!
//! ```sh
//! hpe-chaos campaign                       # all policies x all fault kinds (STN, 75%)
//! hpe-chaos campaign BFS --seed 7          # another app / another seed
//! hpe-chaos campaign --workers 8           # same cells fanned over 8 threads;
//!                                          # the merged report is byte-identical
//! hpe-chaos campaign --retry --fallback lru-shadow   # recovery machinery on
//! hpe-chaos livelock                       # watchdog demo: injected livelock -> Stalled
//! hpe-chaos livelock --retry               # same, with backoff -> RetriesExhausted
//! hpe-chaos resume                         # checkpoint mid-run, resume, verify equality
//! hpe-chaos smoke                          # fast panic-free subset for CI (sanitizer on)
//! hpe-chaos sanitize                       # invariant sanitizer zero-perturbation proof
//! hpe-chaos explore spec.json --workers 4  # fault-space exploration: enumerate fault
//!                                          # windows + seed batches, check invariants,
//!                                          # shrink failures to minimal repro files
//! hpe-chaos replay repro.json              # one-command deterministic counterexample replay
//! hpe-chaos tenants --tenants 4 --workers 2 # isolated-partition tenant mix: quotas, admission
//!                                          # control, and (with --plan) the containment wiring check
//! ```
//!
//! Campaign results are saved as JSON under `target/paper-results/`
//! (`chaos-campaign.json`, `chaos-checkpoint.json`) for machine
//! consumption; identical seeds reproduce identical campaigns.
//!
//! Exit codes: 0 success, 1 a simulation failed (CI can gate on this),
//! 2 usage error.

use std::process::ExitCode;

use hpe_bench::{
    bench_config, campaign, check_containment, f2, replay_repro, repro_for, run, run_explore,
    run_mix, run_policy, save_json, MixOptions, PolicyKind, PoolOptions, RecoveryOptions,
    RunOutput, RunSpec, Table, CONTAINMENT_APPS,
};
use hpe_core::{Hpe, HpeConfig};
use uvm_sim::{
    trace_for, ExploreSpec, FallbackVictim, FaultPlan, HirMode, ReproCase, RetryPolicy, Simulation,
    TenantMix, DEFAULT_PROFILE_CADENCE, DEFAULT_SANITIZER_CADENCE,
};
use uvm_types::{Oversubscription, SimError};
use uvm_util::{json, Json, JsonError, ToJson};
use uvm_workloads::registry;

/// Default campaign seed (the paper's publication year, for no deeper
/// reason than reproducibility needs *some* pinned value).
const DEFAULT_SEED: u64 = 2019;

/// Default pause cycle for `resume` (well inside every campaign run).
const DEFAULT_RESUME_AT: u64 = 10_000_000;

/// How a command failed, mapped onto the process exit code.
enum CmdError {
    /// Bad arguments: exit 2, after printing usage.
    Usage(String),
    /// A simulation failed or an expectation did not hold: exit 1.
    Run(String),
}

impl From<SimError> for CmdError {
    fn from(e: SimError) -> Self {
        CmdError::Run(e.to_string())
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hpe-chaos <command> [args]\n\
         \n\
         commands:\n\
         \x20 campaign [APP ...] [--seed N] [--rate 75|50] [--retry]\n\
         \x20          [--fallback min-page|lru-shadow] [--workers N]\n\
         \x20          run every policy under every fault plan and report\n\
         \x20          resilience metrics vs the clean run (default app STN);\n\
         \x20          --workers fans the cells over N threads with a\n\
         \x20          deterministic merge (same output for any N)\n\
         \x20 livelock [--seed N] [--rate 75|50] [--retry]\n\
         \x20          inject an unbounded completion-loss livelock and show\n\
         \x20          the watchdog converting it into SimError::Stalled\n\
         \x20          (or, with --retry, into SimError::RetriesExhausted)\n\
         \x20 resume   [APP] [--seed N] [--rate 75|50] [--plan NAME]\n\
         \x20          [--at CYCLE] [--retry] [--fallback min-page|lru-shadow]\n\
         \x20          run HPE under a fault plan, checkpoint at CYCLE,\n\
         \x20          resume from the checkpoint in a fresh simulation and\n\
         \x20          verify the stats match the uninterrupted run\n\
         \x20 smoke    [--seed N]\n\
         \x20          fast panic-free campaign subset with the runtime\n\
         \x20          invariant sanitizer enabled (CI gate)\n\
         \x20 sanitize [APP ...] [--rate 75|50] [--sanitize CADENCE]\n\
         \x20          run HPE with the invariant sanitizer on and off\n\
         \x20          (default apps STN SGM) and verify the sanitizer\n\
         \x20          leaves SimStats byte-identical\n\
         \x20 profile  [APP ...] [--rate 75|50]\n\
         \x20          run HPE with the cycle-attribution profiler on and\n\
         \x20          off (default apps STN SGM) and verify the profiler\n\
         \x20          leaves SimStats byte-identical and its timeline\n\
         \x20          accounts conserve total cycles\n\
         \x20 explore  SPEC.json [--workers N]\n\
         \x20          fault-space exploration: enumerate fault-window\n\
         \x20          placements and seeded plan batches from the spec,\n\
         \x20          check every invariant on every run, shrink failures\n\
         \x20          to minimal counterexamples and save replayable repro\n\
         \x20          files; the merged coverage report is byte-identical\n\
         \x20          for any worker count (exit 1 if counterexamples)\n\
         \x20 replay   REPRO.json\n\
         \x20          re-run a shrunk counterexample deterministically and\n\
         \x20          verify it reproduces the recorded violation verbatim\n\
         \x20 tenants  [APP ...] [--tenants N] [--quota PCT] [--hir per-tenant|shared]\n\
         \x20          [--policy NAME] [--seed N] [--workers N]\n\
         \x20          [--plan NAME [--target TENANT]]\n\
         \x20          run N tenants (cycling the listed apps; default\n\
         \x20          STN/MVT/CUT) as isolated partitions, each its own\n\
         \x20          simulation, through admission control against one\n\
         \x20          residency budget and print per-tenant outcomes and\n\
         \x20          fairness metrics; with --plan, scope the fault plan\n\
         \x20          to --target (default tenant 0) and run the wiring\n\
         \x20          check: every other tenant's stats must be\n\
         \x20          byte-identical to the fault-free mix (exit 1 if not)\n\
         \n\
         common flags: --adaptive makes --retry use the loss-adaptive\n\
         backoff policy (tunes delay online from the observed\n\
         completion-loss rate) instead of fixed exponential backoff\n\
         \n\
         exit codes: 0 ok, 1 simulation failure, 2 usage error"
    );
    ExitCode::from(2)
}

struct Flags {
    seed: u64,
    rate: Oversubscription,
    retry: bool,
    adaptive: bool,
    fallback: FallbackVictim,
    plan: Option<String>,
    at: u64,
    sanitize: Option<u64>,
    workers: usize,
    tenants: u64,
    quota: u64,
    hir: HirMode,
    policy: Option<String>,
    target: Option<u64>,
    positional: Vec<String>,
}

impl Flags {
    fn retry_policy(&self) -> RetryPolicy {
        if self.adaptive {
            RetryPolicy::adaptive()
        } else {
            RetryPolicy::default()
        }
    }

    fn recovery(&self) -> RecoveryOptions {
        RecoveryOptions {
            retry: self.retry.then(|| self.retry_policy()),
            fallback: self.fallback,
            sanitize: self.sanitize,
            profile: None,
        }
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        seed: DEFAULT_SEED,
        rate: Oversubscription::Rate75,
        retry: false,
        adaptive: false,
        fallback: FallbackVictim::MinPage,
        plan: None,
        at: DEFAULT_RESUME_AT,
        sanitize: None,
        workers: 1,
        tenants: 4,
        quota: 75,
        hir: HirMode::PerTenant,
        policy: None,
        target: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                let v = value("--seed")?;
                flags.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--rate" => {
                let v = value("--rate")?;
                flags.rate =
                    Oversubscription::parse(&v).ok_or_else(|| format!("unknown rate '{v}'"))?;
            }
            "--retry" => flags.retry = true,
            // --adaptive implies --retry: there is no backoff to adapt
            // without the retry machinery on.
            "--adaptive" => {
                flags.retry = true;
                flags.adaptive = true;
            }
            "--fallback" => {
                let v = value("--fallback")?;
                flags.fallback = FallbackVictim::parse(&v).ok_or_else(|| {
                    format!("unknown fallback '{v}' (expected min-page or lru-shadow)")
                })?;
            }
            "--plan" => flags.plan = Some(value("--plan")?),
            "--sanitize" => {
                let v = value("--sanitize")?;
                let cadence: u64 = v.parse().map_err(|_| format!("bad --sanitize '{v}'"))?;
                flags.sanitize = Some(cadence);
            }
            "--at" => {
                let v = value("--at")?;
                flags.at = v.parse().map_err(|_| format!("bad --at '{v}'"))?;
            }
            "--workers" => {
                let v = value("--workers")?;
                flags.workers = v.parse().map_err(|_| format!("bad --workers '{v}'"))?;
            }
            "--tenants" => {
                let v = value("--tenants")?;
                flags.tenants = v.parse().map_err(|_| format!("bad --tenants '{v}'"))?;
            }
            "--quota" => {
                let v = value("--quota")?;
                flags.quota = v
                    .trim_end_matches('%')
                    .parse()
                    .map_err(|_| format!("bad --quota '{v}'"))?;
            }
            "--hir" => {
                let v = value("--hir")?;
                flags.hir = HirMode::parse(&v)
                    .ok_or_else(|| format!("unknown HIR mode '{v}' (per-tenant or shared)"))?;
            }
            "--policy" => flags.policy = Some(value("--policy")?),
            "--target" => {
                let v = value("--target")?;
                flags.target = Some(v.parse().map_err(|_| format!("bad --target '{v}'"))?);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag '{other}'")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// Resolves a `--plan` name against the named fault plans a campaign
/// sweeps ([`campaign::chaos_plan_set`] minus its clean control cell).
/// Each derives its RNG stream from `seed`, so a sweep replays from one
/// number.
fn plan_by_name(name: &str, seed: u64) -> Result<FaultPlan, CmdError> {
    let plans = campaign::chaos_plan_set(seed);
    let found = plans.iter().find(|p| p.name == name);
    found.and_then(|p| p.plan.clone()).ok_or_else(|| {
        let names: Vec<&str> = plans
            .iter()
            .filter(|p| p.plan.is_some())
            .map(|p| p.name.as_str())
            .collect();
        CmdError::Usage(format!(
            "unknown plan '{name}' (expected one of: {})",
            names.join(", ")
        ))
    })
}

/// One (policy, plan) cell of a campaign: the chaos run compared against
/// the policy's clean run.
struct CampaignRow {
    app: String,
    policy: String,
    plan: String,
    faults: u64,
    clean_cycles: u64,
    chaos_cycles: u64,
    injected_delay_cycles: u64,
    tail_latency_events: u64,
    congested_services: u64,
    completions_lost: u64,
    fallback_victims: u64,
    spurious_wrong_evictions: u64,
    faults_during_hir_outage: u64,
    degraded_entries: u64,
    degraded_faults: u64,
    victims_dropped: u64,
    delayed_hir_flushes: u64,
    hir_flushes_lost: u64,
    circuit_breaker_trips: u64,
    retry_attempts: u64,
    retry_backoff_cycles: u64,
}

impl CampaignRow {
    /// Wall-clock inflation of the chaos run relative to the clean run.
    fn slowdown(&self) -> f64 {
        self.chaos_cycles as f64 / self.clean_cycles as f64
    }

    /// Cycles the chaos run needed beyond the clean run (recovery cost).
    fn recovery_cycles(&self) -> u64 {
        self.chaos_cycles.saturating_sub(self.clean_cycles)
    }

    /// Fraction of all faults handled in HPE's degraded fallback mode.
    fn degraded_residency(&self) -> f64 {
        if self.faults == 0 {
            0.0
        } else {
            self.degraded_faults as f64 / self.faults as f64
        }
    }

    fn to_json(&self) -> Json {
        json!({
            "app": self.app.as_str(),
            "policy": self.policy.as_str(),
            "plan": self.plan.as_str(),
            "faults": self.faults,
            "clean_cycles": self.clean_cycles,
            "chaos_cycles": self.chaos_cycles,
            "slowdown": self.slowdown(),
            "recovery_cycles": self.recovery_cycles(),
            "injected_delay_cycles": self.injected_delay_cycles,
            "tail_latency_events": self.tail_latency_events,
            "congested_services": self.congested_services,
            "completions_lost": self.completions_lost,
            "fallback_victims": self.fallback_victims,
            "spurious_wrong_evictions": self.spurious_wrong_evictions,
            "faults_during_hir_outage": self.faults_during_hir_outage,
            "degraded_entries": self.degraded_entries,
            "degraded_faults": self.degraded_faults,
            "degraded_residency": self.degraded_residency(),
            "victims_dropped": self.victims_dropped,
            "delayed_hir_flushes": self.delayed_hir_flushes,
            "hir_flushes_lost": self.hir_flushes_lost,
            "circuit_breaker_trips": self.circuit_breaker_trips,
            "retry_attempts": self.retry_attempts,
            "retry_backoff_cycles": self.retry_backoff_cycles,
        })
    }
}

/// Runs `spec` on the campaign engine and pairs every chaos cell with its
/// policy's clean cell: one row per chaos run. The spec's plan set keeps
/// the clean control cell in the grid, so every row's baseline comes out
/// of the same merged report.
fn chaos_rows(spec: &campaign::CampaignSpec, workers: usize) -> Result<Vec<CampaignRow>, CmdError> {
    let pool = PoolOptions {
        workers,
        ..PoolOptions::default()
    };
    let outcome = campaign::run_campaign(&bench_config(), spec, &pool, None)
        .map_err(|e| CmdError::Run(e.to_string()))?;
    let report = outcome.report().map_err(|e| CmdError::Run(e.to_string()))?;

    let mut rows = Vec::new();
    for abbr in &spec.apps {
        for &kind in &spec.policies {
            for rate in &spec.rates {
                let rate_label = rate.label();
                let clean = report
                    .find(&campaign::grid_key(
                        abbr,
                        kind.label(),
                        &rate_label,
                        "clean",
                    ))
                    .ok_or_else(|| CmdError::Run(format!("missing clean cell for {abbr}")))?;
                if !clean.ok {
                    return Err(CmdError::Run(format!(
                        "clean run failed for {abbr}/{}: {}",
                        kind.label(),
                        clean.error
                    )));
                }
                debug_assert!(
                    !clean.stats.resilience.any(),
                    "clean run must not record injection"
                );
                for plan in spec.plans.iter().filter(|p| p.plan.is_some()) {
                    let chaos = report
                        .find(&campaign::grid_key(
                            abbr,
                            kind.label(),
                            &rate_label,
                            &plan.name,
                        ))
                        .ok_or_else(|| {
                            CmdError::Run(format!("missing {} cell for {abbr}", plan.name))
                        })?;
                    if !chaos.ok {
                        return Err(CmdError::Run(format!(
                            "chaos run failed for {}: {}",
                            chaos.key, chaos.error
                        )));
                    }
                    let res = &chaos.stats.resilience;
                    rows.push(CampaignRow {
                        app: chaos.app.clone(),
                        policy: chaos.policy.clone(),
                        plan: plan.name.clone(),
                        faults: chaos.stats.faults(),
                        clean_cycles: clean.stats.cycles,
                        chaos_cycles: chaos.stats.cycles,
                        injected_delay_cycles: res.injected_delay_cycles,
                        tail_latency_events: res.tail_latency_events,
                        congested_services: res.congested_services,
                        completions_lost: res.completions_lost,
                        fallback_victims: res.fallback_victims,
                        spurious_wrong_evictions: res.spurious_wrong_evictions,
                        faults_during_hir_outage: res.faults_during_hir_outage,
                        degraded_entries: chaos.stats.policy.degraded_entries,
                        degraded_faults: chaos.stats.policy.degraded_faults,
                        victims_dropped: res.victims_dropped,
                        delayed_hir_flushes: res.delayed_hir_flushes,
                        hir_flushes_lost: res.hir_flushes_lost,
                        circuit_breaker_trips: res.circuit_breaker_trips,
                        retry_attempts: res.retry_attempts,
                        retry_backoff_cycles: res.retry_backoff_cycles,
                    });
                }
            }
        }
    }
    Ok(rows)
}

fn print_campaign(title: &str, rows: &[CampaignRow]) {
    let mut t = Table::new(
        title,
        &[
            "app",
            "policy",
            "plan",
            "faults",
            "slowdown",
            "recovery",
            "inj.delay",
            "tails",
            "congested",
            "lost",
            "fallback",
            "spurious",
            "dropped",
            "delayed",
            "retried",
            "degraded",
        ],
    );
    for r in rows {
        t.row(vec![
            r.app.to_string(),
            r.policy.to_string(),
            r.plan.to_string(),
            r.faults.to_string(),
            f2(r.slowdown()),
            r.recovery_cycles().to_string(),
            r.injected_delay_cycles.to_string(),
            r.tail_latency_events.to_string(),
            r.congested_services.to_string(),
            r.completions_lost.to_string(),
            r.fallback_victims.to_string(),
            r.spurious_wrong_evictions.to_string(),
            r.victims_dropped.to_string(),
            r.delayed_hir_flushes.to_string(),
            r.retry_attempts.to_string(),
            format!("{:.1}%", 100.0 * r.degraded_residency()),
        ]);
    }
    t.print();
}

fn cmd_campaign(flags: &Flags) -> Result<(), CmdError> {
    let apps: Vec<String> = if flags.positional.is_empty() {
        vec!["STN".to_string()]
    } else {
        flags.positional.clone()
    };
    let spec = campaign::CampaignSpec {
        apps,
        policies: PolicyKind::ALL.to_vec(),
        rates: vec![flags.rate],
        plans: campaign::chaos_plan_set(flags.seed),
        recovery: flags.recovery(),
        seed: flags.seed,
    };
    eprintln!(
        "[campaign: {} app(s) at {}, seed {}, {} policies x {} plans, retry {}, \
         fallback {}, {} worker(s)]",
        spec.apps.len(),
        flags.rate.label(),
        flags.seed,
        spec.policies.len(),
        spec.plans.len(),
        if flags.retry { "on" } else { "off" },
        flags.fallback.label(),
        flags.workers.max(1),
    );
    let rows = chaos_rows(&spec, flags.workers)?;
    let total_faults: u64 = rows.iter().map(|r| r.faults).sum();
    print_campaign(
        format!(
            "chaos campaign (seed {}, {}, {} chaos runs, {} faults total, fingerprint {})",
            flags.seed,
            flags.rate.label(),
            rows.len(),
            total_faults,
            spec.fingerprint()
        )
        .as_str(),
        &rows,
    );
    let json_rows: Vec<Json> = rows.iter().map(CampaignRow::to_json).collect();
    save_json("chaos-campaign", &json_rows.to_json());
    Ok(())
}

fn cmd_livelock(flags: &Flags) -> Result<(), CmdError> {
    let app = registry::by_abbr("STN").expect("STN is registered");
    let cfg = bench_config();
    let plan = FaultPlan::livelock(flags.seed);
    eprintln!(
        "[injecting unbounded completion loss into {} under LRU at {}{}]",
        app.abbr(),
        flags.rate.label(),
        if flags.retry { ", retry policy on" } else { "" }
    );
    let spec = RunSpec {
        kind: PolicyKind::Lru,
        plan: Some(plan),
        recovery: flags.recovery(),
        ..RunSpec::default()
    };
    let outcome = run(&cfg, app, flags.rate, &spec);
    match (flags.retry, outcome) {
        (false, Err(SimError::Stalled { cycle, in_flight })) => {
            println!(
                "watchdog fired: SimError::Stalled at cycle {cycle} with {in_flight} \
                 in-flight faults (no forward progress)"
            );
            Ok(())
        }
        (
            true,
            Err(SimError::RetriesExhausted {
                page,
                cycle,
                attempts,
            }),
        ) => {
            println!(
                "retry policy gave up: SimError::RetriesExhausted for page {page} at \
                 cycle {cycle} after {attempts} attempts (backoff capped, driver freed)"
            );
            Ok(())
        }
        (false, Err(other)) => Err(CmdError::Run(format!("expected Stalled, got: {other}"))),
        (true, Err(other)) => Err(CmdError::Run(format!(
            "expected RetriesExhausted, got: {other}"
        ))),
        (_, Ok(_)) => Err(CmdError::Run(
            "expected the injected livelock to abort the run".into(),
        )),
    }
}

/// `resume`: run HPE under a fault plan three ways — straight through,
/// paused at `--at` to take a checkpoint, and a fresh simulation resumed
/// from that checkpoint — then verify the resumed stats are byte-identical
/// to the straight run's.
fn cmd_resume(flags: &Flags) -> Result<(), CmdError> {
    let abbr = flags.positional.first().map_or("STN", String::as_str);
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CmdError::Usage(format!("unknown app '{abbr}'")))?;
    let plan_name = flags.plan.as_deref().unwrap_or("signal-chaos");
    let plan = plan_by_name(plan_name, flags.seed)?;

    let cfg = bench_config();
    let trace = trace_for(&cfg, app);
    let capacity = flags.rate.capacity_pages(app.footprint_pages());
    let build = || -> Result<Simulation<Hpe>, SimError> {
        let hpe = Hpe::new(HpeConfig::from_sim(&cfg))?;
        let mut sim = Simulation::new(cfg.clone(), &trace, hpe, capacity)?;
        sim.set_fault_plan(plan.clone())?;
        if let Some(rp) = flags.recovery().retry {
            sim.set_retry_policy(rp)?;
        }
        sim.set_fallback_victim(flags.fallback);
        Ok(sim)
    };

    eprintln!(
        "[resume: HPE on {} at {} under {plan_name} (seed {}), checkpoint at cycle {}]",
        app.abbr(),
        flags.rate.label(),
        flags.seed,
        flags.at
    );
    let straight = build()?.run()?.stats;

    let mut paused = build()?;
    let done = paused.run_until(flags.at)?;
    let ckpt = paused.checkpoint();
    save_json("chaos-checkpoint", &ckpt);
    if done {
        eprintln!(
            "note: the run completed before cycle {}; the checkpoint captures its final state",
            flags.at
        );
    }
    println!(
        "checkpointed at cycle {} ({} faults serviced, {} cycles simulated)",
        ckpt.cycle, ckpt.stats.driver.faults_serviced, ckpt.stats.cycles
    );

    let mut resumed = build()?;
    resumed.resume(&ckpt)?;
    let stats = resumed.finish()?.stats;

    let (a, b) = (stats.to_json().to_string(), straight.to_json().to_string());
    if a != b {
        return Err(CmdError::Run(format!(
            "resumed stats diverged from the uninterrupted run\nresumed:  {a}\nstraight: {b}"
        )));
    }
    println!(
        "resume verified: {} cycles, {} faults — byte-identical to the uninterrupted run",
        stats.cycles,
        stats.faults()
    );
    Ok(())
}

fn cmd_smoke(flags: &Flags) -> Result<(), CmdError> {
    // The smoke gate runs with the invariant sanitizer on: a corrupted
    // residency count or broken policy structure under injection fails
    // CI as a typed InvariantViolated, not a wrong number downstream.
    let spec = campaign::CampaignSpec {
        apps: vec!["STN".to_string()],
        policies: vec![PolicyKind::Lru, PolicyKind::Rrip, PolicyKind::Hpe],
        rates: vec![Oversubscription::Rate75],
        plans: campaign::chaos_plan_set(flags.seed),
        recovery: RecoveryOptions {
            sanitize: Some(flags.sanitize.unwrap_or(DEFAULT_SANITIZER_CADENCE)),
            ..RecoveryOptions::default()
        },
        seed: flags.seed,
    };
    let rows = chaos_rows(&spec, 1)?;
    let mut injected = 0usize;
    for r in &rows {
        if r.injected_delay_cycles > 0
            || r.completions_lost > 0
            || r.faults_during_hir_outage > 0
            || r.spurious_wrong_evictions > 0
            || r.victims_dropped > 0
            || r.delayed_hir_flushes > 0
        {
            injected += 1;
        }
    }
    if injected == 0 {
        return Err(CmdError::Run(
            "no chaos run recorded any injection; plans are inert".into(),
        ));
    }
    let hpe_degraded = rows
        .iter()
        .any(|r| r.policy == "HPE" && r.plan == "signal-chaos" && r.degraded_faults > 0);
    if !hpe_degraded {
        return Err(CmdError::Run(
            "HPE did not enter degraded mode under signal-chaos".into(),
        ));
    }
    let fallback_exercised = rows
        .iter()
        .any(|r| r.plan == "victim-drop" && r.victims_dropped > 0 && r.fallback_victims > 0);
    if !fallback_exercised {
        return Err(CmdError::Run(
            "victim-drop did not exercise the fallback victim path".into(),
        ));
    }
    let delay_exercised = rows
        .iter()
        .any(|r| r.policy == "HPE" && r.plan == "partial-outage" && r.delayed_hir_flushes > 0);
    if !delay_exercised {
        return Err(CmdError::Run(
            "partial-outage did not delay any HIR flush".into(),
        ));
    }
    println!(
        "chaos smoke: {} runs, {} with injection, HPE degraded-mode, fallback-victim \
         and delayed-flush paths exercised; sanitizer on, no panics",
        rows.len(),
        injected
    );
    Ok(())
}

/// Runs HPE on each app (STN and SGM by default) once plain and once with
/// `recovery`'s observers attached, requires byte-identical `SimStats`
/// JSON, and hands each attached run to `check` before the next app.
fn observation_only(
    flags: &Flags,
    recovery: RecoveryOptions,
    observer: &str,
    mut check: impl FnMut(&str, RunOutput) -> Result<(), CmdError>,
) -> Result<(), CmdError> {
    let cfg = bench_config();
    let abbrs: Vec<&str> = if flags.positional.is_empty() {
        vec!["STN", "SGM"]
    } else {
        flags.positional.iter().map(String::as_str).collect()
    };
    for abbr in abbrs {
        let app = registry::by_abbr(abbr)
            .ok_or_else(|| CmdError::Usage(format!("unknown app '{abbr}'")))?;
        let off = run_policy(&cfg, app, flags.rate, PolicyKind::Hpe)?;
        let spec = RunSpec {
            recovery,
            ..RunSpec::default()
        };
        let on = run(&cfg, app, flags.rate, &spec)?;
        let (a, b) = (
            on.result.stats.to_json().to_string(),
            off.stats.to_json().to_string(),
        );
        if a != b {
            return Err(CmdError::Run(format!(
                "{observer} perturbed {abbr}: stats diverged\nobserved: {a}\nplain:    {b}"
            )));
        }
        check(abbr, on)?;
    }
    Ok(())
}

/// `sanitize`: prove the runtime invariant sanitizer is observation-only.
/// For each app, run HPE once with the sanitizer off and once with it on
/// (at `--sanitize` cadence) and require byte-identical `SimStats` JSON.
fn cmd_sanitize(flags: &Flags) -> Result<(), CmdError> {
    let cadence = flags.sanitize.unwrap_or(DEFAULT_SANITIZER_CADENCE);
    let recovery = RecoveryOptions {
        sanitize: Some(cadence),
        ..RecoveryOptions::default()
    };
    observation_only(flags, recovery, "sanitizer", |abbr, on| {
        println!(
            "{abbr}: {} cycles, {} faults — sanitizer (cadence {cadence}) left \
             SimStats byte-identical",
            on.result.stats.cycles,
            on.result.stats.faults()
        );
        Ok(())
    })
}

/// `profile`: prove the cycle-attribution profiler is observation-only.
///
/// Runs HPE with the profiler off, then on, and requires (a) byte-identical
/// `SimStats` JSON and (b) the profiler's timeline accounts to sum exactly
/// to the run's total cycles (the conservation law the breakdown rests on).
fn cmd_profile(flags: &Flags) -> Result<(), CmdError> {
    let recovery = RecoveryOptions {
        profile: Some(DEFAULT_PROFILE_CADENCE),
        ..RecoveryOptions::default()
    };
    observation_only(flags, recovery, "profiler", |abbr, on| {
        let Some(profile) = on.profile else {
            return Err(CmdError::Run(format!(
                "{abbr}: the profiled run returned no profile"
            )));
        };
        if profile.timeline_sum() != profile.total_cycles {
            return Err(CmdError::Run(format!(
                "profiler accounts for {abbr} do not conserve: timeline sum {} vs {} total cycles",
                profile.timeline_sum(),
                profile.total_cycles
            )));
        }
        println!(
            "{abbr}: {} cycles, {} faults — profiler left SimStats byte-identical; \
             timeline accounts conserve ({} driver-idle cycles skippable)",
            on.result.stats.cycles,
            on.result.stats.faults(),
            profile.driver_idle()
        );
        Ok(())
    })
}

/// Loads a JSON document from `path` through a strict decoder — unknown
/// or misspelled fields come back as actionable usage errors, never as
/// silently-ignored keys.
fn load_json<T>(
    path: &str,
    what: &str,
    parse: impl FnOnce(&Json) -> Result<T, JsonError>,
) -> Result<T, CmdError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::Usage(format!("cannot read {what} '{path}': {e}")))?;
    let json = Json::parse(&text)
        .map_err(|e| CmdError::Usage(format!("{what} '{path}' is not valid JSON: {e}")))?;
    parse(&json).map_err(|e| CmdError::Usage(format!("bad {what} '{path}': {e}")))
}

/// `explore`: run the fault-space exploration engine over a spec file,
/// shrink any failures, and save the coverage report plus one replayable
/// repro file per counterexample.
fn cmd_explore(flags: &Flags) -> Result<(), CmdError> {
    let Some(path) = flags.positional.first() else {
        return Err(CmdError::Usage("explore needs a SPEC.json path".into()));
    };
    let spec: ExploreSpec = load_json(path, "explore spec", ExploreSpec::from_json_strict)?;
    eprintln!(
        "[explore: {} under {} at {}%, invariants [{}], {} worker(s)]",
        spec.app,
        spec.policy,
        spec.rate,
        spec.invariant_set().join(", "),
        flags.workers.max(1),
    );
    let mut progress = std::io::stderr();
    let report = run_explore(
        &bench_config(),
        &spec,
        flags.workers,
        Some(&mut progress as &mut dyn std::io::Write),
    )
    .map_err(|e| CmdError::Run(e.to_string()))?;
    save_json("explore-report", &report);
    println!(
        "explored {} case(s) ({} fixture, {} window, {} batch; {} invalid placements \
         skipped) with {} run(s), {} invariant check(s), {} shrink probe(s)",
        report.cases,
        report.fixture_cases,
        report.window_cases,
        report.batch_cases,
        report.skipped_invalid,
        report.runs,
        report.invariant_checks,
        report.shrink_probes,
    );
    if report.counterexamples.is_empty() {
        println!("no counterexamples: every run upheld every selected invariant");
        return Ok(());
    }
    for (i, cx) in report.counterexamples.iter().enumerate() {
        let repro = repro_for(&spec, cx);
        let name = format!("explore-repro-{i}");
        save_json(&name, &repro);
        println!(
            "counterexample {i} ({}): invariant `{}` violated — {}\n\
             \x20 shrunk to {} window(s) in {} probe(s); replay with:\n\
             \x20   hpe-chaos replay target/paper-results/{name}.json",
            cx.label,
            cx.invariant,
            cx.error,
            cx.plan.windows.len(),
            cx.probes,
        );
    }
    Err(CmdError::Run(format!(
        "{} counterexample(s) found",
        report.counterexamples.len()
    )))
}

/// `replay`: re-run a shrunk counterexample and verify it reproduces the
/// recorded violation byte-for-byte.
fn cmd_replay(flags: &Flags) -> Result<(), CmdError> {
    let Some(path) = flags.positional.first() else {
        return Err(CmdError::Usage("replay needs a REPRO.json path".into()));
    };
    let repro: ReproCase = load_json(path, "repro case", ReproCase::from_json_strict)?;
    eprintln!(
        "[replay: {} under {} at {}%, expecting `{}` violation]",
        repro.app, repro.policy, repro.rate, repro.invariant
    );
    match replay_repro(&bench_config(), &repro).map_err(|e| CmdError::Run(e.to_string()))? {
        Some((invariant, error)) if invariant == repro.invariant && error == repro.error => {
            println!("reproduced: invariant `{invariant}` violated — {error}");
            Ok(())
        }
        Some((invariant, error)) => Err(CmdError::Run(format!(
            "violation differs from the recorded one\ngot:      `{invariant}`: {error}\n\
             recorded: `{}`: {}",
            repro.invariant, repro.error
        ))),
        None => Err(CmdError::Run(format!(
            "the run came back clean; recorded `{}` violation did not reproduce",
            repro.invariant
        ))),
    }
}

/// `tenants`: run a multi-tenant mix through admission control and print
/// per-tenant outcomes plus fairness metrics. Each tenant is its own
/// simulation (an isolated partition). With `--plan`, the fault plan is
/// scoped to `--target` and the wiring check runs: every non-target
/// tenant's stats must be byte-identical to the fault-free mix.
fn cmd_tenants(flags: &Flags) -> Result<(), CmdError> {
    let pool: Vec<&str> = if flags.positional.is_empty() {
        CONTAINMENT_APPS.to_vec()
    } else {
        flags.positional.iter().map(String::as_str).collect()
    };
    for abbr in &pool {
        registry::by_abbr(abbr).ok_or_else(|| CmdError::Usage(format!("unknown app '{abbr}'")))?;
    }
    let apps: Vec<&str> = (0..flags.tenants)
        .map(|i| pool[(i as usize) % pool.len()])
        .collect();
    let mut mix = TenantMix::uniform(&apps, flags.quota, 1_000, flags.seed);
    mix.hir_mode = flags.hir;
    mix.validate().map_err(|e| CmdError::Usage(e.to_string()))?;
    let policy = match flags.policy.as_deref() {
        None => PolicyKind::Hpe,
        Some(name) => PolicyKind::parse(name)
            .ok_or_else(|| CmdError::Usage(format!("unknown policy '{name}'")))?,
    };

    let plan = match &flags.plan {
        None => None,
        Some(name) => Some((name.clone(), plan_by_name(name, flags.seed)?)),
    };
    let target = flags.target.unwrap_or(0);

    eprintln!(
        "[tenants: {} tenant(s) over {{{}}} at {}% quota, {} HIR, policy {}, seed {}, \
         {} worker(s){}]",
        flags.tenants,
        pool.join(", "),
        flags.quota,
        flags.hir.label(),
        policy.label(),
        flags.seed,
        flags.workers.max(1),
        match &plan {
            Some((name, _)) => format!(", plan {name} scoped to T{target}"),
            None => String::new(),
        },
    );

    let cfg = bench_config();
    let baseline_opts = MixOptions {
        policy,
        workers: flags.workers,
        ..MixOptions::default()
    };
    let baseline = run_mix(&cfg, &mix, &baseline_opts).map_err(|e| CmdError::Run(e.to_string()))?;

    let mut t = Table::new(
        format!(
            "tenant mix (fingerprint {}, makespan {}, {} rejected, {} delayed)",
            baseline.fingerprint, baseline.makespan, baseline.rejected, baseline.delayed
        )
        .as_str(),
        &[
            "tenant", "app", "quota", "arrival", "admitted", "outcome", "ok", "cycles", "slowdown",
        ],
    );
    for row in &baseline.tenants {
        t.row(vec![
            row.tenant.to_string(),
            row.app.clone(),
            row.quota_pages.to_string(),
            row.arrival.to_string(),
            row.admitted.to_string(),
            row.admission.clone(),
            if row.ok {
                "yes".into()
            } else {
                format!("no: {}", row.error)
            },
            row.stats.cycles.to_string(),
            f2(row.slowdown()),
        ]);
    }
    t.print();
    println!(
        "fairness: p99 slowdown {}, aggregate throughput {} instr/kcycle",
        f2(baseline.p99_slowdown()),
        f2(baseline.throughput()),
    );
    save_json("tenant-mix", &baseline);

    let Some((plan_name, plan)) = plan else {
        return Ok(());
    };
    if !mix.tenants.iter().any(|t| t.id == target) {
        return Err(CmdError::Usage(format!(
            "--target {target} is not part of the mix (tenants 0..{})",
            flags.tenants
        )));
    }
    let faulted_opts = MixOptions {
        policy,
        plan: Some(plan),
        plan_name: plan_name.clone(),
        fault_tenant: Some(target),
        workers: flags.workers,
    };
    let faulted = run_mix(&cfg, &mix, &faulted_opts).map_err(|e| CmdError::Run(e.to_string()))?;
    save_json("tenant-mix-faulted", &faulted);
    check_containment(&baseline, &faulted).map_err(CmdError::Run)?;
    let degraded = faulted
        .tenants
        .iter()
        .find(|r| r.tenant.0 == target)
        .map(|r| {
            let clean = baseline
                .tenants
                .iter()
                .find(|b| b.tenant.0 == target)
                .map(|b| b.stats.cycles)
                .unwrap_or(0);
            (r.stats.cycles, clean)
        });
    match degraded {
        Some((chaos, clean)) if chaos != clean => println!(
            "containment verified: {plan_name} scoped to T{target} ({clean} -> {chaos} \
             cycles); every other tenant byte-identical to the fault-free mix"
        ),
        _ => println!(
            "containment verified: every non-target tenant byte-identical to the \
             fault-free mix ({plan_name} left T{target} unperturbed this seed)"
        ),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let outcome = match cmd.as_str() {
        "campaign" => cmd_campaign(&flags),
        "livelock" => cmd_livelock(&flags),
        "resume" => cmd_resume(&flags),
        "smoke" => cmd_smoke(&flags),
        "sanitize" => cmd_sanitize(&flags),
        "profile" => cmd_profile(&flags),
        "explore" => cmd_explore(&flags),
        "replay" => cmd_replay(&flags),
        "tenants" => cmd_tenants(&flags),
        _ => {
            eprintln!("error: unknown command '{cmd}'");
            return usage();
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
        Err(CmdError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
