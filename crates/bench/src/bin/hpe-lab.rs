//! `hpe-lab` — command-line front end for the HPE reproduction stack.
//!
//! ```text
//! hpe-lab list
//! hpe-lab run <APP> [--policy lru|random|lfu|rrip|clockpro|ideal|hpe]
//!                   [--rate 75|50|<percent>] [--json]
//! hpe-lab compare <APP> [--rate ...]        # all policies side by side
//! hpe-lab sweep <APP> [--policy ...]        # capacity sweep 95%..40%
//! hpe-lab profile <APP>                     # access-pattern profile
//! hpe-lab campaign [APP ...] [--workers N] [--chaos] [--progress FILE]
//!                  [--snapshot FILE [--resume]]   # parallel grid sweep
//! hpe-lab bench-snapshot [--workers N]      # record the next BENCH_*.json
//! hpe-lab bench-check [--workers N]         # regression gate vs the last one
//! hpe-lab fairness [--workers N] [--seed N] # per-tenant vs shared HIR:
//!                                           # fairness-vs-throughput grid
//! ```
//!
//! Run via `cargo run --release -p hpe-bench --bin hpe-lab -- <args>`.
//!
//! Exit codes: 0 success, 1 a run failed or the bench gate found a
//! regression, 2 usage error — the same convention as `hpe-chaos` and
//! `hpe-lint`.

use std::fs;
use std::path::PathBuf;

use hpe_bench::{
    bench_config, campaign, f2, f3, fairness_grid, geomean, perf, run_policy, save_json,
    PolicyKind, PoolOptions, Table,
};
use uvm_types::Oversubscription;
use uvm_util::{json, Json, ToJson};
use uvm_workloads::registry;

/// A paper rate (`75`, `50`, with or without `%`), else a custom
/// percentage in `(0, 100]`.
fn parse_rate(s: &str) -> Result<Oversubscription, String> {
    if let Some(rate) = Oversubscription::parse(s) {
        return Ok(rate);
    }
    let pct: f64 = s
        .trim_end_matches('%')
        .parse()
        .map_err(|_| format!("bad rate {s:?}"))?;
    if !(0.0..=100.0).contains(&pct) || pct == 0.0 {
        return Err(format!("rate {pct} out of range (0, 100]"));
    }
    Ok(Oversubscription::Custom(pct / 100.0))
}

struct Opts {
    policy: PolicyKind,
    rate: Oversubscription,
    json: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        policy: PolicyKind::Hpe,
        rate: Oversubscription::Rate75,
        json: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                opts.policy = PolicyKind::parse(v)
                    .ok_or_else(|| format!("unknown policy {:?}", v.to_ascii_lowercase()))?;
            }
            "--rate" => {
                let v = it.next().ok_or("--rate needs a value")?;
                opts.rate = parse_rate(v)?;
            }
            "--json" => opts.json = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn cmd_list() {
    let mut t = Table::new(
        "registered applications",
        &["abbr", "name", "suite", "type", "pages"],
    );
    for app in registry::all() {
        t.row(vec![
            app.abbr().to_string(),
            app.name().to_string(),
            app.suite().to_string(),
            app.pattern().roman().to_string(),
            app.footprint_pages().to_string(),
        ]);
    }
    t.print();
}

fn cmd_run(abbr: &str, opts: &Opts) -> Result<(), CliError> {
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app {abbr:?}")))?;
    let cfg = bench_config();
    let r = run_policy(&cfg, app, opts.rate, opts.policy)
        .map_err(|e| CliError::Run(format!("{abbr} run failed: {e}")))?;
    if opts.json {
        let mut v = json!({
            "app": r.app,
            "policy": r.policy,
            "rate": r.rate.label(),
            "faults": r.stats.faults(),
            "evictions": r.stats.evictions(),
            "cycles": r.stats.cycles,
            "ipc": r.stats.ipc(),
            "driver_core_load": r.stats.driver.core_load(r.stats.cycles),
        });
        if let Some(h) = &r.hpe {
            v["hpe"] = json!({
                "category": h.classification.map(|c| c.category.to_string()),
                "ratio1": h.classification.map(|c| c.ratio1),
                "ratio2": h.classification.map(|c| c.ratio2),
                "divided_sets": h.divided_sets,
                "strategy_switches": h.timeline.len() - 1,
            });
        }
        println!("{}", v.pretty());
    } else {
        println!(
            "{} under {} at {}: {} faults, {} evictions, {} cycles, IPC {:.5}",
            r.app,
            r.policy,
            r.rate.label(),
            r.stats.faults(),
            r.stats.evictions(),
            r.stats.cycles,
            r.stats.ipc()
        );
        if let Some(h) = &r.hpe {
            if let Some(c) = h.classification {
                println!(
                    "  classified {} (ratio1 {:.2}, ratio2 {:.2}); {} divided sets",
                    c.category, c.ratio1, c.ratio2, h.divided_sets
                );
            }
        }
    }
    Ok(())
}

fn cmd_compare(abbr: &str, opts: &Opts) -> Result<(), CliError> {
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app {abbr:?}")))?;
    let cfg = bench_config();
    let mut t = Table::new(
        format!("{abbr} at {}", opts.rate.label()),
        &["policy", "faults", "evictions", "cycles", "IPC"],
    );
    for kind in PolicyKind::ALL {
        let r = run_policy(&cfg, app, opts.rate, kind)
            .map_err(|e| CliError::Run(format!("{abbr}/{} run failed: {e}", kind.label())))?;
        t.row(vec![
            r.policy.to_string(),
            r.stats.faults().to_string(),
            r.stats.evictions().to_string(),
            r.stats.cycles.to_string(),
            format!("{:.5}", r.stats.ipc()),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_sweep(abbr: &str, opts: &Opts) -> Result<(), CliError> {
    let app =
        registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app {abbr:?}")))?;
    let cfg = bench_config();
    let mut t = Table::new(
        format!("{abbr} capacity sweep under {}", opts.policy.label()),
        &["memory", "capacity(pages)", "faults", "evictions", "IPC"],
    );
    for pct in [95, 90, 85, 75, 60, 50, 40] {
        let rate = Oversubscription::Custom(pct as f64 / 100.0);
        let r = run_policy(&cfg, app, rate, opts.policy)
            .map_err(|e| CliError::Run(format!("{abbr} at {pct}% failed: {e}")))?;
        t.row(vec![
            format!("{pct}%"),
            rate.capacity_pages(app.footprint_pages()).to_string(),
            r.stats.faults().to_string(),
            r.stats.evictions().to_string(),
            format!("{:.5}", r.stats.ipc()),
        ]);
    }
    t.print();
    Ok(())
}

fn cmd_profile(abbr: &str) -> Result<(), String> {
    use uvm_workloads::analysis;
    let app = registry::by_abbr(abbr).ok_or_else(|| format!("unknown app {abbr:?}"))?;
    let seq = app.global_sequence();
    let p = analysis::profile(&seq);
    println!("{app} ({}):", app.pattern());
    println!("  references        {}", p.refs);
    println!("  distinct pages    {}", p.distinct);
    println!("  compulsory        {:.0}%", 100.0 * p.compulsory_fraction);
    println!(
        "  median reuse      {}",
        p.median_reuse.map_or("-".to_string(), |d| d.to_string())
    );
    println!(
        "  p90 reuse         {}",
        p.p90_reuse.map_or("-".to_string(), |d| d.to_string())
    );
    println!("  max refs/page     {}", p.max_refs_per_page);
    Ok(())
}

/// Flags of the `campaign` subcommand.
struct CampaignOpts {
    apps: Vec<String>,
    workers: usize,
    seed: u64,
    chaos: bool,
    rate: Option<Oversubscription>,
    progress: Option<PathBuf>,
    snapshot: Option<PathBuf>,
    snapshot_every: Option<usize>,
    resume: bool,
    limit: Option<usize>,
}

fn parse_campaign_opts(args: &[String]) -> Result<CampaignOpts, String> {
    let mut opts = CampaignOpts {
        apps: Vec::new(),
        workers: 1,
        seed: 2019,
        chaos: false,
        rate: None,
        progress: None,
        snapshot: None,
        snapshot_every: None,
        resume: false,
        limit: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--chaos" => opts.chaos = true,
            "--rate" => {
                let v = value("--rate")?;
                if v == "both" {
                    opts.rate = None;
                } else {
                    opts.rate = Some(parse_rate(&v)?);
                }
            }
            "--progress" => opts.progress = Some(PathBuf::from(value("--progress")?)),
            "--snapshot" => opts.snapshot = Some(PathBuf::from(value("--snapshot")?)),
            "--snapshot-every" => {
                let v = value("--snapshot-every")?;
                opts.snapshot_every = Some(
                    v.parse()
                        .map_err(|_| format!("bad --snapshot-every {v:?}"))?,
                );
            }
            "--resume" => opts.resume = true,
            "--limit" => {
                let v = value("--limit")?;
                opts.limit = Some(v.parse().map_err(|_| format!("bad --limit {v:?}"))?);
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other:?}")),
            other => opts.apps.push(other.to_string()),
        }
    }
    if opts.snapshot.is_none() && (opts.resume || opts.snapshot_every.is_some()) {
        return Err("--resume and --snapshot-every need --snapshot FILE".to_string());
    }
    Ok(opts)
}

/// `campaign`: run a (sub)grid on the parallel engine and summarize the
/// deterministically merged report.
fn cmd_campaign(opts: &CampaignOpts) -> Result<(), CliError> {
    let apps: Vec<String> = if opts.apps.is_empty() {
        registry::all()
            .iter()
            .map(|a| a.abbr().to_string())
            .collect()
    } else {
        opts.apps.clone()
    };
    let mut spec = campaign::CampaignSpec::clean_grid(apps, opts.seed);
    if opts.chaos {
        spec.plans = campaign::chaos_plan_set(opts.seed);
    }
    if let Some(rate) = opts.rate {
        spec.rates = vec![rate];
    }
    let pool = PoolOptions {
        workers: opts.workers,
        shuffle: None,
        snapshot_path: opts.snapshot.clone(),
        snapshot_every: opts.snapshot_every.unwrap_or(0),
        resume: opts.resume,
        limit: opts.limit,
    };
    eprintln!(
        "[campaign: {} apps x {} policies x {} rates x {} plans = {} cells, {} worker(s), seed {}]",
        spec.apps.len(),
        spec.policies.len(),
        spec.rates.len(),
        spec.plans.len(),
        spec.grid_len(),
        pool.workers.max(1),
        spec.seed,
    );

    let mut progress_file = match &opts.progress {
        Some(path) => {
            Some(fs::File::create(path).map_err(|e| CliError::Usage(format!("--progress: {e}")))?)
        }
        None => None,
    };
    let progress = progress_file.as_mut().map(|f| f as &mut dyn std::io::Write);

    let outcome = campaign::run_campaign(&bench_config(), &spec, &pool, progress)
        .map_err(|e| CliError::Run(e.to_string()))?;
    if !outcome.is_complete() {
        println!(
            "campaign stopped at --limit: {}/{} cells done ({} resumed, {} executed); {}",
            outcome.runs.len(),
            outcome.total,
            outcome.resumed,
            outcome.executed,
            if opts.snapshot.is_some() {
                "snapshot holds the completed cells"
            } else {
                "no --snapshot given, so the completed cells were not saved"
            }
        );
        return Ok(());
    }
    let report = outcome.report().map_err(|e| CliError::Run(e.to_string()))?;

    // Per (policy, rate): totals and, where the clean Ideal run exists,
    // the geomean slowdown versus Ideal.
    let mut t = Table::new(
        format!(
            "campaign ({} cells, fingerprint {})",
            report.runs.len(),
            report.fingerprint
        ),
        &[
            "policy",
            "rate",
            "runs",
            "failed",
            "faults",
            "slowdown-vs-ideal",
        ],
    );
    for &policy in &spec.policies {
        for &rate in &spec.rates {
            let rate_label = rate.label();
            let rows: Vec<_> = report
                .runs
                .iter()
                .filter(|r| r.policy == policy.label() && r.rate == rate_label)
                .collect();
            let failed = rows.iter().filter(|r| !r.ok).count();
            let faults: u64 = rows.iter().map(|r| r.stats.faults()).sum();
            let slowdowns = report.slowdowns_vs_ideal(&spec.apps, policy, &rate_label);
            t.row(vec![
                policy.label().to_string(),
                rate_label,
                rows.len().to_string(),
                failed.to_string(),
                faults.to_string(),
                if slowdowns.is_empty() {
                    "-".to_string()
                } else {
                    f3(geomean(&slowdowns))
                },
            ]);
        }
    }
    t.print();
    let totals = report.totals();
    println!(
        "merged: {} runs ({} resumed from snapshot), {} failed, {} faults, {} evictions",
        totals.runs, outcome.resumed, totals.failed, totals.faults, totals.evictions
    );
    save_json("campaign", &report.to_json());
    if totals.failed > 0 {
        return Err(CliError::Run(format!(
            "{} campaign cell(s) failed; see the merged report",
            totals.failed
        )));
    }
    Ok(())
}

/// Flags shared by `bench-snapshot` / `bench-check` / `fairness`.
struct BenchOpts {
    workers: usize,
    dir: PathBuf,
    seed: u64,
}

fn parse_bench_opts(args: &[String]) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts {
        workers: 1,
        dir: perf::bench_dir(),
        seed: 2019,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--dir" => opts.dir = PathBuf::from(value("--dir")?),
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn print_snapshot(snap: &perf::BenchSnapshot) {
    let mut t = Table::new(
        format!("{} (seed {}, {} apps)", snap.id, snap.seed, snap.apps.len()),
        &["policy", "slowdown@75%", "slowdown@50%"],
    );
    for p in &snap.policies {
        t.row(vec![p.policy.clone(), f3(p.slowdown_75), f3(p.slowdown_50)]);
    }
    t.print();
    let mut w = Table::new("wall-clocks", &["routine", "median"]);
    for wc in &snap.wall_clocks {
        w.row(vec![
            wc.name.clone(),
            format!("{:.3} ms", wc.median_ns / 1e6),
        ]);
    }
    w.print();
}

/// `bench-snapshot`: collect and record the next `BENCH_NNNN.json`.
fn cmd_bench_snapshot(opts: &BenchOpts) -> Result<(), CliError> {
    fs::create_dir_all(&opts.dir).map_err(|e| CliError::Run(e.to_string()))?;
    let id = perf::next_id(&opts.dir);
    eprintln!("[collecting {} over the clean full grid ...]", id);
    let snap = perf::collect(&id, opts.workers).map_err(CliError::Run)?;
    snap.validate().map_err(CliError::Run)?;
    let path = opts.dir.join(format!("{id}.json"));
    fs::write(&path, snap.to_json().pretty()).map_err(|e| CliError::Run(e.to_string()))?;
    print_snapshot(&snap);
    println!("[saved {}]", path.display());
    Ok(())
}

/// `bench-check`: the regression gate — collect fresh numbers and compare
/// them against the highest-numbered snapshot under tolerance.
fn cmd_bench_check(opts: &BenchOpts) -> Result<(), CliError> {
    let Some(baseline_path) = perf::latest(&opts.dir) else {
        return Err(CliError::Usage(format!(
            "no BENCH_*.json under {} — record one with `hpe-lab bench-snapshot`",
            opts.dir.display()
        )));
    };
    let baseline = perf::BenchSnapshot::load(&baseline_path).map_err(CliError::Run)?;
    eprintln!(
        "[bench gate: current run vs {} ({})]",
        baseline.id,
        baseline_path.display()
    );
    let current = perf::collect("BENCH_current", opts.workers).map_err(CliError::Run)?;
    let rows = perf::compare(&current, &baseline);
    let mut t = Table::new(
        format!("bench gate vs {}", baseline.id),
        &["metric", "baseline", "current", "ratio", "verdict"],
    );
    for r in &rows {
        let fmt = |v: f64| {
            if r.metric.starts_with("wall/") {
                format!("{:.3} ms", v / 1e6)
            } else {
                f3(v)
            }
        };
        t.row(vec![
            r.metric.clone(),
            fmt(r.baseline),
            fmt(r.current),
            f2(r.ratio()),
            r.verdict.label().to_string(),
        ]);
    }
    t.print();
    match perf::worst(&rows) {
        perf::Verdict::Pass => {
            println!("bench gate: pass ({} metrics)", rows.len());
            Ok(())
        }
        perf::Verdict::Warn => {
            println!(
                "bench gate: pass with warnings ({} warn of {} metrics)",
                rows.iter()
                    .filter(|r| r.verdict == perf::Verdict::Warn)
                    .count(),
                rows.len()
            );
            Ok(())
        }
        perf::Verdict::Fail => Err(CliError::Run(format!(
            "bench gate: REGRESSION — {} metric(s) over the fail tolerance vs {}",
            rows.iter()
                .filter(|r| r.verdict == perf::Verdict::Fail)
                .count(),
            baseline.id
        ))),
    }
}

/// The fairness grid's app mixes: a heterogeneous trio, a homogeneous
/// mix, and a larger skewed mix anchored by GEM (the largest-footprint
/// app, hence the most HIR-sensitive tenant in the grid) arriving
/// last, where lease concurrency divides the shared HIR deepest.
const FAIRNESS_MIXES: [&[&str]; 3] = [
    &["STN", "MVT", "CUT"],
    &["STN", "STN", "STN"],
    &["MVT", "CUT", "STN", "GEM"],
];

/// Quota percentages the fairness grid sweeps (per-tenant residency as a
/// fraction of footprint — the mix-level oversubscription knob).
const FAIRNESS_QUOTAS: [u64; 2] = [50, 75];

/// `fairness`: the per-tenant vs shared HIR trade-off table — p99
/// per-tenant slowdown against aggregate throughput over several app
/// mixes and quota rates (the data behind the EXPERIMENTS.md fairness
/// table).
fn cmd_fairness(opts: &BenchOpts) -> Result<(), CliError> {
    let mixes: Vec<Vec<&str>> = FAIRNESS_MIXES.iter().map(|m| m.to_vec()).collect();
    eprintln!(
        "[fairness grid: {} mixes x {} quotas x 2 HIR modes, seed {}, {} worker(s)]",
        mixes.len(),
        FAIRNESS_QUOTAS.len(),
        opts.seed,
        opts.workers.max(1),
    );
    let rows = fairness_grid(
        &bench_config(),
        &mixes,
        &FAIRNESS_QUOTAS,
        opts.seed,
        opts.workers,
    )
    .map_err(|e| CliError::Run(e.to_string()))?;
    let mut t = Table::new(
        "fairness vs throughput (HPE, fault-free mixes)",
        &[
            "mix",
            "quota",
            "hir",
            "p99-slowdown",
            "hir-impact",
            "throughput",
            "rejected",
            "delayed",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.mix.clone(),
            format!("{}%", r.quota_pct),
            r.hir_mode.clone(),
            f2(r.p99_slowdown),
            f3(r.hir_impact),
            f2(r.throughput),
            r.rejected.to_string(),
            r.delayed.to_string(),
        ]);
    }
    t.print();
    let json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            json!({
                "mix": r.mix.as_str(),
                "quota_pct": r.quota_pct,
                "hir_mode": r.hir_mode.as_str(),
                "p99_slowdown": r.p99_slowdown,
                "hir_impact": r.hir_impact,
                "throughput": r.throughput,
                "rejected": r.rejected,
                "delayed": r.delayed,
            })
        })
        .collect();
    save_json("tenant-fairness", &json_rows.to_json());
    Ok(())
}

/// How a command failed, mapped onto the process exit code (1 run
/// failure / regression, 2 usage).
enum CliError {
    Usage(String),
    Run(String),
}

fn usage() -> String {
    "usage: hpe-lab <list|run|compare|sweep|profile|campaign|bench-snapshot|bench-check|fairness> \
     [APP ...] [options]\n\
     exit codes: 0 ok, 1 run failure or regression, 2 usage error"
        .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<(), CliError> = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "list" => {
                cmd_list();
                Ok(())
            }
            "profile" => match rest.first() {
                Some(abbr) => cmd_profile(abbr).map_err(CliError::Usage),
                None => Err(CliError::Usage(
                    "profile needs an application abbreviation".to_string(),
                )),
            },
            "run" | "compare" | "sweep" => match rest.split_first() {
                Some((abbr, flags)) => {
                    parse_opts(flags)
                        .map_err(CliError::Usage)
                        .and_then(|opts| match cmd.as_str() {
                            "run" => cmd_run(abbr, &opts),
                            "compare" => cmd_compare(abbr, &opts),
                            _ => cmd_sweep(abbr, &opts),
                        })
                }
                None => Err(CliError::Usage(format!(
                    "{cmd} needs an application abbreviation"
                ))),
            },
            "campaign" => parse_campaign_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_campaign(&opts)),
            "bench-snapshot" => parse_bench_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_bench_snapshot(&opts)),
            "bench-check" => parse_bench_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_bench_check(&opts)),
            "fairness" => parse_bench_opts(rest)
                .map_err(CliError::Usage)
                .and_then(|opts| cmd_fairness(&opts)),
            other => Err(CliError::Usage(format!("unknown command {other:?}"))),
        },
        None => Err(CliError::Usage(usage())),
    };
    match result {
        Ok(()) => {}
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            std::process::exit(2);
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
