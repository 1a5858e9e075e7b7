//! The pinned perf trajectory: `BENCH_*.json` snapshots and the
//! tolerance-based regression gate.
//!
//! Each snapshot records two kinds of numbers:
//!
//! * **Simulation metrics** — per-policy geomean slowdowns versus the
//!   offline Ideal (Belady-MIN) policy at both studied oversubscription
//!   rates, over the full 23-app grid. These are *deterministic*: any
//!   drift between snapshots means simulator or policy behavior changed,
//!   so the gate's tolerance is tight ([`SIM_TOLERANCE`]).
//! * **Wall-clocks** — median ns per run of pinned hot-path routines,
//!   measured with [`uvm_util::bench::Criterion::measure`]. These are
//!   noisy on shared CI hardware, so the tolerance is loose
//!   ([`WALL_TOLERANCE`]) and the gate is env-gated in `verify.sh`
//!   (`CHECK_BENCH=1`), like `CHECK_FIGURES`.
//!
//! Snapshots live in-repo under `benchmarks/BENCH_NNNN.json`, one per
//! PR (`hpe-lab bench-snapshot`); the gate (`hpe-lab bench-check`)
//! compares a fresh collection against the highest-numbered snapshot and
//! exits 0 (pass, warnings allowed), 1 (regression) or 2 (usage/IO) —
//! the same convention as `hpe-chaos` and `hpe-lint`.

use std::fs;
use std::path::{Path, PathBuf};

use uvm_types::Oversubscription;
use uvm_util::{FromJson, Json};
use uvm_workloads::registry;

use crate::pool::PoolOptions;
use crate::report::geomean;
use crate::runner::{run_policy, PolicyKind};
use crate::{bench_config, campaign};

/// Version tag of the `BENCH_*.json` schema.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Seed recorded in (and used to collect) every snapshot, so two
/// snapshots are comparable by construction.
pub const BENCH_SEED: u64 = 2019;

/// Gate tolerance for the deterministic simulation metrics: fractional
/// increase over baseline at which the verdict turns Warn / Fail.
pub const SIM_TOLERANCE: Tolerance = Tolerance {
    warn: 0.005,
    fail: 0.02,
};

/// Gate tolerance for wall-clock metrics (noisy on shared hardware).
pub const WALL_TOLERANCE: Tolerance = Tolerance {
    warn: 0.50,
    fail: 3.0,
};

/// One policy's geomean slowdowns versus Ideal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PolicyPerf {
    /// Policy label ("LRU", "HPE", …).
    pub policy: String,
    /// Geomean of `cycles(policy) / cycles(Ideal)` over the app set at
    /// 75% oversubscription.
    pub slowdown_75: f64,
    /// Same at 50% oversubscription.
    pub slowdown_50: f64,
}

uvm_util::impl_json_struct!(PolicyPerf {
    policy = String::new(),
    slowdown_75 = 0.0,
    slowdown_50 = 0.0,
});

/// One pinned hot-path wall-clock measurement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WallClock {
    /// Routine name ("run/STN/HPE/75%", …).
    pub name: String,
    /// Median nanoseconds per run.
    pub median_ns: f64,
}

uvm_util::impl_json_struct!(WallClock {
    name = String::new(),
    median_ns = 0.0,
});

/// One point of the perf trajectory: the `BENCH_NNNN.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSnapshot {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Snapshot id ("BENCH_0001").
    pub id: String,
    /// Collection seed.
    pub seed: u64,
    /// Application abbreviations the slowdowns are geomeaned over.
    pub apps: Vec<String>,
    /// Per-policy geomean slowdowns versus Ideal.
    pub policies: Vec<PolicyPerf>,
    /// Pinned hot-path wall-clocks.
    pub wall_clocks: Vec<WallClock>,
}

uvm_util::impl_json_struct!(BenchSnapshot {
    schema = 0,
    id = String::new(),
    seed = 0,
    apps = Vec::new(),
    policies = Vec::new(),
    wall_clocks = Vec::new(),
});

impl BenchSnapshot {
    /// Structural validation beyond JSON well-formedness: schema version,
    /// id shape, non-empty metric sets, finite positive numbers.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema {} (expected {BENCH_SCHEMA_VERSION})",
                self.schema
            ));
        }
        if !self.id.starts_with("BENCH_") {
            return Err(format!("id '{}' does not start with BENCH_", self.id));
        }
        if self.apps.is_empty() {
            return Err("empty app set".into());
        }
        if self.policies.is_empty() {
            return Err("empty policy set".into());
        }
        for p in &self.policies {
            for (rate, v) in [("75%", p.slowdown_75), ("50%", p.slowdown_50)] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "policy {} slowdown at {rate} is {v} (must be finite and positive)",
                        p.policy
                    ));
                }
            }
        }
        for w in &self.wall_clocks {
            if !w.median_ns.is_finite() || w.median_ns <= 0.0 {
                return Err(format!(
                    "wall-clock {} is {} ns (must be finite and positive)",
                    w.name, w.median_ns
                ));
            }
        }
        Ok(())
    }

    /// Parses and validates a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse or validation failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        let value = Json::parse(text).map_err(|e| e.to_string())?;
        let snap = BenchSnapshot::from_json(&value).map_err(|e| e.to_string())?;
        snap.validate()?;
        Ok(snap)
    }

    /// Loads and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O, parse or validation failure.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The repo directory holding the pinned perf trajectory
/// (`benchmarks/`), created on first use.
pub fn bench_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Numbered `BENCH_NNNN.json` files in `dir`, sorted ascending by N.
fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(num) = name
            .strip_prefix("BENCH_")
            .and_then(|r| r.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            found.push((num, entry.path()));
        }
    }
    found.sort_by_key(|(n, _)| *n);
    found
}

/// The id the next snapshot in `dir` should carry ("BENCH_0001", …).
pub fn next_id(dir: &Path) -> String {
    let next = snapshot_files(dir).last().map_or(1, |(n, _)| n + 1);
    format!("BENCH_{next:04}")
}

/// The highest-numbered snapshot in `dir`, if any.
pub fn latest(dir: &Path) -> Option<PathBuf> {
    snapshot_files(dir).pop().map(|(_, p)| p)
}

/// The policies a snapshot records, versus the Ideal baseline.
fn measured_policies() -> Vec<PolicyKind> {
    PolicyKind::ALL
        .into_iter()
        .filter(|k| *k != PolicyKind::Ideal)
        .collect()
}

/// Collects a fresh snapshot: the clean full-grid campaign for the
/// simulation metrics (run on `workers` threads), plus the pinned
/// wall-clock measurements.
///
/// # Errors
///
/// Returns a description of the failure if the campaign cannot run or
/// any grid cell fails.
pub fn collect(id: &str, workers: usize) -> Result<BenchSnapshot, String> {
    let cfg = bench_config();
    let apps: Vec<String> = registry::all()
        .iter()
        .map(|a| a.abbr().to_string())
        .collect();
    let spec = campaign::CampaignSpec::clean_grid(apps.clone(), BENCH_SEED);
    let pool = PoolOptions {
        workers,
        ..PoolOptions::default()
    };
    let outcome = campaign::run_campaign(&cfg, &spec, &pool, None)
        .map_err(|e| format!("bench campaign: {e}"))?;
    let report = outcome
        .report()
        .map_err(|e| format!("bench campaign: {e}"))?;
    if let Some(bad) = report.runs.iter().find(|r| !r.ok) {
        return Err(format!(
            "bench campaign cell {} failed: {}",
            bad.key, bad.error
        ));
    }

    let mut policies = Vec::new();
    for kind in measured_policies() {
        let slow = ["75%", "50%"].map(|rate| report.slowdowns_vs_ideal(&apps, kind, rate));
        policies.push(PolicyPerf {
            policy: kind.label().to_string(),
            slowdown_75: geomean(&slow[0]),
            slowdown_50: geomean(&slow[1]),
        });
    }

    let mut crit = uvm_util::bench::Criterion::default();
    let mut wall_clocks = Vec::new();
    for (name, app, kind) in [
        ("run/STN/HPE/75%", "STN", PolicyKind::Hpe),
        ("run/STN/LRU/75%", "STN", PolicyKind::Lru),
        ("run/SGM/HPE/75%", "SGM", PolicyKind::Hpe),
        ("run/HSD/RRIP/75%", "HSD", PolicyKind::Rrip),
    ] {
        // lint:allow(panic-reachability) — a broken pin must abort the sweep
        let app = registry::by_abbr(app).expect("pinned app is registered");
        let m = crit.measure(|| {
            // lint:allow(panic-reachability) — a broken pin must abort the sweep
            run_policy(&cfg, app, Oversubscription::Rate75, kind).expect("pinned run completes")
        });
        wall_clocks.push(WallClock {
            name: name.to_string(),
            median_ns: m.median_ns(),
        });
    }

    Ok(BenchSnapshot {
        schema: BENCH_SCHEMA_VERSION,
        id: id.to_string(),
        seed: BENCH_SEED,
        apps,
        policies,
        wall_clocks,
    })
}

// ---------------------------------------------------------------------------
// Tolerance gate
// ---------------------------------------------------------------------------

/// Fractional-increase thresholds of the regression gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Increase over baseline above which the verdict is Warn.
    pub warn: f64,
    /// Increase over baseline above which the verdict is Fail.
    pub fail: f64,
}

/// Outcome of one metric comparison (ordered: Pass < Warn < Fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the warn tolerance (improvements always pass).
    Pass,
    /// Between the warn and fail tolerances.
    Warn,
    /// Above the fail tolerance, or the metric disappeared.
    Fail,
}

impl Verdict {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        }
    }
}

/// Classifies `current` against `baseline` under `tol`.
///
/// The ratio `current / baseline` passes up to `1 + warn`, warns up to
/// `1 + fail`, and fails above. A non-positive or non-finite baseline or
/// current value fails outright (validation should have caught it).
pub fn verdict(current: f64, baseline: f64, tol: Tolerance) -> Verdict {
    if !baseline.is_finite() || baseline <= 0.0 || !current.is_finite() || current <= 0.0 {
        return Verdict::Fail;
    }
    let ratio = current / baseline;
    if ratio <= 1.0 + tol.warn {
        Verdict::Pass
    } else if ratio <= 1.0 + tol.fail {
        Verdict::Warn
    } else {
        Verdict::Fail
    }
}

/// One row of a snapshot comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Metric name ("slowdown75/LRU", "wall/run/STN/HPE/75%", …).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// The verdict under the metric's tolerance.
    pub verdict: Verdict,
}

impl CompareRow {
    /// `current / baseline` (inf when the baseline is 0).
    pub fn ratio(&self) -> f64 {
        self.current / self.baseline
    }
}

/// Compares a fresh collection against a baseline snapshot, metric by
/// metric. A metric present in the baseline but missing from `current`
/// fails (a silently dropped measurement must not pass the gate);
/// metrics new in `current` are ignored so the schema can grow.
pub fn compare(current: &BenchSnapshot, baseline: &BenchSnapshot) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for base in &baseline.policies {
        let cur = current.policies.iter().find(|p| p.policy == base.policy);
        for (tag, get) in [
            (
                "slowdown75",
                &(|p: &PolicyPerf| p.slowdown_75) as &dyn Fn(&PolicyPerf) -> f64,
            ),
            ("slowdown50", &|p: &PolicyPerf| p.slowdown_50),
        ] {
            let metric = format!("{tag}/{}", base.policy);
            match cur {
                Some(cur) => rows.push(CompareRow {
                    metric,
                    baseline: get(base),
                    current: get(cur),
                    verdict: verdict(get(cur), get(base), SIM_TOLERANCE),
                }),
                None => rows.push(CompareRow {
                    metric,
                    baseline: get(base),
                    current: f64::NAN,
                    verdict: Verdict::Fail,
                }),
            }
        }
    }
    for base in &baseline.wall_clocks {
        let metric = format!("wall/{}", base.name);
        match current.wall_clocks.iter().find(|w| w.name == base.name) {
            Some(cur) => rows.push(CompareRow {
                metric,
                baseline: base.median_ns,
                current: cur.median_ns,
                verdict: verdict(cur.median_ns, base.median_ns, WALL_TOLERANCE),
            }),
            None => rows.push(CompareRow {
                metric,
                baseline: base.median_ns,
                current: f64::NAN,
                verdict: Verdict::Fail,
            }),
        }
    }
    rows
}

/// The worst verdict of a comparison (Pass for an empty one).
pub fn worst(rows: &[CompareRow]) -> Verdict {
    rows.iter()
        .map(|r| r.verdict)
        .max()
        .unwrap_or(Verdict::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_number_from_existing_files() {
        let dir = std::env::temp_dir().join(format!("hpe-perf-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_id(&dir), "BENCH_0001");
        assert!(latest(&dir).is_none());
        fs::write(dir.join("BENCH_0001.json"), "{}").unwrap();
        fs::write(dir.join("BENCH_0003.json"), "{}").unwrap();
        fs::write(dir.join("not-a-snapshot.json"), "{}").unwrap();
        assert_eq!(next_id(&dir), "BENCH_0004");
        assert!(latest(&dir).unwrap().ends_with("BENCH_0003.json"));
        let _ = fs::remove_dir_all(&dir);
    }
}
