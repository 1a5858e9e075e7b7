//! One pass over a workload's cells: on the campaign worker pool, or
//! serially layer by layer.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hpe_bench::perf::{self, BenchSnapshot, SIM_TOLERANCE};
use hpe_bench::{geomean, run_campaign, CampaignReport, CampaignSpec, PolicyKind, PoolOptions};
use uvm_types::{Oversubscription, SimConfig, SimStats};
use uvm_util::Json;
use uvm_workloads::Trace;

use crate::cell::{ns_since, run_cell, CellTimes};
use crate::workload::{Cell, Input};

/// Progress sink of the campaign pool: stamps each completed cell's
/// arrival at the collector.
struct Arrivals {
    start: Instant,
    line: Vec<u8>,
    /// `(grid index, ns since pool start)` in arrival order.
    seen: Vec<(usize, u64)>,
}

impl io::Write for Arrivals {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            if b != b'\n' {
                self.line.push(b);
                continue;
            }
            let at = ns_since(self.start);
            let index = std::str::from_utf8(&self.line)
                .ok()
                .and_then(|text| Json::parse(text).ok())
                .and_then(|v| v["index"].as_u64())
                .ok_or_else(|| io::Error::other("malformed progress line"))?;
            self.seen.push((index as usize, at));
            self.line.clear();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A campaign pass: the merged report, its wall time, and each cell's
/// busy time.
pub struct PoolPass {
    /// The merged report.
    pub report: CampaignReport,
    /// Host nanoseconds of the whole `run_campaign` call.
    pub wall_ns: u64,
    /// Host nanoseconds each cell occupied a worker, by grid index.
    pub cell_ns: Vec<u64>,
}

impl PoolPass {
    /// Share of worker time spent idle (spawn, join, and the drain at the
    /// end of the queue).
    pub fn idle_frac(&self, workers: usize) -> f64 {
        let busy: u64 = self.cell_ns.iter().sum();
        1.0 - busy as f64 / (workers as f64 * self.wall_ns as f64)
    }
}

/// Runs `spec` on `workers` pool threads.
///
/// Cell busy times are reconstructed from the progress stream: the pool
/// dispatches cells in grid order from one cursor, so cell `j` starts
/// when the `(j - workers)`-th completion frees a worker (or at pool
/// start for the first `workers` cells) and ends at its own completion.
///
/// # Errors
///
/// Returns a description of a campaign that cannot run or is incomplete.
pub fn pool_pass(cfg: &SimConfig, spec: &CampaignSpec, workers: usize) -> Result<PoolPass, String> {
    let pool = PoolOptions {
        workers,
        ..PoolOptions::default()
    };
    let mut arrivals = Arrivals {
        start: Instant::now(),
        line: Vec::new(),
        seen: Vec::with_capacity(spec.grid_len()),
    };
    let outcome = run_campaign(cfg, spec, &pool, Some(&mut arrivals)).map_err(|e| e.to_string())?;
    let wall_ns = ns_since(arrivals.start);
    let report = outcome.report().map_err(|e| e.to_string())?;
    let n = report.runs.len();
    let mut end = vec![0u64; n];
    for &(index, at) in &arrivals.seen {
        if index < n {
            end[index] = at;
        }
    }
    let cell_ns = (0..n)
        .map(|j| {
            let start = j
                .checked_sub(workers)
                .and_then(|k| arrivals.seen.get(k))
                .map_or(0, |&(_, at)| at);
            end[j].saturating_sub(start)
        })
        .collect();
    Ok(PoolPass {
        report,
        wall_ns,
        cell_ns,
    })
}

/// A serial pass: each cell's statistics (or error) and layer times.
pub struct SerialPass {
    /// Host nanoseconds of the pass.
    pub wall_ns: u64,
    /// Per cell: statistics and layer times, or the error text.
    pub cells: Vec<Result<(SimStats, CellTimes), String>>,
}

impl SerialPass {
    /// Cells that failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().filter(|c| c.is_err()).count() as u64
    }

    /// Per-cell statistics (`None` for failed cells).
    pub fn stats(&self) -> Vec<Option<SimStats>> {
        self.cells
            .iter()
            .map(|c| c.as_ref().ok().map(|(s, _)| s.clone()))
            .collect()
    }
}

/// Runs every cell once, in order, layer by layer, on the inputs'
/// `traces` where set-up built them (else each cell builds its own).
pub fn serial_pass(
    cfg: &SimConfig,
    inputs: &[Input],
    traces: &[Trace],
    cells: &[Cell],
) -> SerialPass {
    let start = Instant::now();
    let results = cells
        .iter()
        .map(|cell| {
            run_cell(cfg, &inputs[cell.input], cell, traces.get(cell.input))
                .map(|(stats, times, _trace)| (stats, times))
                .map_err(|e| e.to_string())
        })
        .collect();
    SerialPass {
        wall_ns: ns_since(start),
        cells: results,
    }
}

/// Per-cell statistics of a campaign report (`None` for failed cells).
pub fn report_stats(report: &CampaignReport) -> Vec<Option<SimStats>> {
    report
        .runs
        .iter()
        .map(|r| r.ok.then(|| r.stats.clone()))
        .collect()
}

/// The first cell whose statistics differ between `a` and `b`, by key.
pub fn first_mismatch(
    inputs: &[Input],
    cells: &[Cell],
    a: &[Option<SimStats>],
    b: &[Option<SimStats>],
) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} cells against {}", a.len(), b.len()));
    }
    cells
        .iter()
        .zip(a.iter().zip(b))
        .find(|(_, (x, y))| x.is_none() || x != y)
        .map(|(cell, _)| cell.key(inputs))
}

/// Geomean slowdown of `policy` versus Ideal at 75% and 50%, over every
/// input with both cells present.
pub fn slowdowns(
    inputs: &[Input],
    cells: &[Cell],
    stats: &[Option<SimStats>],
    policy: PolicyKind,
) -> [f64; 2] {
    let rates = [Oversubscription::Rate75, Oversubscription::Rate50];
    rates.map(|rate| {
        let cycles = |input: usize, kind: PolicyKind| {
            cells
                .iter()
                .zip(stats)
                .find(|(c, _)| c.input == input && c.policy == kind && c.rate == rate)
                .and_then(|(_, s)| s.as_ref())
                .map(|s| s.cycles)
        };
        let ratios: Vec<f64> = (0..inputs.len())
            .filter_map(
                |i| match (cycles(i, policy), cycles(i, PolicyKind::Ideal)) {
                    (Some(p), Some(ideal)) if ideal > 0 => Some(p as f64 / ideal as f64),
                    _ => None,
                },
            )
            .collect();
        geomean(&ratios)
    })
}

/// The repository's pinned perf trajectory directory.
pub fn bench_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks")
}

/// Compares the per-policy slowdowns of a full clean grid against the
/// latest `BENCH_*.json`, within the deterministic-metric tolerance.
///
/// # Errors
///
/// Returns the first slowdown outside tolerance, or why the snapshot
/// cannot be read.
pub fn check_against_snapshot(
    inputs: &[Input],
    cells: &[Cell],
    stats: &[Option<SimStats>],
) -> Result<String, String> {
    let path = perf::latest(&bench_dir()).ok_or("no BENCH_*.json snapshot found")?;
    let snap = BenchSnapshot::load(&path)?;
    let mut compared = 0;
    for pinned in &snap.policies {
        let kind = PolicyKind::parse(&pinned.policy)
            .ok_or_else(|| format!("snapshot policy '{}' is unknown", pinned.policy))?;
        let now = slowdowns(inputs, cells, stats, kind);
        for (rate, (cur, base)) in ["75%", "50%"]
            .iter()
            .zip(now.iter().zip([pinned.slowdown_75, pinned.slowdown_50]))
        {
            if (cur / base - 1.0).abs() > SIM_TOLERANCE.warn {
                return Err(format!(
                    "{} at {rate}: {cur:.6} against {base:.6} in {}",
                    pinned.policy, snap.id
                ));
            }
            compared += 1;
        }
    }
    Ok(format!(
        "{compared} slowdowns equal {} (seed {}) within {}",
        snap.id, snap.seed, SIM_TOLERANCE.warn
    ))
}
