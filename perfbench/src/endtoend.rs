//! The detached run: end-to-end host-time figures of a workload, after
//! checking its outputs.

use std::time::Instant;

use hpe_bench::{run_policy as run_reference, CampaignSpec, PolicyKind};
use uvm_types::{SimConfig, SimStats};
use uvm_workloads::Trace;

use crate::passes::{check_against_snapshot, first_mismatch, pool_pass, report_stats, serial_pass};
use crate::report::{peak_rss_mb, reset_peak_rss, Report};
use crate::stats::{median, percentile, tail_percentile, TAIL_BEYOND};
use crate::workload::{Input, Workload, GRID_WORKERS};
use crate::yardstick::{self, normalize};

/// Times the set-up is repeated; the median is reported.
pub const SETUP_REPS: usize = 25;

/// The generated inputs of a run.
pub struct Setup {
    /// The inputs.
    pub inputs: Vec<Input>,
    /// Their digests.
    pub digests: Vec<u64>,
    /// Their traces, where the workload builds them in set-up (see
    /// [`Workload::prebuilds_traces`]); empty otherwise.
    pub traces: Vec<Trace>,
    /// Host seconds of each generation, the first counted from process
    /// start.
    pub secs: Vec<f64>,
}

/// Generates the inputs [`SETUP_REPS`] times.
///
/// # Errors
///
/// Returns a description of an input that fails to build or of digests
/// that differ between repetitions.
pub fn setup(
    workload: Workload,
    cfg: &SimConfig,
    seed: u64,
    process_start: Instant,
) -> Result<Setup, String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let inputs = workload.inputs(seed)?;
        let traces: Vec<Trace> = if workload.prebuilds_traces() {
            inputs.iter().map(|i| i.trace(cfg)).collect()
        } else {
            Vec::new()
        };
        let digests: Vec<u64> = inputs.iter().map(Input::digest).collect();
        secs.push(start.elapsed().as_secs_f64());
        match &first {
            None => {
                first = Some(Setup {
                    inputs,
                    digests,
                    traces,
                    secs: Vec::new(),
                })
            }
            Some(f) if f.digests != digests || f.traces != traces => {
                return Err(format!("set-up {rep} generated different inputs"));
            }
            Some(_) => {}
        }
    }
    let mut setup = first.ok_or("no set-up ran")?;
    setup.secs = secs;
    Ok(setup)
}

/// Echoes the seed and input digests, and checks seed discipline.
pub fn seed_checks(report: &mut Report, workload: Workload, seed: u64, digests: &[u64]) {
    report.note(format!("seed: {seed} ({})", workload.seed_note()));
    let shown: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    report.note(format!("input digests: {}", shown.join(" ")));
    report.check(
        "same seed, same inputs",
        true,
        format!("{SETUP_REPS} set-ups gave identical digests"),
    );
    if workload == Workload::SynthLarge {
        let other = seed.wrapping_add(1);
        let differ = workload.inputs(other).map(|inputs| {
            inputs
                .iter()
                .zip(digests)
                .all(|(input, d)| input.digest() != *d)
        });
        report.check(
            "other seed, other inputs",
            differ == Ok(true),
            format!("seed {other} changes every synthesized trace digest"),
        );
    }
}

/// One timed pass.
struct Pass {
    /// Per-cell statistics (`None` for failed cells).
    stats: Vec<Option<SimStats>>,
    /// Host ns of the pass.
    wall_ns: u64,
    /// Host ns of each cell.
    cell_ns: Vec<u64>,
    /// Yardstick ns sampled just before the pass.
    yardstick_ns: f64,
    /// Peak resident MiB during the pass.
    rss_mb: f64,
}

/// Runs the workload detached for at least `seconds` and
/// [`Workload::min_passes`] passes, checks its outputs, and reports the
/// end-to-end figures.
pub fn run(
    workload: Workload,
    cfg: &SimConfig,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> Report {
    let mut report = Report::default();
    let Setup {
        inputs,
        digests,
        traces,
        secs: setup_secs,
    } = match setup(workload, cfg, seed, process_start) {
        Ok(s) => s,
        Err(e) => {
            report.check("inputs generate", false, e);
            return report;
        }
    };
    let cells = workload.cells(&inputs);
    let apps: Vec<String> = inputs.iter().map(|i| i.name().to_string()).collect();
    let spec = CampaignSpec::clean_grid(apps, seed);
    if workload == Workload::Grid {
        report.note(format!("campaign fingerprint: {}", spec.fingerprint()));
    }

    let measure_start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let per_pass_rss = reset_peak_rss();
    while passes.len() < workload.min_passes() || measure_start.elapsed().as_secs_f64() < seconds {
        let yardstick_ns = yardstick::sample_ns(workload.threads());
        reset_peak_rss();
        let (stats, wall_ns, cell_ns) = if workload == Workload::Grid {
            match pool_pass(cfg, &spec, GRID_WORKERS) {
                Ok(p) => {
                    errors.extend(
                        p.report
                            .runs
                            .iter()
                            .filter(|r| !r.ok)
                            .map(|r| r.error.clone()),
                    );
                    (report_stats(&p.report), p.wall_ns, p.cell_ns)
                }
                Err(e) => {
                    report.check("campaign runs", false, e);
                    return report;
                }
            }
        } else {
            let p = serial_pass(cfg, &inputs, &traces, &cells);
            errors.extend(p.cells.iter().filter_map(|c| c.as_ref().err().cloned()));
            let cell_ns = p
                .cells
                .iter()
                .map(|c| c.as_ref().map_or(0, |(_, t)| t.cell_ns))
                .collect();
            (p.stats(), p.wall_ns, cell_ns)
        };
        report.attempted += cells.len() as u64;
        report.failed += stats.iter().filter(|s| s.is_none()).count() as u64;
        passes.push(Pass {
            stats,
            wall_ns,
            cell_ns,
            yardstick_ns,
            rss_mb: peak_rss_mb(),
        });
    }
    let final_yardstick = yardstick::sample_ns(workload.threads());

    seed_checks(&mut report, workload, seed, &digests);
    report.check(
        "every cell completes",
        errors.is_empty(),
        errors
            .first()
            .cloned()
            .unwrap_or_else(|| format!("{} cells x {} passes", cells.len(), passes.len())),
    );
    let reference = passes[0].stats.clone();
    let drift = passes
        .iter()
        .find_map(|p| first_mismatch(&inputs, &cells, &reference, &p.stats));
    report.check(
        "passes agree",
        drift.is_none(),
        drift.map_or("every pass has the same SimStats".into(), |k| {
            format!("{k} differs")
        }),
    );
    output_checks(&mut report, workload, cfg, &inputs, &reference);

    // Each pass is scaled by the mean of the yardsticks around it; set-up,
    // too short to pair with its own, by the median of all of them.
    let samples: Vec<f64> = passes
        .iter()
        .map(|p| p.yardstick_ns)
        .chain([final_yardstick])
        .collect();
    let local: Vec<f64> = samples.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect();
    let run_yardstick = median(&samples);
    let walls: Vec<f64> = passes
        .iter()
        .zip(&local)
        .map(|(p, &y)| normalize(p.wall_ns as f64, y) / 1e9)
        .collect();
    let cell_ms: Vec<Vec<f64>> = passes
        .iter()
        .zip(&local)
        .map(|(p, &y)| {
            p.cell_ns
                .iter()
                .map(|&ns| normalize(ns as f64, y) / 1e6)
                .collect()
        })
        .collect();
    let pooled: Vec<f64> = cell_ms.iter().flatten().copied().collect();
    let pass_medians: Vec<f64> = cell_ms.iter().map(|c| median(c)).collect();
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e9).collect();
    report.note(format!(
        "host speed: yardstick median {:.3} ms (range {:.3}..{:.3}) over {} samples; figures are scaled to {:.1} ms; raw wall_s median {:.6} s, raw setup_s median {:.6} s",
        run_yardstick / 1e6,
        samples.iter().copied().fold(f64::INFINITY, f64::min) / 1e6,
        samples.iter().copied().fold(0.0, f64::max) / 1e6,
        samples.len(),
        yardstick::NOMINAL_NS / 1e6,
        median(&raw_walls),
        median(&setup_secs),
    ));

    let pct = tail_percentile(cells.len() * workload.min_passes());
    let n = pooled.len() as u64;
    let beyond = ((1.0 - pct / 100.0) * pooled.len() as f64).floor() as u64;
    let p = passes.len() as u64;
    report.metric("wall_s", median(&walls), "s", p);
    report.metric_noted(
        "run_ms_p50",
        median(&pass_medians),
        "ms",
        n,
        format!("median of {p} per-pass medians"),
    );
    report.metric_noted(
        "run_ms_tail",
        percentile(&pooled, pct),
        "ms",
        n,
        format!("p{pct} with {beyond} samples beyond (>= {TAIL_BEYOND})"),
    );
    let setup: Vec<f64> = setup_secs
        .iter()
        .map(|&s| normalize(s, run_yardstick))
        .collect();
    report.metric("setup_s", median(&setup), "s", setup.len() as u64);
    let (rss, rss_note) = if per_pass_rss {
        let rss: Vec<f64> = passes.iter().map(|p| p.rss_mb).collect();
        (
            median(&rss),
            "median over passes of the peak during the pass",
        )
    } else {
        (peak_rss_mb(), "process peak: per-pass reset unavailable")
    };
    report.metric_noted("peak_rss_mb", rss, "MB", p, rss_note.to_string());
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.metric_noted(
        "completed_frac",
        1.0 - fail_frac,
        "frac",
        report.attempted,
        format!(
            "fail_frac {fail_frac} of {} attempted cells",
            report.attempted
        ),
    );
    report
}

/// The workload-specific output checks against an independent reference.
fn output_checks(
    report: &mut Report,
    workload: Workload,
    cfg: &SimConfig,
    inputs: &[Input],
    stats: &[Option<SimStats>],
) {
    let cells = workload.cells(inputs);
    match workload {
        Workload::Grid => {
            let serial = serial_pass(cfg, inputs, &[], &cells).stats();
            let diff = first_mismatch(inputs, &cells, stats, &serial);
            report.check(
                "pool equals serial",
                diff.is_none(),
                diff.map_or(
                    format!(
                        "{}-worker report equals the serial pass cell by cell",
                        GRID_WORKERS
                    ),
                    |k| format!("{k} differs"),
                ),
            );
            let snapshot = check_against_snapshot(inputs, &cells, stats);
            report.check(
                "slowdowns match snapshot",
                snapshot.is_ok(),
                snapshot.unwrap_or_else(|e| e),
            );
        }
        Workload::HpeThrash => {
            let reference: Vec<Option<SimStats>> = cells
                .iter()
                .map(|c| match &inputs[c.input] {
                    Input::App(app) => run_reference(cfg, app, c.rate, c.policy)
                        .ok()
                        .map(|r| r.stats),
                    Input::Synth(..) => None,
                })
                .collect();
            let diff = first_mismatch(inputs, &cells, stats, &reference);
            report.check(
                "layered equals runner",
                diff.is_none(),
                diff.map_or("every cell equals hpe_bench::run_policy".into(), |k| {
                    format!("{k} differs")
                }),
            );
        }
        Workload::SynthLarge => {
            let faults = |input: usize, kind: PolicyKind| {
                cells
                    .iter()
                    .zip(stats)
                    .find(|(c, _)| c.input == input && c.policy == kind)
                    .and_then(|(_, s)| s.as_ref())
                    .map(|s| (s.faults(), s.evictions()))
            };
            let bad = (0..inputs.len()).find(|&i| {
                match (faults(i, PolicyKind::Ideal), faults(i, PolicyKind::Lru)) {
                    (Some((fi, ei)), Some((fl, el))) => {
                        fi > fl || ei > el || fi < inputs[i].distinct_pages()
                    }
                    _ => true,
                }
            });
            report.check(
                "Ideal bounds LRU",
                bad.is_none(),
                bad.map_or(
                    "Ideal faults and evictions <= LRU's, and >= the compulsory faults".into(),
                    |i| format!("{} breaks the bound", inputs[i].name()),
                ),
            );
        }
    }
}
